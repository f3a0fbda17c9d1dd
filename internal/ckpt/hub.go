// Hub-level garbage collection. The union-pin rule itself — every sweep of
// a shared store honours every attached run's references — lives in
// pins.go; this file is the one policy that is not started from a run.
package ckpt

import (
	"fmt"

	"llmtailor/internal/storage"
)

// HubGCReport records what a hub-level garbage collection did.
type HubGCReport struct {
	// Runs lists the attached run roots whose pins the sweep honoured.
	Runs []string
	// Referenced is the number of distinct digests pinned by the union.
	Referenced int
	// Kept and Examined count store blobs retained and looked at.
	Kept, Examined int
	// RemovedBlobs lists swept digests; BytesFreed totals their sizes.
	RemovedBlobs []string
	BytesFreed   int64
	// RemovedStaging lists cleaned blob-staging residue paths.
	RemovedStaging []string
	// DryRun is set when nothing was actually removed.
	DryRun bool
}

// HubGC is the hub-level policy: the whole shared store is the candidate
// set, nothing is retired, and the pins are the union of every attached
// run's own pins (RunPins) — a digest referenced by ANY attached run
// survives.
func HubGC(b storage.Backend, hubRoot string, dryRun bool) (*HubGCReport, error) {
	if _, err := storage.ReadHubConfig(b, hubRoot); err != nil {
		return nil, fmt.Errorf("ckpt: hub gc: %w", err)
	}
	scope := &pinScope{b: b, hub: hubRoot, objects: storage.HubObjectsRoot(hubRoot)}
	runs, err := scope.peers()
	if err != nil {
		return nil, err
	}
	rep := &HubGCReport{DryRun: dryRun}
	for _, r := range runs {
		rep.Runs = append(rep.Runs, r.root)
	}
	query := pinQuery{journal: true, manifests: manifestsUncovered, peers: true}
	pins, err := scope.pins(query, nil)
	if err != nil {
		return nil, fmt.Errorf("ckpt: hub gc: %w", err)
	}
	rep.Referenced = len(pins)
	w, err := scope.sweeper(query, dryRun)
	if err != nil {
		return nil, err
	}
	if !b.Exists(w.store.Root()) {
		return rep, nil
	}
	err = w.sweep(nil, pins)
	rep.Kept, rep.Examined = w.Kept, w.Examined
	rep.RemovedBlobs, rep.RemovedStaging, rep.BytesFreed = w.RemovedBlobs, w.RemovedStaging, w.BytesFreed
	return rep, err
}
