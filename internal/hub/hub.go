// Package hub manages checkpoint hubs: one shared content-addressed blob
// store serving any number of run roots. A hub root carries hub.json, a
// runs/ registry (one JSON file per attached run — no read-modify-write
// races), and an objects/ store that may be sharded like any run-local
// store. Each attached run keeps its own checkpoint directories and latest
// pointer; only blobs and ref journals move into the hub, the journals
// namespaced under refs/<run-id>/ so runs never contend on record names.
//
// Lifecycle ordering is load-bearing. Attach publishes the registry entry
// FIRST and the run's hubref second, so a run that can save into the hub
// is always visible to every sweeper (the union-pin rule in package ckpt
// pins a digest while ANY registered run references it). Detach removes
// the hubref FIRST — stopping new saves — then the run's journal records,
// then the registry entry, so claims are never dropped while saves could
// still land.
package hub

import (
	"fmt"
	"strings"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/storage"
)

// Options configures Init.
type Options struct {
	// Shards, when > 0, initialises the hub's shared store with that many
	// digest shards (see storage.InitShards). Zero keeps the flat layout.
	Shards int
}

// Init creates a hub at root: hub.json, the runs/ registry directory and
// the objects/ store root. Re-initialising an existing hub is a no-op
// (shard count included — changing layout under live blobs is refused by
// storage.InitShards itself).
func Init(b storage.Backend, root string, opts Options) error {
	if err := storage.WriteHubConfig(b, root); err != nil {
		return err
	}
	if opts.Shards > 0 {
		if err := storage.InitShards(b, storage.HubObjectsRoot(root), opts.Shards); err != nil {
			return err
		}
	}
	return nil
}

// Attach registers runRoot under the hub as id and redirects its objects
// dir to the hub's shared store. An empty id defaults to the run root's
// base name. Attaching is refused when the hub is uninitialised, the id is
// taken by a different root, the run is already attached elsewhere, or the
// run root already holds local blobs or journal records (migrating an
// existing store into a hub is not automatic — blobs put before the
// redirect would be invisible to it). Re-attaching the same root under the
// same id is idempotent.
func Attach(b storage.Backend, hubRoot, runRoot, id string) error {
	if _, err := storage.ReadHubConfig(b, hubRoot); err != nil {
		return fmt.Errorf("hub: attach: %w", err)
	}
	if id == "" {
		id = baseName(runRoot)
	}
	if !storage.ValidHubRunID(id) {
		return fmt.Errorf("hub: invalid run id %q", id)
	}
	objects := strings.TrimSuffix(runRoot, "/") + "/" + ckpt.ObjectsDirName
	ref, err := storage.ReadHubRef(b, objects)
	if err != nil {
		return err
	}
	if ref != nil {
		if ref.Hub == hubRoot && ref.Run == id {
			return nil // idempotent re-attach
		}
		return fmt.Errorf("hub: %s already attached to hub %s as %q", runRoot, ref.Hub, ref.Run)
	}
	existing, err := storage.ReadHubRun(b, hubRoot, id)
	if err != nil {
		return err
	}
	if existing != nil && existing.Root != runRoot {
		return fmt.Errorf("hub: run id %q taken by %s", id, existing.Root)
	}
	if err := localStoreEmpty(b, objects); err != nil {
		return err
	}
	// Registry before hubref: once the run CAN save into the hub, every
	// sweeper's ListHubRuns already sees it.
	if err := storage.WriteHubRun(b, hubRoot, &storage.HubRun{Version: 1, ID: id, Root: runRoot}); err != nil {
		return err
	}
	return storage.WriteHubRef(b, objects, &storage.HubRef{Version: 1, Hub: hubRoot, Run: id})
}

// localStoreEmpty refuses attachment over a run root that already owns
// local blobs, journal records or a shard layout.
func localStoreEmpty(b storage.Backend, objects string) error {
	if b.Exists(objects + "/" + storage.ShardConfigName) {
		return fmt.Errorf("hub: %s has a local shard layout; migrate blobs before attaching", objects)
	}
	store, err := storage.OpenCAS(b, objects)
	if err != nil {
		return err
	}
	if b.Exists(store.Root()) {
		blobs, _, _, err := store.List()
		if err != nil {
			return err
		}
		if len(blobs) > 0 {
			return fmt.Errorf("hub: %s holds %d local blobs; migrate them before attaching", objects, len(blobs))
		}
	}
	ix := storage.NewRefIndex(b, objects)
	entries, staging, _, err := ix.Entries()
	if err != nil {
		return err
	}
	if len(entries) > 0 || len(staging) > 0 {
		return fmt.Errorf("hub: %s holds local ref records; migrate them before attaching", objects)
	}
	return nil
}

// Detach unregisters runRoot from its hub. While the run still references
// hub blobs (journal records or checkpoint manifests) detaching is refused
// unless force is set; a forced detach abandons those claims — the blobs
// become reclaimable as soon as no peer pins them, and the run's
// checkpoints stop restoring. Removal order: hubref first (no new saves),
// then the run's namespaced journal records, then the registry entry.
func Detach(b storage.Backend, runRoot string, force bool) error {
	objects := strings.TrimSuffix(runRoot, "/") + "/" + ckpt.ObjectsDirName
	ref, err := storage.ReadHubRef(b, objects)
	if err != nil {
		return err
	}
	if ref == nil {
		return fmt.Errorf("hub: %s is not attached to a hub", runRoot)
	}
	if !force {
		refs, err := ckpt.BlobRefs(b, runRoot)
		if err != nil {
			return err
		}
		if len(refs) > 0 {
			return fmt.Errorf("hub: %s still references %d hub blobs; pass force to abandon them", runRoot, len(refs))
		}
	}
	if err := storage.RemoveHubRef(b, objects); err != nil {
		return err
	}
	// Drop the run's namespaced journal records directly: the hubref is
	// gone, so OpenRefIndex on the run would now resolve locally.
	nsIx := storage.NewRefIndexNS(b, storage.HubObjectsRoot(ref.Hub), ref.Run)
	entries, staging, _, err := nsIx.Entries()
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := nsIx.Remove(e); err != nil {
			return err
		}
	}
	for _, s := range staging {
		if err := nsIx.RemoveStaging(s); err != nil {
			return err
		}
	}
	return storage.RemoveHubRun(b, ref.Hub, ref.Run)
}

// RunInfo summarises one attached run for Stat.
type RunInfo struct {
	ID          string
	Root        string
	Checkpoints int
	// Referenced counts the distinct hub digests this run pins.
	Referenced int
}

// Info summarises a hub for Stat.
type Info struct {
	Root   string
	Shards int // 0 = flat layout
	Runs   []RunInfo
	// Blobs and Bytes describe the shared store's published payload.
	Blobs int
	Bytes int64
}

// Stat reports the hub's attached runs and shared-store footprint.
func Stat(b storage.Backend, hubRoot string) (*Info, error) {
	if _, err := storage.ReadHubConfig(b, hubRoot); err != nil {
		return nil, err
	}
	info := &Info{Root: hubRoot}
	runs, err := storage.ListHubRuns(b, hubRoot)
	if err != nil {
		return nil, err
	}
	for _, r := range runs {
		ri := RunInfo{ID: r.ID, Root: r.Root}
		// An attached run that has saved nothing yet has no root: zero
		// checkpoints. Any other failure to list it is an error.
		dirs, err := ckpt.List(b, r.Root)
		if err != nil && !storage.IsNotExist(err) {
			return nil, fmt.Errorf("hub: stat run %s: %w", r.ID, err)
		}
		ri.Checkpoints = len(dirs)
		pins, err := ckpt.RunPins(b, r.Root)
		if err != nil {
			return nil, fmt.Errorf("hub: stat run %s: %w", r.ID, err)
		}
		ri.Referenced = len(pins)
		info.Runs = append(info.Runs, ri)
	}
	store, err := storage.OpenCAS(b, storage.HubObjectsRoot(hubRoot))
	if err != nil {
		return nil, err
	}
	info.Shards = store.Shards()
	if b.Exists(store.Root()) {
		blobs, _, _, err := store.List()
		if err != nil {
			return nil, err
		}
		info.Blobs = len(blobs)
		for _, blob := range blobs {
			if blob.Size > 0 {
				info.Bytes += blob.Size
			}
		}
	}
	return info, nil
}

// GC runs the hub-level union-pin collection: one sweep of the shared
// store keeping every digest referenced by ANY attached run. See
// ckpt.HubGC for the crash-safety argument.
func GC(b storage.Backend, hubRoot string, dryRun bool) (*ckpt.GCReport, error) {
	return ckpt.HubGC(b, hubRoot, dryRun)
}

// baseName returns the final path segment of root.
func baseName(root string) string {
	root = strings.TrimSuffix(root, "/")
	if i := strings.LastIndexByte(root, '/'); i >= 0 {
		return root[i+1:]
	}
	return root
}
