package llmtailor

import (
	"llmtailor/internal/ckpt"
	"llmtailor/internal/hub"
	"llmtailor/internal/reshard"
	"llmtailor/internal/storage"
	"llmtailor/internal/train"
)

// Store is the handle-based entry point to everything that lives on one
// storage backend: runs (checkpoint roots) and hubs (shared blob stores).
// Run-scoped maintenance is a method on the Run or Hub handle it operates
// on, with uniform Options structs instead of positional flags.
//
//	st, _ := llmtailor.Open("/data")
//	run := st.Run("sft-run")
//	rep, _ := run.GC(llmtailor.GCOptions{Full: true})
//	scan, _ := run.Scan(llmtailor.ScanOptions{Blobs: true, Refs: true})
type Store struct {
	b Backend
}

// Open returns a Store over an OS directory root.
func Open(root string) (*Store, error) {
	b, err := storage.NewOS(root)
	if err != nil {
		return nil, err
	}
	return &Store{b: b}, nil
}

// NewStore wraps an existing Backend (memory backends, fault injectors,
// remote stores) in the handle API.
func NewStore(b Backend) *Store { return &Store{b: b} }

// Backend exposes the store's underlying backend for code that still needs
// the raw surface (merges, trainers, inspection).
func (s *Store) Backend() Backend { return s.b }

// Run returns the handle for one run root — a directory of checkpoint
// dirs with a latest pointer and (for dedup saves) an objects store that
// is either run-local or redirected to a hub.
func (s *Store) Run(root string) *Run { return &Run{b: s.b, root: root} }

// Hub returns the handle for a checkpoint hub root — one shared
// content-addressed store any number of runs attach to.
func (s *Store) Hub(root string) *Hub { return &Hub{b: s.b, root: root} }

// Run is the handle for one run root; all run-scoped maintenance lives here.
type Run struct {
	b    Backend
	root string
}

// Root returns the run root path the handle was opened with.
func (r *Run) Root() string { return r.root }

// dir resolves a checkpoint name ("checkpoint-100") under the run root.
func (r *Run) dir(name string) string {
	if r.root == "" {
		return name
	}
	return r.root + "/" + name
}

// objects resolves the run's objects directory (pre-hub-resolution).
func (r *Run) objects() string { return r.dir(ckpt.ObjectsDirName) }

// GCOptions selects a garbage-collection flavour. The zero value is the
// incremental generational sweep — the cheap, routinely-run pass. Full
// switches to the mark-and-sweep verification pass that re-derives all
// references from manifests and validates the ref index. DryRun reports
// without mutating in either mode.
type GCOptions struct {
	Full   bool
	DryRun bool
}

// GC collects dead blobs from the run's store (the shared hub store when
// the run is attached — peer runs' references pin; see DESIGN.md
// "Checkpoint hub").
func (r *Run) GC(opts GCOptions) (*BlobGCReport, error) {
	switch {
	case opts.Full && opts.DryRun:
		return ckpt.GCDryRun(r.b, r.root)
	case opts.Full:
		return ckpt.GC(r.b, r.root)
	default:
		return ckpt.GCGenerational(r.b, r.root, opts.DryRun)
	}
}

// ScanOptions selects which doctor views Scan collects beyond the always-on
// directory classification.
type ScanOptions = ckpt.ScanViews

// ScanReport aggregates the doctor views of one run root. Dirs is always
// populated; the other slices only when requested via ScanOptions.
type ScanReport = ckpt.RunScan

// Scan classifies the run root: checkpoint directories always, and on
// request the blob store, ref index and codec health — every view over one
// catalog of the run root (one listing, each marker and manifest read once).
func (r *Run) Scan(opts ScanOptions) (*ScanReport, error) { return ckpt.ScanRun(r.b, r.root, opts) }

// RetainOptions parameterises a keep-last retention pass.
type RetainOptions struct {
	KeepLast int
	DryRun   bool
}

// Retain keeps the newest KeepLast committed checkpoints, retires the rest
// and generationally sweeps the blobs whose youngest reference died with
// them. The latest pointer's target is never removed.
func (r *Run) Retain(opts RetainOptions) (*RetainReport, error) {
	return ckpt.Retain(r.b, r.root, opts.KeepLast, opts.DryRun)
}

// Repair removes torn checkpoints and orphaned staging directories and
// re-aims the latest pointer at the newest committed checkpoint.
func (r *Run) Repair() (*RepairReport, error) { return ckpt.Repair(r.b, r.root) }

// Adopt runs the adopt-or-quarantine migration over pre-commit-protocol
// checkpoints.
func (r *Run) Adopt() (*AdoptReport, error) { return ckpt.AdoptAll(r.b, r.root) }

// ReconcileRefs rebuilds the journaled ref index from the manifests.
func (r *Run) ReconcileRefs() (*RefReconcileReport, error) {
	return ckpt.ReconcileRefIndex(r.b, r.root)
}

// Latest resolves the run's "latest" pointer.
func (r *Run) Latest() (string, error) { return ckpt.Latest(r.b, r.root) }

// List returns the run's checkpoint directories sorted by step.
func (r *Run) List() ([]string, error) { return ckpt.List(r.b, r.root) }

// Shards reports the digest-prefix fan-out of the run's content-addressed
// store (the hub's when attached): the shard count under the sharded
// layout, 0 for the flat layout. Store-open errors are surfaced — a corrupt
// shards.json is a configuration problem, not a flat layout.
func (r *Run) Shards() (int, error) {
	cas, err := storage.OpenCAS(r.b, r.objects())
	if err != nil {
		return 0, err
	}
	return cas.Shards(), nil
}

// HubAttachment reports the hub this run is attached to ("" when the run
// has a run-local store) and its id under that hub.
func (r *Run) HubAttachment() (hubRoot, runID string, err error) {
	ref, err := storage.ReadHubRef(r.b, r.objects())
	if err != nil || ref == nil {
		return "", "", err
	}
	return ref.Hub, ref.Run, nil
}

// Resume continues the run from its newest committed checkpoint, falling
// back to older committed checkpoints when the newest cannot restore.
func (r *Run) Resume(cfg TrainerConfig) (*Trainer, error) {
	return train.ResumeLatest(cfg, r.b, r.root)
}

// ResumeFrom continues the run from one named checkpoint.
func (r *Run) ResumeFrom(cfg TrainerConfig, name string) (*Trainer, error) {
	return train.Resume(cfg, r.b, r.dir(name))
}

// MaterializeOptions tunes a dedup-to-container materialisation.
// ChunkBytes sets the streaming I/O chunk size (0 = default).
type MaterializeOptions struct {
	ChunkBytes int
}

// MaterializeWeights writes a full model.ltsf container at dst from the
// named dedup checkpoint, byte-identical to a plain save of the same state.
func (r *Run) MaterializeWeights(name, dst string, opts MaterializeOptions) error {
	return ckpt.MaterializeWeights(r.b, r.dir(name), dst, opts.ChunkBytes)
}

// MaterializeOptimShard writes one rank's full .ltos container at dst from
// the named dedup checkpoint.
func (r *Run) MaterializeOptimShard(name string, rank int, dst string, opts MaterializeOptions) error {
	return ckpt.MaterializeShardFile(r.b, r.dir(name), rank, dst, opts.ChunkBytes)
}

// Reshard repartitions the named committed checkpoint into dstName at
// another world size, committing under the standard protocol.
func (r *Run) Reshard(srcName, dstName string, worldSize int, opts ReshardOptions) (*ReshardStats, error) {
	return reshard.Reshard(r.b, r.dir(srcName), r.dir(dstName), worldSize, opts)
}

// Reshard is the store-level two-path form of Run.Reshard: source and
// destination may live under different run roots.
func (s *Store) Reshard(srcDir, dstDir string, worldSize int, opts ReshardOptions) (*ReshardStats, error) {
	return reshard.Reshard(s.b, srcDir, dstDir, worldSize, opts)
}

// Hub is the handle for a checkpoint hub: one shared content-addressed
// blob store (plus per-run ref-journal namespaces and a run registry)
// serving any number of attached run roots. See DESIGN.md "Checkpoint
// hub" for the layout and the union-pin GC rule.
type Hub struct {
	b    Backend
	root string
}

// Root returns the hub root path the handle was opened with.
func (h *Hub) Root() string { return h.root }

// HubOptions parameterises Hub.Init. Shards > 0 initialises the shared
// store with that many digest shards; 0 keeps the flat layout.
type HubOptions struct {
	Shards int
}

// Init creates the hub (idempotent for an existing one).
func (h *Hub) Init(opts HubOptions) error {
	return hub.Init(h.b, h.root, hub.Options{Shards: opts.Shards})
}

// Attach registers runRoot under the hub as id ("" = the root's base name)
// and redirects its objects store to the hub. Runs with existing local
// blobs are refused — migrate first.
func (h *Hub) Attach(runRoot, id string) error { return hub.Attach(h.b, h.root, runRoot, id) }

// Detach unregisters runRoot from the hub. While the run still references
// hub blobs it is refused unless force is set; force abandons the claims.
func (h *Hub) Detach(runRoot string, force bool) error { return hub.Detach(h.b, runRoot, force) }

// Stat reports the hub's attached runs and shared-store footprint.
func (h *Hub) Stat() (*HubInfo, error) { return hub.Stat(h.b, h.root) }

// GC is the hub-level union-pin collection: one sweep of the shared store
// keeping every digest referenced by ANY attached run.
func (h *Hub) GC(dryRun bool) (*HubGCReport, error) { return hub.GC(h.b, h.root, dryRun) }

// Hub-related re-exports.
type (
	// HubInfo summarises a hub: attached runs, shard layout, store footprint.
	HubInfo = hub.Info
	// HubRunInfo summarises one attached run inside a HubInfo.
	HubRunInfo = hub.RunInfo
	// HubGCReport records what a hub-level garbage collection did.
	HubGCReport = ckpt.HubGCReport
	// DedupifyReport accounts a content-addressed merge or reshard output
	// (blobs written versus reused, payload bytes deduplicated).
	DedupifyReport = ckpt.DedupifyReport
)
