// Package llmtailor is the public API of the LLMTailor reproduction: a
// layer-wise tailoring tool that assembles fully resumable "Frankenstein"
// training checkpoints from parts of multiple checkpoints — weights,
// optimizer state and configuration files included.
//
// The package re-exports the library's main entry points over the internal
// implementation:
//
//	// Open a storage root, parse a recipe, and merge. The merge engine is
//	// a streaming pipeline: MaxInFlight caps its peak tensor memory.
//	back, _ := llmtailor.OpenDir("/data/runs")
//	rec, _ := llmtailor.ParseRecipe(yamlBytes)
//	stats, _ := llmtailor.Merge(back, rec, llmtailor.MergeOptions{
//		Workers: 8, MaxInFlight: 2 << 30,
//	})
//
//	// Or reconstruct the newest complete state from partial checkpoints.
//	rec, _ = llmtailor.RecipeFromManifests(back, "sft-run", failStep, cfg, "merged")
//
// A simulated training substrate (llmtailor/internal/train) produces
// checkpoints with the same anatomy as DeepSpeed ZeRO-3 runs; see the
// examples/ directory and DESIGN.md for the full reproduction map.
//
// # Handles
//
// Run-scoped maintenance lives on handle types: Open/NewStore give a
// *Store, Store.Run a *Run and Store.Hub a *Hub (the shared-CAS checkpoint
// hub; see DESIGN.md "Checkpoint hub"). The handles consolidate the GC and
// Scan families behind uniform Options structs:
//
//	st := llmtailor.NewStore(b)          // or llmtailor.Open(root)
//	run := st.Run("sft-run")
//	rep, _ := run.GC(llmtailor.GCOptions{Full: true})
//	sc, _ := run.Scan(llmtailor.ScanOptions{Refs: true})
//	tr, _ := run.ResumeFrom(cfg, "merged")
//	hub := st.Hub("shared-hub")
//	_ = hub.Init(llmtailor.HubOptions{Shards: 16})
//	_ = hub.Attach("sft-run", "")
package llmtailor

import (
	"llmtailor/internal/ckpt"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/recipe"
	"llmtailor/internal/reshard"
	"llmtailor/internal/storage"
	"llmtailor/internal/strategy"
	"llmtailor/internal/tailor"
	"llmtailor/internal/tensor"
	"llmtailor/internal/train"
)

// Re-exported core types. The aliases keep the public surface small while
// the implementation lives in internal packages.
type (
	// Backend is the storage abstraction checkpoints live on.
	Backend = storage.Backend
	// Recipe is a parsed YAML merge recipe.
	Recipe = recipe.Recipe
	// MergeOptions tunes a merge run. Workers sets both the tensor-read
	// fan-out of the streaming weights pipeline and the rank-level
	// parallelism of optimizer merging; LoadOrder selects shard-file
	// loading behaviour; MaxInFlight bounds the payload bytes admitted
	// into the weights pipeline but not yet written (0 = unbounded), so a
	// merge of an arbitrarily large model runs in bounded memory;
	// ChunkBytes sets the streaming I/O chunk size; and NoRawCopy forces
	// the decode path where the zero-decode raw-copy fast path would
	// otherwise splice passthrough payloads verbatim (identical output
	// bytes either way).
	MergeOptions = tailor.Options
	// MergeStats reports a merge's I/O behaviour, including BytesRead /
	// BytesWritten volumes, PeakInFlightBytes (the high-water mark the
	// MergeOptions.MaxInFlight knob bounds) and the raw fast-path counters
	// TensorsRawCopied / ShardsRawCopied / BytesRawCopied.
	MergeStats = tailor.Stats
	// Plan is a validated merge plan (dry-run inspectable).
	Plan = tailor.Plan
	// ModelConfig is a transformer geometry.
	ModelConfig = modelcfg.Config
	// LayerRef identifies a mergeable layer.
	LayerRef = modelcfg.LayerRef
	// Checkpoint is an open checkpoint handle.
	Checkpoint = ckpt.Checkpoint
	// Manifest lists what a (possibly partial) checkpoint holds.
	Manifest = ckpt.Manifest
	// TrainerConfig parameterises the simulated training substrate.
	TrainerConfig = train.Config
	// Trainer is the simulated trainer.
	Trainer = train.Trainer
	// Strategy selects layers per checkpoint event.
	Strategy = strategy.Strategy
	// CheckpointStatus is one scanned directory's recovery classification
	// (committed / torn / orphaned staging).
	CheckpointStatus = ckpt.DirStatus
	// RepairReport records what Run.Repair removed and fixed.
	RepairReport = ckpt.RepairReport
	// FaultBackend injects storage failures at the Nth write/chunk/rename/
	// close for crash-consistency testing.
	FaultBackend = storage.Fault
	// BlobStatus is one scanned entry of a run root's content-addressed
	// objects/ store (referenced / unreferenced / staging residue).
	BlobStatus = ckpt.BlobStatus
	// BlobGCReport records what a blob garbage collection removed and kept.
	BlobGCReport = ckpt.GCReport
	// RetainReport records what a keep-last retention pass removed and
	// generationally swept.
	RetainReport = ckpt.RetainReport
	// RefStatus is one audited entry of a run root's journaled blob ref
	// index (objects/refs/) — the doctor's index view.
	RefStatus = ckpt.RefStatus
	// RefReconcileReport records a rebuild of the ref index from manifests.
	RefReconcileReport = ckpt.RefReconcileReport
	// AdoptReport records what the adopt-or-quarantine migration did.
	AdoptReport = ckpt.AdoptReport
	// CodecHealth is one dedup checkpoint's blob-codec breakdown and
	// parent-chain health — the doctor's compression view.
	CodecHealth = ckpt.CodecHealth
)

// Checkpoint directory recovery states (see ScanReport.Dirs).
const (
	StateCommitted   = ckpt.StateCommitted
	StateTorn        = ckpt.StateTorn
	StateOrphanTmp   = ckpt.StateOrphanTmp
	StateUnpublished = ckpt.StateUnpublished
	StateQuarantined = ckpt.StateQuarantined
	StateConverting  = ckpt.StateConverting
)

// Blob store entry states (see ScanReport.Blobs).
const (
	BlobReferenced   = ckpt.BlobReferenced
	BlobUnreferenced = ckpt.BlobUnreferenced
	BlobStaging      = ckpt.BlobStaging
	BlobStray        = ckpt.BlobStray
	BlobTrashed      = ckpt.BlobTrashed
)

// Ref-index audit states (see ScanReport.Refs).
const (
	RefOK         = ckpt.RefOK
	RefSuperseded = ckpt.RefSuperseded
	RefOrphaned   = ckpt.RefOrphaned
	RefDivergent  = ckpt.RefDivergent
	RefCorrupt    = ckpt.RefCorrupt
	RefMissing    = ckpt.RefMissing
	RefStaging    = ckpt.RefStaging
)

// NewFaultBackend wraps a backend with the fault injector used by the
// crash-consistency test harness.
func NewFaultBackend(b Backend) *FaultBackend { return storage.NewFault(b) }

// Load orders for optimizer shard files (see Table 7 in the paper).
const (
	// Straightforward loads each source shard file once.
	Straightforward = tailor.Straightforward
	// Interleaved reloads the shard file per layer (the paper's
	// pathological parity measurement).
	Interleaved = tailor.Interleaved
)

// OpenDir returns a Backend rooted at an OS directory.
func OpenDir(root string) (Backend, error) { return storage.NewOS(root) }

// NewMemBackend returns an in-memory Backend (tests, demos).
func NewMemBackend() Backend { return storage.NewMem() }

// ParseRecipe decodes a YAML merge recipe.
func ParseRecipe(src []byte) (*Recipe, error) { return recipe.Parse(src) }

// ParityRecipe builds the §5.2 use-case recipe: odd layers + embed_tokens
// from prev, even layers + lm_head + final norm from cur.
func ParityRecipe(prev, cur string, cfg *ModelConfig, output string) *Recipe {
	return recipe.Parity(prev, cur, cfg, output)
}

// RecipeFromManifests reconstructs the newest complete state from a run of
// partial checkpoints at or before failStep (0 = no cutoff).
func RecipeFromManifests(b Backend, runRoot string, failStep int, cfg *ModelConfig, output string) (*Recipe, error) {
	return recipe.FromManifests(b, runRoot, failStep, cfg, output)
}

// NewPlan validates a recipe against its source checkpoints without
// executing it.
func NewPlan(b Backend, r *Recipe) (*Plan, error) { return tailor.NewPlan(b, r) }

// Merge executes a recipe end to end.
func Merge(b Backend, r *Recipe, opts MergeOptions) (*MergeStats, error) {
	return tailor.Merge(b, r, opts)
}

// OpenCheckpoint opens a checkpoint directory for inspection.
func OpenCheckpoint(b Backend, dir string) (*Checkpoint, error) { return ckpt.Open(b, dir) }

// VerifyCheckpoint re-reads a checkpoint end to end (weights CRCs, shard
// geometry, group coverage) and reports every inconsistency.
func VerifyCheckpoint(b Backend, dir string) (*tailor.VerifyReport, error) {
	return tailor.Verify(b, dir)
}

// ModelByName returns a preset geometry: "llama3.2-1b", "llama3.1-8b",
// "qwen2.5-7b", or the tiny test models.
func ModelByName(name string) (*ModelConfig, error) { return modelcfg.ByName(name) }

// StrategyByName returns a built-in partial-checkpoint policy: "full",
// "parity", "filter" or "delta-topk".
func StrategyByName(name string) (Strategy, error) { return strategy.ByName(name) }

// NewTrainer builds a fresh simulated training run.
func NewTrainer(cfg TrainerConfig, b Backend) (*Trainer, error) { return train.New(cfg, b) }

// VerifyCommitted checks a checkpoint directory's commit marker end to end
// (presence, per-file sizes and CRCs).
func VerifyCommitted(b Backend, dir string) error { return ckpt.VerifyCommit(b, dir) }

// RestoreModelDType is the dtype used when restoring checkpoints.
var RestoreModelDType = tensor.BF16

// ReshardOptions tunes a checkpoint reshard: Workers sets group-level
// parallelism, MaxInFlight bounds in-flight payload bytes, NoRawCopy
// forces the gather→repartition decode path where the extent-splice fast
// path would otherwise move aligned bytes without decoding (identical
// output either way), Dedup publishes the output content-addressed, and
// NoLatest leaves the run root's latest pointer untouched.
type ReshardOptions = reshard.Options

// ReshardStats reports what a reshard did: raw-copy vs decode group
// counts, carried/spliced/zero-filled shard counters, byte volumes and
// the dedup blob accounting.
type ReshardStats = reshard.Stats
