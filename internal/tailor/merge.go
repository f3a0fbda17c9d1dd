package tailor

import (
	"bytes"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/parallel"
	"llmtailor/internal/recipe"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
	"llmtailor/internal/zero"
)

// LoadOrder selects how optimizer shard files are loaded.
type LoadOrder uint8

const (
	// Straightforward loads each (checkpoint, rank) shard file exactly
	// once and extracts every needed group from it — the efficient order
	// ("layers 1–16 from checkpoint-100, layers 17–32 from checkpoint-200").
	Straightforward LoadOrder = iota
	// Interleaved replicates the paper's pathological "parity" measurement
	// (§5.4, Table 7): layers are processed strictly in model order and the
	// source shard file is re-loaded for every layer, because the optimizer
	// state can only be accessed after a full file load and nothing is
	// cached across layers.
	Interleaved
)

// String names the load order for reports.
func (o LoadOrder) String() string {
	if o == Interleaved {
		return "interleaved"
	}
	return "straightforward"
}

// Options tunes a merge run.
type Options struct {
	// Workers bounds both the tensor-read parallelism of the weights
	// pipeline and the rank-level parallelism of optimizer merging
	// (default 1; the paper's multiprocessing corresponds to >1).
	Workers int
	// LoadOrder selects shard-file loading behaviour (default
	// Straightforward).
	LoadOrder LoadOrder
	// ChunkBytes is the streaming I/O chunk size for container writes
	// (default storage.DefaultChunkBytes).
	ChunkBytes int
	// MaxInFlight bounds the total payload bytes of tensors admitted into
	// the weights pipeline and not yet written to the output container.
	// 0 (default) means unbounded; Stats.PeakInFlightBytes reports the
	// high-water mark either way.
	MaxInFlight int64
	// NoRawCopy disables the zero-decode fast path, forcing every tensor
	// through decode/re-encode and every optimizer shard through a full
	// group decode. The output bytes are identical either way (the golden
	// tests pin this); the knob exists for A/B benchmarking and diffing.
	NoRawCopy bool
	// DedupOutput publishes the merged checkpoint content-addressed: before
	// the commit, the staged payloads move into the run root's objects/
	// store (deduplicated against existing blobs) and the directory keeps
	// manifests. Stats gains the blob counters.
	DedupOutput bool
}

// Stats reports what a merge did.
type Stats struct {
	// TensorsRead counts individual weight tensors fetched lazily.
	TensorsRead int
	// ShardFileLoads counts whole optimizer shard-file reads, the dominant
	// I/O cost (Table 7's driver).
	ShardFileLoads int64
	// CheckpointsUsed is the number of distinct source checkpoints.
	CheckpointsUsed int
	// WallTime is the measured duration of the merge.
	WallTime time.Duration
	// BytesRead counts payload and container bytes fetched from sources
	// (weight tensor payloads, whole shard files, copied configs).
	BytesRead int64
	// BytesWritten counts bytes of output containers and configs.
	BytesWritten int64
	// PeakInFlightBytes is the high-water mark of tensor payload bytes
	// admitted into the weights pipeline and not yet written — the
	// quantity Options.MaxInFlight bounds.
	PeakInFlightBytes int64
	// TensorsRawCopied counts weight tensors that took the zero-decode
	// fast path: payload extent spliced source→output with the source CRC
	// carried forward, no decode/re-encode. A subset of TensorsRead.
	TensorsRawCopied int
	// ShardsRawCopied counts whole optimizer shard files streamed
	// backend-to-backend without group decode. Raw-copied shards are
	// deliberately NOT counted in ShardFileLoads — that counter tracks
	// full decode loads, the Table 7 cost the fast path removes.
	ShardsRawCopied int
	// BytesRawCopied totals the payload bytes moved by both raw paths.
	BytesRawCopied int64
	// DedupifyReport holds the dedup output's counters
	// (Options.DedupOutput): BlobsPut, BlobsReused, BlobBytesWritten and
	// BytesDeduped.
	ckpt.DedupifyReport
}

// Merge executes a recipe end to end and returns merge statistics. Blend
// methods (linear, slerp) take the weights-only path; passthrough builds and
// executes a full layer-level plan including optimizer state.
func Merge(b storage.Backend, r *recipe.Recipe, opts Options) (*Stats, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if r.IsBlend() {
		start := time.Now()
		stats := &Stats{}
		if err := mergeBlend(b, r, opts, stats); err != nil {
			return nil, err
		}
		stats.WallTime = time.Since(start)
		return stats, nil
	}
	plan, err := NewPlan(b, r)
	if err != nil {
		return nil, err
	}
	return Execute(b, plan, opts)
}

// Execute runs a previously validated plan. The output directory is built
// under the same commit protocol as ckpt.Save: every file stages into
// `<output>.tmp` (where a dedup output also takes its content-addressed
// form), a COMMITTED marker seals the tree, and one atomic rename publishes
// it before the latest pointer moves — a merge that crashes mid-flight leaves
// sources and any previous output untouched.
func Execute(b storage.Backend, plan *Plan, opts Options) (*Stats, error) {
	start := time.Now()
	stats := &Stats{CheckpointsUsed: len(plan.Sources)}

	txn, err := ckpt.Begin(b, plan.Recipe.Output)
	if err != nil {
		return nil, err
	}
	defer txn.Abort()
	out, outDir := txn.Backend(), txn.Dir()

	if err := mergeWeights(out, outDir, plan, opts, stats); err != nil {
		return nil, err
	}
	if plan.Recipe.Optimizer {
		if err := mergeOptimizer(out, outDir, plan, opts, stats); err != nil {
			return nil, err
		}
	}
	if err := copyConfigs(b, out, outDir, plan, stats); err != nil {
		return nil, err
	}
	// The latest pointer moves so resume tooling finds the merged checkpoint.
	// For a single-segment Output ("merged") the run root is the backend root
	// itself, so the pointer lands at the root-level "latest" — see
	// ckpt.LatestPointerPath.
	step := plan.Sources[plan.Recipe.ConfigsSource()].State.Step
	if stats.DedupifyReport, err = txn.Publish(step, true, opts.DedupOutput); err != nil {
		return nil, err
	}
	stats.WallTime = time.Since(start)
	return stats, nil
}

// streamWeights writes an output model.ltsf as a bounded-memory pipeline,
// the shape both merge paths share: per-tensor jobs are admitted under the
// MaxInFlight byte gate (in model order, which makes the gate deadlock-free
// — admission happens in push order and release in sink order, so it can
// never strand the head-of-line job behind later ones), fanned out over
// Options.Workers calls of work, and drained by a single in-order sink
// streaming into the container. Peak memory is bounded by the gate instead
// of the full model size, and reads overlap both each other and the output
// write.
func streamWeights[D any](out storage.Backend, outDir string, cfg *modelcfg.Config, opts Options, stats *Stats,
	cost func(modelcfg.TensorSpec) int64,
	work func(modelcfg.TensorSpec) (D, error),
	sink func(*ckpt.LTSFWriter, D) error) error {
	w, err := ckpt.NewLTSFWriter(out, outDir+"/model.ltsf", cfg.Name, opts.ChunkBytes)
	if err != nil {
		return err
	}
	defer w.Abort()
	gate := parallel.NewByteGate(opts.MaxInFlight)
	pipe := parallel.NewPipeline(opts.Workers, pipelineDepth(opts.Workers), work,
		func(d D) error { return sink(w, d) })
	for _, spec := range cfg.Tensors() {
		c := cost(spec)
		gate.Acquire(c)
		if err := pipe.PushWithCleanup(spec, func() { gate.Release(c) }); err != nil {
			gate.Release(c)
			break
		}
	}
	if err := pipe.Close(); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	stats.BytesWritten += w.BytesWritten()
	if p := gate.Peak(); p > stats.PeakInFlightBytes {
		stats.PeakInFlightBytes = p
	}
	return nil
}

// mergeWeights assembles the consolidated output weights file through
// streamWeights. Each spec is classified by its reader: a pure passthrough
// whose stored dtype already matches the output dtype takes the zero-decode
// fast path (raw extent read + AppendRaw splice, source CRC carried
// forward); a spec needing dtype conversion — or any spec when
// Options.NoRawCopy is set — keeps the decode path. Both run inside the same
// ordered pipeline under the same byte gate, and produce identical output
// bytes.
func mergeWeights(out storage.Backend, outDir string, plan *Plan, opts Options, stats *Stats) error {
	outDType := tensor.BF16
	if plan.Recipe.DType != "" {
		d, err := tensor.ParseDType(plan.Recipe.DType)
		if err != nil {
			return err
		}
		outDType = d
	}
	type done struct {
		t        *tensor.Tensor
		raw      *ckpt.RawTensor // non-nil: d.data splices via AppendRaw
		data     []byte
		srcBytes int64
	}
	return streamWeights(out, outDir, plan.Config, opts, stats,
		func(spec modelcfg.TensorSpec) int64 {
			return weightCost(plan.Sources[plan.Assign[spec.Layer]].Weights(), spec, outDType)
		},
		func(spec modelcfg.TensorSpec) (done, error) {
			srcPath := plan.Assign[spec.Layer]
			src := plan.Sources[srcPath].Weights()
			if !opts.NoRawCopy && src.RawEligible(spec.Name, outDType) {
				rt, data, err := readRawPayload(src, spec.Name)
				if err != nil {
					return done{}, fmt.Errorf("tailor: raw read %s from %s: %w", spec.Name, srcPath, err)
				}
				return done{raw: rt, data: data, srcBytes: rt.Size}, nil
			}
			t, err := src.ReadTensor(spec.Name)
			if err != nil {
				return done{}, fmt.Errorf("tailor: read %s from %s: %w", spec.Name, srcPath, err)
			}
			srcBytes := t.Bytes()
			if t.DType != outDType {
				t = t.Convert(outDType)
			}
			return done{t: t, srcBytes: srcBytes}, nil
		},
		func(w *ckpt.LTSFWriter, d done) error {
			if d.raw != nil {
				if err := w.AppendRaw(*d.raw, bytes.NewReader(d.data)); err != nil {
					return err
				}
				stats.TensorsRawCopied++
				stats.BytesRawCopied += d.raw.Size
			} else if err := w.WriteTensor(d.t); err != nil {
				return err
			}
			stats.TensorsRead++
			stats.BytesRead += d.srcBytes
			return nil
		})
}

// weightCost estimates the in-flight bytes of one tensor job: the stored
// source payload, plus the converted copy when the output dtype differs.
func weightCost(src *ckpt.Weights, spec modelcfg.TensorSpec, outDType tensor.DType) int64 {
	outBytes := spec.NumElems() * int64(outDType.Size())
	srcBytes, ok := src.PayloadSize(spec.Name)
	if !ok {
		return outBytes
	}
	if srcBytes != outBytes {
		// A dtype conversion briefly holds both representations.
		return srcBytes + outBytes
	}
	return srcBytes
}

// readRawPayload fetches one tensor's stored payload bytes verbatim through
// the backend's sectioned-read stream. The bytes are held (under the byte
// gate) until the ordered sink splices them; no decode happens anywhere.
func readRawPayload(src *ckpt.Weights, name string) (*ckpt.RawTensor, []byte, error) {
	rt, rc, err := src.OpenRaw(name)
	if err != nil {
		return nil, nil, err
	}
	data := make([]byte, rt.Size)
	_, err = io.ReadFull(rc, data)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("read payload extent: %w", err)
	}
	return &rt, data, nil
}

// pipelineDepth bounds how many completed tensors may queue between the
// reader pool and the ordered writer; the byte gate is the real memory
// bound, this only keeps the ordering queue short.
func pipelineDepth(workers int) int {
	if workers < 1 {
		workers = 1
	}
	return workers
}

// mergeOptimizer assembles one output shard file per rank by copying group
// shards from the sources. Ranks run under a bounded worker pool; each
// rank's output streams group by group through a ShardFileWriter, so a
// worker's peak memory is one rank shard, never the whole optimizer state.
//
// When every layer is assigned to a single complete source, the group-level
// copy degenerates to the identity and the whole `.ltos` file is streamed
// backend-to-backend instead — no group decode, no f32 re-encode, no CRC
// recompute. A cheap header-only validation pass decides eligibility; any
// mismatch falls back to the decode path, never to a wrong copy.
func mergeOptimizer(out storage.Backend, outDir string, plan *Plan, opts Options, stats *Stats) error {
	if src, ok := rawShardSource(plan, opts); ok {
		copied, err := rawCopyOptimizer(out, outDir, plan, src, opts, stats)
		if copied || err != nil {
			return err
		}
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	var loads, bytesIn, bytesOut atomic.Int64

	err := parallel.ForEach(workers, plan.WorldSize, func(rank int) error {
		shards, metas, step, n, readBytes, err := buildRankShards(plan, opts.LoadOrder, rank)
		if err != nil {
			return err
		}
		loads.Add(n)
		bytesIn.Add(readBytes)
		name := outDir + "/" + ckpt.ShardFileName(rank)
		w, err := ckpt.NewShardFileWriter(out, name, rank, plan.WorldSize, step, plan.Layout.Kind, opts.ChunkBytes)
		if err != nil {
			return err
		}
		defer w.Abort()
		for i, m := range metas {
			if err := w.WriteGroup(m, shards[i]); err != nil {
				return err
			}
			shards[i] = nil // release the shard as soon as it is spooled
		}
		if err := w.Close(); err != nil {
			return err
		}
		bytesOut.Add(w.BytesWritten())
		return nil
	})
	stats.ShardFileLoads = loads.Load()
	stats.BytesRead += bytesIn.Load()
	stats.BytesWritten += bytesOut.Load()
	return err
}

// rawShardSource returns the single source checkpoint path when the merge
// is a whole-rank passthrough: every layer assigned to one complete source.
// Only then is each rank's output shard file byte-identical to the source's
// and eligible for a verbatim copy.
func rawShardSource(plan *Plan, opts Options) (string, bool) {
	if opts.NoRawCopy {
		return "", false
	}
	src := ""
	for _, path := range plan.Assign {
		if src == "" {
			src = path
		} else if path != src {
			return "", false
		}
	}
	if src == "" {
		return "", false
	}
	if _, mismatched := plan.Resharded[src]; mismatched {
		// A mismatched-world-size source is never byte-identical to the
		// output — its groups must be repartitioned shard by shard.
		return "", false
	}
	return src, plan.Sources[src].Manifest.Complete
}

// rawCopyOptimizer streams every rank's `.ltos` file verbatim from the
// single source into the staging directory. Before any payload byte moves,
// a header-only pass over all ranks confirms each file is exactly what the
// decode path would rebuild (rank, world size, layout, group order, numels,
// contiguous payload); any surprise returns copied=false so the caller
// falls back to the group-decode path. Copy errors after validation are
// real merge errors — fault injection and disk failures surface, they do
// not silently demote the merge to the slow path mid-write.
func rawCopyOptimizer(out storage.Backend, outDir string, plan *Plan, src string, opts Options, stats *Stats) (bool, error) {
	c := plan.Sources[src]
	var payloadBytes int64
	for rank := 0; rank < plan.WorldSize; rank++ {
		h, err := ckpt.ReadShardHeader(c.Backend, c.Dir+"/"+ckpt.ShardFileName(rank))
		if err != nil || !shardCopyable(h, plan, rank) {
			return false, nil
		}
		payloadBytes += h.PayloadBytes
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	var copied atomic.Int64
	err := parallel.ForEach(workers, plan.WorldSize, func(rank int) error {
		rel := ckpt.ShardFileName(rank)
		n, err := storage.CopyFile(out, outDir+"/"+rel, c.Backend, c.Dir+"/"+rel, opts.ChunkBytes)
		if err != nil {
			return fmt.Errorf("tailor: raw copy %s from %s: %w", rel, src, err)
		}
		copied.Add(n)
		return nil
	})
	if err != nil {
		return true, err
	}
	stats.ShardsRawCopied += plan.WorldSize
	// BytesRawCopied counts payload extents only (matching the weights
	// path); the file counters take the whole containers as moved.
	stats.BytesRawCopied += payloadBytes
	stats.BytesRead += copied.Load()
	stats.BytesWritten += copied.Load()
	return true, nil
}

// shardCopyable reports whether a source shard file is byte-equivalent to
// what the decode path would write for this plan: same rank, world size and
// layout, exactly the layout's groups in index order with matching numels,
// and a gap-free payload.
func shardCopyable(h *ckpt.ShardHeader, plan *Plan, rank int) bool {
	if h.Rank != rank || h.WorldSize != plan.WorldSize || h.Layout != plan.Layout.Kind {
		return false
	}
	if len(h.Groups) != plan.Layout.NumGroups() {
		return false
	}
	var pos int64
	for i, g := range h.Groups {
		if g.Index != i || g.Numel != plan.Layout.Groups[i].Numel {
			return false
		}
		if g.Offsets[0] != pos {
			return false
		}
		pos = g.Offsets[1]
		// The decode path rejects a group whose extent is not exactly
		// 12×ShardLen (master + exp_avg + exp_avg_sq in f32), so the raw
		// copy must too. Range-check ShardLen before multiplying: a
		// near-MaxInt64 value could wrap ShardLen*12 around to the extent.
		extent := g.Offsets[1] - g.Offsets[0]
		if g.ShardLen < 0 || g.ShardLen > extent || extent != g.ShardLen*12 {
			return false
		}
	}
	return pos == h.PayloadBytes
}

// shardSource adapts one source checkpoint to rank-level group extraction.
// A source whose native world size matches the plan's holds the target
// rank's file directly; a mismatched source holds every native rank's file
// and repartitions each requested group through zero.Partition math on
// demand — the on-the-fly counterpart of `llmtailor reshard`.
type shardSource struct {
	files []*ckpt.ShardFile // 1 file when native, all native ranks when resharding
	world int               // plan (output) world size
	rank  int               // target output rank
	step  int
	loads int64
	bytes int64
}

// loadShardSource reads the shard file(s) a source contributes to one
// output rank. A mismatched source costs a load per native rank: every
// shard participates in the repartition, exactly the Table 7 whole-file
// cost model.
func loadShardSource(plan *Plan, path string, rank int) (*shardSource, error) {
	c := plan.Sources[path]
	s := &shardSource{world: plan.WorldSize, rank: rank}
	native, mismatched := plan.Resharded[path]
	if !mismatched {
		native = 1
	}
	for r := 0; r < native; r++ {
		srcRank := rank
		if mismatched {
			srcRank = r
		}
		f, err := c.ReadOptimShard(srcRank)
		if err != nil {
			return nil, err
		}
		s.files = append(s.files, f)
		s.loads++
		s.bytes += f.FileBytes
		if f.Step > s.step {
			s.step = f.Step
		}
	}
	return s, nil
}

// group returns the target rank's shard of one layout group, resharding
// across the source's native ranks when the world sizes differ. Metadata
// geometry (ShardLen, Offsets, CRC32) is left for WriteGroup to recompute
// against the output partition.
func (s *shardSource) group(gi int) (*zero.GroupShard, ckpt.ShardGroupMeta, error) {
	if len(s.files) == 1 {
		return s.files[0].GroupByIndex(gi)
	}
	shards := make([]*zero.GroupShard, len(s.files))
	var meta ckpt.ShardGroupMeta
	for r, f := range s.files {
		sh, m, err := f.GroupByIndex(gi)
		if err != nil {
			return nil, ckpt.ShardGroupMeta{}, err
		}
		if r == 0 {
			meta = m
		} else if m.Numel != meta.Numel {
			return nil, ckpt.ShardGroupMeta{}, fmt.Errorf("tailor: group %d numel differs across source ranks (%d vs %d)", gi, m.Numel, meta.Numel)
		}
		shards[r] = sh
	}
	out, err := zero.Reshard(shards, meta.Numel, s.world)
	if err != nil {
		return nil, ckpt.ShardGroupMeta{}, fmt.Errorf("tailor: reshard group %d from world %d to %d: %w", gi, len(s.files), s.world, err)
	}
	return out[s.rank], ckpt.ShardGroupMeta{
		Index: meta.Index, Numel: meta.Numel, NoDecay: meta.NoDecay, Layer: meta.Layer,
	}, nil
}

// buildRankShards gathers rank's shard of every layout group from the
// assigned sources, honouring the requested load order. It returns the
// shards in layout order, their metadata, the maximum source step, the
// number of shard-file loads performed and the bytes those loads read.
func buildRankShards(plan *Plan, order LoadOrder, rank int) (
	[]*zero.GroupShard, []ckpt.ShardGroupMeta, int, int64, int64, error) {

	nGroups := plan.Layout.NumGroups()
	shards := make([]*zero.GroupShard, nGroups)
	metas := make([]ckpt.ShardGroupMeta, nGroups)
	var loads, readBytes int64
	maxStep := 0

	extract := func(src *shardSource, ref modelcfg.LayerRef) error {
		groups, err := plan.Layout.GroupsOfLayer(ref)
		if err != nil {
			return err
		}
		for _, gi := range groups {
			s, m, err := src.group(gi)
			if err != nil {
				return fmt.Errorf("tailor: layer %s: %w", ref, err)
			}
			if m.Numel != plan.Layout.Groups[gi].Numel {
				return fmt.Errorf("tailor: layer %s group %d numel %d != layout %d", ref, gi, m.Numel, plan.Layout.Groups[gi].Numel)
			}
			shards[gi] = s
			metas[gi] = m
		}
		if src.step > maxStep {
			maxStep = src.step
		}
		return nil
	}

	switch order {
	case Straightforward:
		// One load per (source, rank); extract all of that source's layers.
		bySrc := map[string][]modelcfg.LayerRef{}
		for ref, path := range plan.Assign {
			bySrc[path] = append(bySrc[path], ref)
		}
		// Deterministic source order.
		for _, path := range plan.Recipe.Checkpoints() {
			refs, ok := bySrc[path]
			if !ok {
				continue
			}
			src, err := loadShardSource(plan, path, rank)
			if err != nil {
				return nil, nil, 0, 0, 0, err
			}
			loads += src.loads
			readBytes += src.bytes
			for _, ref := range refs {
				if err := extract(src, ref); err != nil {
					return nil, nil, 0, 0, 0, err
				}
			}
		}
	case Interleaved:
		// Model order; reload the source file for every layer, caching
		// nothing (the paper's worst-case measurement).
		for _, ref := range plan.Config.AllLayers() {
			src, err := loadShardSource(plan, plan.Assign[ref], rank)
			if err != nil {
				return nil, nil, 0, 0, 0, err
			}
			loads += src.loads
			readBytes += src.bytes
			if err := extract(src, ref); err != nil {
				return nil, nil, 0, 0, 0, err
			}
		}
	default:
		return nil, nil, 0, 0, 0, fmt.Errorf("tailor: unknown load order %d", order)
	}

	for gi := range shards {
		if shards[gi] == nil {
			return nil, nil, 0, 0, 0, fmt.Errorf("tailor: rank %d: group %d (%s) never filled", rank, gi, plan.Layout.Groups[gi].Layer)
		}
	}
	return shards, metas, maxStep, loads, readBytes, nil
}

// copyConfigs copies configuration files verbatim from the designated
// source (§4.4) and writes the output manifest. Sources are read through
// the original backend; everything written goes through the transaction's
// recording backend into the staging directory.
func copyConfigs(b, out storage.Backend, outDir string, plan *Plan, stats *Stats) error {
	src := plan.Recipe.ConfigsSource()
	for _, f := range []string{"config.json", "trainer_state.json"} {
		data, err := b.ReadFile(src + "/" + f)
		if err != nil {
			return fmt.Errorf("tailor: copy %s: %w", f, err)
		}
		if err := out.WriteFile(outDir+"/"+f, data); err != nil {
			return err
		}
		stats.BytesRead += int64(len(data))
		stats.BytesWritten += int64(len(data))
	}

	man := ckpt.Manifest{
		Step:     plan.Sources[src].State.Step,
		Strategy: "tailor-merge",
		Complete: true,
	}
	if !plan.Recipe.Optimizer {
		man.Strategy = "tailor-merge-weights-only"
	}
	for _, ref := range plan.Config.AllLayers() {
		man.Layers = append(man.Layers, ref.String())
	}
	return writeManifest(out, outDir+"/manifest.json", &man)
}

func writeManifest(b storage.Backend, name string, man *ckpt.Manifest) error {
	data, err := jsonMarshalIndent(man)
	if err != nil {
		return err
	}
	return b.WriteFile(name, data)
}
