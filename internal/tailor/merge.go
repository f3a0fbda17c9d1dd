package tailor

import (
	"fmt"
	"io"
	"slices"
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
	// Workers bounds how many tensors are read (or converted) ahead of the
	// output's weights container, and how many of the output's containers
	// are written — a rank's shard files loaded — side by side (default 1;
	// the paper's multiprocessing corresponds to >1).
	Workers int
	// LoadOrder selects shard-file loading behaviour (default
	// Straightforward).
	LoadOrder LoadOrder
	// ChunkBytes is the streaming I/O chunk size for container writes
	// (0: storage.ChunkOrDefault's 256 KiB).
	ChunkBytes int
	// MaxInFlight bounds the tensor payload bytes read ahead and not yet
	// written to the output container (groups stream straight into theirs).
	// 0 (default) means unbounded; Stats.PeakInFlightBytes reports the
	// high-water mark either way.
	MaxInFlight int64
	// DedupOutput publishes the merged checkpoint content-addressed into the
	// output's run root store, deduplicated against existing blobs: a
	// payload taken by reference from a content-addressed source in the same
	// store moves no bytes. Stats gains the blob counters.
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
	// BytesRead counts payload and container bytes taken from sources
	// (weight tensor payloads, whole shard files, groups taken by reference
	// or spliced, the source payloads a splice checks whole, copied
	// configs).
	BytesRead int64
	// BytesWritten counts bytes of output containers and configs.
	BytesWritten int64
	// PeakInFlightBytes is the high-water mark of tensor payload bytes read
	// ahead of the output container writes — the quantity
	// Options.MaxInFlight bounds.
	PeakInFlightBytes int64
	// TensorsRawCopied counts weight tensors taken by reference: the source
	// payload replayed through its check into the output, no decode or
	// re-encode. A subset of TensorsRead.
	TensorsRawCopied int
	// BytesRawCopied totals the payload bytes taken by reference, tensors
	// and optimizer groups alike. Groups taken by reference are never
	// counted in ShardFileLoads — that counter tracks full decode loads, the
	// Table 7 cost.
	BytesRawCopied int64
	// BlobReport holds the dedup output's counters
	// (Options.DedupOutput): BlobsPut, BlobsReused, BlobBytesWritten and
	// BytesDeduped.
	ckpt.BlobReport
}

// Merge executes a recipe end to end and returns merge statistics. Blend
// methods (linear, slerp) take the weights-only path; passthrough builds and
// executes a full layer-level plan including optimizer state.
func Merge(b storage.Backend, r *recipe.Recipe, opts Options) (*Stats, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if r.IsBlend() {
		return mergeBlend(b, r, opts)
	}
	plan, err := NewPlan(b, r)
	if err != nil {
		return nil, err
	}
	return Execute(b, plan, opts)
}

// Execute runs a previously validated plan: it fills a ckpt.Output with the
// plan's weights and optimizer groups and commits it under the same write
// stage as ckpt.Save — staged, sealed with a COMMITTED marker and published
// before the latest pointer moves, so a merge that crashes mid-flight leaves
// sources and any previous output untouched.
func Execute(b storage.Backend, plan *Plan, opts Options) (*Stats, error) {
	start := time.Now()
	stats := &Stats{CheckpointsUsed: len(plan.Sources)}
	out := ckpt.NewOutput(plan.Config.Name)
	if err := mergeWeights(out, plan, stats); err != nil {
		return nil, err
	}
	var loads loadCounter
	if plan.Recipe.Optimizer {
		if err := mergeOptimizer(out, plan, opts, stats, &loads); err != nil {
			return nil, err
		}
	}
	src := plan.Recipe.ConfigsSource()
	man := ckpt.Manifest{
		Step:     plan.Sources[src].State.Step,
		Strategy: "tailor-merge",
		Complete: true,
	}
	if !plan.Recipe.Optimizer {
		man.Strategy = "tailor-merge-weights-only"
	}
	// The latest pointer moves so resume tooling finds the merged checkpoint.
	// For a single-segment Output ("merged") the run root is the backend root
	// itself, so the pointer lands at the root-level "latest" — see
	// ckpt.LatestPointerPath.
	if err := commit(b, out, plan.Config, plan.Recipe.Output, src, man, true, opts, stats); err != nil {
		return nil, err
	}
	stats.ShardFileLoads = loads.files.Load()
	stats.BytesRead += loads.bytes.Load()
	stats.WallTime = time.Since(start)
	return stats, nil
}

// commit takes config.json and trainer_state.json verbatim from cfgSrc
// (§4.4), lists every layer in the manifest and commits the output.
func commit(b storage.Backend, out *ckpt.Output, cfg *modelcfg.Config, output, cfgSrc string, man ckpt.Manifest, latest bool, opts Options, stats *Stats) error {
	tr := &ckpt.Trailer{Manifest: man, Step: man.Step}
	for _, ref := range cfg.AllLayers() {
		tr.Manifest.Layers = append(tr.Manifest.Layers, ref.String())
	}
	for _, f := range []struct {
		name string
		into *[]byte
	}{{"config.json", &tr.Config}, {"trainer_state.json", &tr.State}} {
		data, err := b.ReadFile(cfgSrc + "/" + f.name)
		if err != nil {
			return fmt.Errorf("tailor: copy %s: %w", f.name, err)
		}
		*f.into = data
		stats.BytesRead += int64(len(data))
		stats.BytesWritten += int64(len(data))
	}
	rep, err := out.Commit(b, output, tr, ckpt.OutputOptions{Dedup: opts.DedupOutput, Latest: latest,
		Workers: opts.Workers, MaxInFlight: opts.MaxInFlight, ChunkBytes: opts.ChunkBytes})
	if err != nil {
		return err
	}
	stats.BlobReport = rep.BlobReport
	stats.BytesRead += rep.BytesChecked
	stats.BytesWritten += rep.BytesWritten
	stats.PeakInFlightBytes = rep.PeakInFlightBytes
	return nil
}

// outputDType parses a recipe's output dtype (default BF16).
func outputDType(name string) (tensor.DType, error) {
	if name == "" {
		return tensor.BF16, nil
	}
	return tensor.ParseDType(name)
}

// mergeWeights adds every output tensor, in model order, from its assigned
// source: by reference when its stored dtype already matches the output
// dtype (the source payload replayed through its check, never decoded),
// converted otherwise: from its master weights when the optimizer is kept, so
// it stays its master's rounding, else decoded from the stored weight.
func mergeWeights(out *ckpt.Output, plan *Plan, stats *Stats) error {
	outDType, err := outputDType(plan.Recipe.DType)
	if err != nil {
		return err
	}
	// extents[path][gi] holds group gi's extents on every rank of path.
	extents := map[string]map[int][]ckpt.GroupExtent{}
	for _, spec := range plan.Config.Tensors() {
		path := plan.Assign[spec.Layer]
		src := plan.Sources[path].Weights()
		size, _ := src.PayloadSize(spec.Name)
		stats.TensorsRead++
		raw, err := out.Tensor(src, spec.Name, outDType)
		if err != nil {
			return fmt.Errorf("tailor: raw read %s from %s: %w", spec.Name, path, err)
		}
		if raw {
			stats.BytesRead += size
			stats.TensorsRawCopied++
			stats.BytesRawCopied += size
			continue
		}
		if plan.Recipe.Optimizer {
			seg, err := plan.Layout.SegmentOf(spec.Name)
			if err == nil && extents[path] == nil {
				extents[path], _, err = groupExtents(plan.Sources[path])
			}
			if err == nil {
				size, err = out.MasterTensor(spec.Name, outDType, spec.Shape, extents[path][seg.Group], seg.Offset)
			}
			if err != nil {
				return fmt.Errorf("tailor: %s from %s: %w", spec.Name, path, err)
			}
			stats.BytesRead += size
			continue
		}
		stats.BytesRead += size
		out.ComputeTensor(spec.Name, outDType, spec.Shape, weightCost(src, spec, outDType), func() (*tensor.Tensor, error) {
			t, err := src.ReadTensor(spec.Name)
			if err != nil {
				return nil, fmt.Errorf("tailor: read %s from %s: %w", spec.Name, path, err)
			}
			if t.DType != outDType {
				t = t.Convert(outDType)
			}
			return t, nil
		})
	}
	return nil
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

// loadCounter counts the whole shard-file loads the output's computed groups
// cause while it is written.
type loadCounter struct {
	files, bytes atomic.Int64
}

// mergeOptimizer adds one output rank per plan rank, each group in layout
// order from the source its layer is assigned to. A group goes in from its
// source's stored extents (fromExtents) — by reference, or spliced across a
// world-size change: no load, no decode — or is computed from its source's
// shard files, which the rank loads whole (§5.4) once, per Options.LoadOrder,
// when its first computed group is written, and drops after the last. The
// output writes Options.Workers of its containers side by side, the
// weights' among them, so the loads of up to Options.Workers ranks overlap.
func mergeOptimizer(out *ckpt.Output, plan *Plan, opts Options, stats *Stats, loads *loadCounter) error {
	owner := make([]string, plan.Layout.NumGroups())
	for ref, path := range plan.Assign {
		groups, err := plan.Layout.GroupsOfLayer(ref)
		if err != nil {
			return err
		}
		for _, gi := range groups {
			owner[gi] = path
		}
	}
	// extents[path][gi] holds group gi's extents on every rank of path.
	extents := map[string]map[int][]ckpt.GroupExtent{}
	refStep := 0
	for _, path := range plan.Recipe.Checkpoints() {
		if !fromExtents(plan, path) {
			continue
		}
		byGroup, step, err := groupExtents(plan.Sources[path])
		if err != nil {
			return fmt.Errorf("tailor: %s: %w", path, err)
		}
		refStep = max(refStep, step)
		extents[path] = byGroup
	}
	for rank := 0; rank < plan.WorldSize; rank++ {
		r := out.Rank(rank, plan.WorldSize, refStep, plan.Layout.Kind)
		// The rank's checked group bytes from the sources it loads whole,
		// held from its first computed group to its last.
		load := &parallel.Lease[[][]byte]{Load: func() ([][]byte, error) {
			groups, step, n, readBytes, err := buildRankShards(plan, opts.LoadOrder, rank,
				func(path string) bool { return extents[path] == nil })
			if err != nil {
				return nil, err
			}
			loads.files.Add(n)
			loads.bytes.Add(readBytes)
			r.SetStep(max(refStep, step))
			return groups, nil
		}}
		for gi, g := range plan.Layout.Groups {
			if byGroup, ok := extents[owner[gi]]; ok {
				raw, _, err := r.Group(byGroup[gi])
				if err != nil {
					return fmt.Errorf("tailor: %s group %d: %w", owner[gi], gi, err)
				}
				stats.BytesRead += raw
				stats.BytesRawCopied += raw
				continue
			}
			part, err := zero.NewPartition(g.Numel, plan.WorldSize)
			if err != nil {
				return fmt.Errorf("tailor: group %d: %w", gi, err)
			}
			load.Uses++
			meta := ckpt.ShardGroupMeta{Index: g.Index, Numel: g.Numel, ShardLen: part.ShardLen(), NoDecay: g.NoDecay, Layer: g.Layer.String()}
			r.ComputeGroup(meta, func(w io.Writer) (int64, error) {
				groups, err := load.Get()
				if err != nil {
					return 0, err
				}
				defer load.Done()
				n, err := w.Write(groups[gi])
				return int64(n), err
			})
		}
	}
	return nil
}

// groupExtents lists each of c's groups' stored extents on every rank, by
// group index, and the highest optimizer step a rank records.
func groupExtents(c *ckpt.Checkpoint) (map[int][]ckpt.GroupExtent, int, error) {
	byGroup := map[int][]ckpt.GroupExtent{}
	refStep := 0
	for rank := 0; rank < c.WorldSize(); rank++ {
		groups, step, err := c.OptimExtents(rank)
		if err != nil {
			return nil, 0, err
		}
		refStep = max(refStep, step)
		for _, g := range groups {
			byGroup[g.Index] = append(byGroup[g.Index], g)
		}
	}
	return byGroup, refStep, nil
}

// fromExtents reports whether the groups path contributes go into the output
// from their stored extents (OutputRank.Group) rather than out of its shard
// files loaded whole: across a world-size change always (spliced), else from
// a content-addressed source always, and from a plain one when it is the
// whole passthrough's only source (by reference).
func fromExtents(plan *Plan, path string) bool {
	if _, resharded := plan.Resharded[path]; resharded {
		return true
	}
	if plan.Sources[path].ContentAddressed() {
		return true
	}
	for _, p := range plan.Assign {
		if p != path {
			return false
		}
	}
	return true
}

// buildRankShards gathers rank's shard of every layout group the sources
// loaded selects are assigned — the checked payload bytes, as stored — each
// source's rank file loaded whole and held to Restore's checks
// (Checkpoint.ReadOptimShard), honouring the requested load order. It returns
// the bytes by layout index (nil where another source provides the group),
// the maximum source step, the number of shard-file loads performed and the
// bytes those loads read.
func buildRankShards(plan *Plan, order LoadOrder, rank int, loaded func(path string) bool) (
	[][]byte, int, int64, int64, error) {

	groups := make([][]byte, plan.Layout.NumGroups())
	var loads, readBytes int64
	maxStep := 0

	// load reads path's file of the rank, keeping the groups of refs.
	load := func(path string, refs ...modelcfg.LayerRef) error {
		var want []int
		for _, ref := range refs {
			gis, err := plan.Layout.GroupsOfLayer(ref)
			if err != nil {
				return err
			}
			want = append(want, gis...)
		}
		sb, err := plan.Sources[path].ReadOptimShard(rank, func(gi int) bool { return slices.Contains(want, gi) })
		if err != nil {
			return fmt.Errorf("tailor: %s: %w", path, err)
		}
		loads++
		readBytes += sb.FileBytes
		maxStep = max(maxStep, sb.Step)
		for _, gi := range want {
			if groups[gi] = sb.Groups[gi]; groups[gi] == nil {
				return fmt.Errorf("tailor: %s: rank %d shard has no group %d", path, rank, gi)
			}
		}
		return nil
	}

	switch order {
	case Straightforward:
		// One load per (source, rank), keeping all of that source's layers.
		bySrc := map[string][]modelcfg.LayerRef{}
		for ref, path := range plan.Assign {
			if loaded(path) {
				bySrc[path] = append(bySrc[path], ref)
			}
		}
		// Deterministic source order.
		for _, path := range plan.Recipe.Checkpoints() {
			if refs, ok := bySrc[path]; ok {
				if err := load(path, refs...); err != nil {
					return nil, 0, 0, 0, err
				}
			}
		}
	case Interleaved:
		// Model order; reload the source file for every layer, caching
		// nothing (the paper's worst-case measurement).
		for _, ref := range plan.Config.AllLayers() {
			if !loaded(plan.Assign[ref]) {
				continue
			}
			if err := load(plan.Assign[ref], ref); err != nil {
				return nil, 0, 0, 0, err
			}
		}
	default:
		return nil, 0, 0, 0, fmt.Errorf("tailor: unknown load order %d", order)
	}
	return groups, maxStep, loads, readBytes, nil
}
