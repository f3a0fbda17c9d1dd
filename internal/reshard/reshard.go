// Package reshard implements elastic repartitioning of committed
// checkpoints: a run saved at world-size N becomes a committed checkpoint
// at world-size M, ready to resume on a differently sized fleet
// (ByteCheckpoint's headline capability; see DESIGN.md "Elastic
// resharding").
//
// Only the optimizer shards depend on the world size — consolidated
// weights, config and manifest are world-size independent — so the
// transform is pure zero.Partition math: for every parameter group the
// unpadded flat vector [0, numel) is the invariant, and each target rank's
// extent [r·s_M, (r+1)·s_M) is assembled by intersecting it with the source
// extents [r'·s_N, (r'+1)·s_N). Because both partitions address the same
// FP32 element grid, every intersection is element-aligned, and each target
// section (master, exp_avg, exp_avg_sq are stored concatenated per shard)
// is a concatenation of byte ranges from source payloads plus synthesized
// zeros for the target's own pad tail — no float ever needs decoding.
//
// Reshard is a feeder of ckpt's write stage (ckpt.Output): the weights and
// every target shard whose partition coincides with its source's (s_N ==
// s_M) go in by reference — the source payload, replayed through its check,
// and not moved at all when a content-addressed output's store already holds
// it — and the rest are computed: stitched from source extents (each source
// group's payload checked once, in one streaming pass, before its first
// target is stitched), or all padding. The write stage reads the weights
// ahead under the Options.MaxInFlight byte gate and writes Options.Workers
// target ranks' shard files side by side, each streaming its shards
// straight into its container, so the bytes in flight are a few weight
// payloads, never the full flat state; the NoRawCopy fallback holds one
// decoded target shard per writing rank, under the same byte cap. The
// source is read through ckpt's read stage (Checkpoint.OptimExtents), so
// plain containers and content-addressed blobs under any codec are the same
// input here, and the output commits like any checkpoint — Scan, Repair,
// doctor, GC and the ref journal treat resharded checkpoints like any
// other, on rename and no-rename backends, plain or content-addressed
// (Options.Dedup).
package reshard

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/optim"
	"llmtailor/internal/parallel"
	"llmtailor/internal/storage"
	"llmtailor/internal/zero"
)

// Options tunes a reshard run.
type Options struct {
	// Workers bounds how many weight payloads are read ahead, and how many
	// target ranks' shard files are written side by side (default 1).
	Workers int
	// ChunkBytes is the streaming I/O chunk size for container writes
	// (default storage.DefaultChunkBytes).
	ChunkBytes int
	// MaxInFlight bounds the weight payload bytes read ahead and not yet
	// written, and the target shards held decoded under NoRawCopy (spliced
	// shards stream straight into their containers). 0 means unbounded;
	// Stats.PeakInFlightBytes reports the high-water mark either way.
	MaxInFlight int64
	// NoRawCopy disables the zero-decode extent-splice path: every target
	// shard is gathered from the source extents in decoded FP32 and encoded
	// again, one shard per writing rank held at a time. Output bytes are
	// identical either way (the golden tests pin this); the knob exists for
	// A/B benchmarking.
	NoRawCopy bool
	// Dedup publishes the output content-addressed, so payloads dedup
	// against the run root's objects/ store.
	Dedup bool
	// NoLatest leaves the run root's "latest" pointer untouched instead of
	// moving it to the resharded output.
	NoLatest bool
}

// Stats reports what a reshard did.
type Stats struct {
	// WorldFrom and WorldTo are the source and target world sizes.
	WorldFrom, WorldTo int
	// Groups is the number of parameter groups repartitioned.
	Groups int
	// GroupsRawCopied counts groups whose every target shard was assembled
	// by extent splicing — no FP32 decode anywhere. GroupsDecoded counts
	// the decode fallback (NoRawCopy).
	GroupsRawCopied int
	GroupsDecoded   int
	// ShardsCarried counts target shards bit-identical to a source shard
	// (s_N == s_M): the source payload taken by reference — replayed through
	// its check, its CRC (and digest) carried forward.
	ShardsCarried int
	// ShardsSpliced counts target shards stitched from two or more source
	// extents (or one partial extent) with the CRC computed during the
	// splice; ShardsZeroed counts all-padding target shards synthesized
	// without touching the source at all.
	ShardsSpliced int
	ShardsZeroed  int
	// BytesRawCopied totals source payload bytes moved by the splice path;
	// BytesDecoded totals payload bytes that went through FP32 decode;
	// BytesZeroFilled totals synthesized pad bytes.
	BytesRawCopied  int64
	BytesDecoded    int64
	BytesZeroFilled int64
	// WeightBytes is the consolidated weights payload copied verbatim.
	WeightBytes int64
	// PeakInFlightBytes is the MaxInFlight gates' high-water mark.
	PeakInFlightBytes int64
	// WallTime is the measured duration.
	WallTime time.Duration
	// DedupifyReport holds the dedup output's counters (Options.Dedup).
	ckpt.DedupifyReport
}

// Reshard transforms the committed checkpoint at srcDir into a committed
// checkpoint at dstDir with the given world size. The source is never
// modified; dstDir must differ from srcDir (an in-place reshard would
// unseal the only copy mid-flight).
func Reshard(b storage.Backend, srcDir, dstDir string, world int, opts Options) (*Stats, error) {
	start := time.Now()
	if world < 1 {
		return nil, fmt.Errorf("reshard: target world size %d", world)
	}
	if dstDir == srcDir {
		return nil, fmt.Errorf("reshard: output %s would replace the source in place; pick a different directory", dstDir)
	}
	c, err := ckpt.Open(b, srcDir)
	if err != nil {
		return nil, fmt.Errorf("reshard: open source: %w", err)
	}
	if !c.Manifest.Complete {
		return nil, fmt.Errorf("reshard: %s is a partial checkpoint (strategy %s); merge it into a complete one first", srcDir, c.Manifest.Strategy)
	}
	worldFrom := c.State.WorldSize
	if worldFrom < 1 {
		return nil, fmt.Errorf("reshard: source world size %d", worldFrom)
	}
	stats := &Stats{WorldFrom: worldFrom, WorldTo: world}

	// Layout re-validation: rebuild the optimizer layout from the source's
	// config and check every recorded group against it before trusting any
	// recorded geometry.
	layout, err := c.Layout()
	if err != nil {
		return nil, fmt.Errorf("reshard: %w", err)
	}
	srcs, optimStep, err := openGroupSources(c, layout)
	if err != nil {
		return nil, err
	}
	stats.Groups = len(srcs)

	// Weights are world-size independent: the source's payloads verbatim,
	// in stored order (byte-identical to the source's, and to what a native
	// save at the target world size writes).
	out := ckpt.NewOutput(c.Weights().Model())
	stats.WeightBytes = out.Weights(c.Weights())
	gate := parallel.NewByteGate(opts.MaxInFlight)
	if err := repartition(out, layout, srcs, optimStep, world, opts, gate, stats); err != nil {
		return nil, err
	}
	// The trailer: config verbatim, the trainer state at the target world
	// size (every other field untouched), the source's manifest.
	tr := &ckpt.Trailer{Manifest: c.Manifest, Step: c.State.Step}
	if tr.Config, err = b.ReadFile(c.Dir + "/config.json"); err != nil {
		return nil, fmt.Errorf("reshard: copy config: %w", err)
	}
	st := c.State
	st.WorldSize = world
	if tr.State, err = ckpt.EncodeJSON(&st); err != nil {
		return nil, err
	}
	rep, err := out.Commit(b, dstDir, tr, ckpt.OutputOptions{Dedup: opts.Dedup, Latest: !opts.NoLatest,
		Workers: opts.Workers, MaxInFlight: opts.MaxInFlight, ChunkBytes: opts.ChunkBytes})
	if err != nil {
		return nil, err
	}
	stats.DedupifyReport = rep.DedupifyReport
	// A plain output writes the weights before its first shard is decoded,
	// so the two gates never hold bytes at once.
	stats.PeakInFlightBytes = max(rep.PeakInFlightBytes, gate.Peak())
	stats.WallTime = time.Since(start)
	return stats, nil
}

// openGroupSources lists every rank's stored groups (ckpt.OptimExtents: an
// extent of the rank's LTOS file or a group blob, the same to this package)
// and validates them against each other and the layout: same step, same
// group sequence, shard lengths exactly what zero.Partition dictates, and
// per-group geometry matching the layout rebuilt from config. It returns
// srcs[group][rank] in rank 0's (canonical) group order, and the recorded
// optimizer step count (the LTOS header step, distinct from the trainer step
// — it feeds AdamW's bias correction on restore, so it must survive the
// reshard verbatim).
func openGroupSources(c *ckpt.Checkpoint, layout *optim.Layout) ([][]ckpt.GroupExtent, int, error) {
	worldFrom := c.State.WorldSize
	perRank := make([][]ckpt.GroupExtent, worldFrom)
	step := -1
	for r := 0; r < worldFrom; r++ {
		groups, rstep, err := c.OptimExtents(r)
		if err != nil {
			return nil, 0, fmt.Errorf("reshard: rank %d: %w", r, err)
		}
		if step < 0 {
			step = rstep
		} else if rstep != step {
			return nil, 0, fmt.Errorf("reshard: rank %d at step %d, rank 0 at %d", r, rstep, step)
		}
		perRank[r] = groups
	}

	// Cross-rank and layout validation against rank 0's canonical order. A
	// complete checkpoint stores exactly the layout's groups in index order.
	canon := perRank[0]
	if len(canon) != layout.NumGroups() {
		return nil, 0, fmt.Errorf("reshard: source has %d groups, layout %d — partial shard files cannot reshard", len(canon), layout.NumGroups())
	}
	for gi, m := range canon {
		if m.Index != gi {
			return nil, 0, fmt.Errorf("reshard: group %d stored at position %d; complete checkpoints store groups in index order", m.Index, gi)
		}
		lg, err := layout.GroupByIndex(m.Index)
		if err != nil {
			return nil, 0, fmt.Errorf("reshard: %w", err)
		}
		wantLayer := ""
		if lg.HasLayer {
			wantLayer = lg.Layer.String()
		}
		if m.Numel != lg.Numel || m.NoDecay != lg.NoDecay || m.Layer != wantLayer {
			return nil, 0, fmt.Errorf("reshard: group %d metadata (numel %d, no_decay %v, layer %q) disagrees with layout (numel %d, no_decay %v, layer %q)",
				gi, m.Numel, m.NoDecay, m.Layer, lg.Numel, lg.NoDecay, wantLayer)
		}
		p, err := zero.NewPartition(m.Numel, worldFrom)
		if err != nil {
			return nil, 0, fmt.Errorf("reshard: group %d: %w", gi, err)
		}
		pShard := p.ShardLen()
		for r := 0; r < worldFrom; r++ {
			if gi >= len(perRank[r]) {
				return nil, 0, fmt.Errorf("reshard: rank %d is missing group %d", r, gi)
			}
			rm := perRank[r][gi]
			if rm.Index != m.Index || rm.Numel != m.Numel || rm.ShardLen != pShard {
				return nil, 0, fmt.Errorf("reshard: rank %d group %d geometry (numel %d, shard %d) disagrees with rank 0 (numel %d, shard %d)",
					r, gi, rm.Numel, rm.ShardLen, m.Numel, pShard)
			}
		}
	}
	for r := 1; r < worldFrom; r++ {
		if len(perRank[r]) != len(canon) {
			return nil, 0, fmt.Errorf("reshard: rank %d stores %d groups, rank 0 stores %d", r, len(perRank[r]), len(canon))
		}
	}

	srcs := make([][]ckpt.GroupExtent, len(canon))
	for gi := range canon {
		srcs[gi] = make([]ckpt.GroupExtent, worldFrom)
		for r := 0; r < worldFrom; r++ {
			srcs[gi][r] = perRank[r][gi]
		}
	}
	return srcs, step, nil
}

// repartition adds every target rank's shard of every group, rank by rank.
// A shard whose partition coincides with its source's is the source payload,
// by reference; one past the data is all padding; the rest are stitched
// from source extents — or, under NoRawCopy, every shard is decoded from
// them to FP32 and encoded again, admitted under gate while it is held —
// each group's sources checked once, whole, before the first is computed.
func repartition(out *ckpt.Output, layout *optim.Layout, srcs [][]ckpt.GroupExtent, optimStep, world int, opts Options, gate *parallel.ByteGate, stats *Stats) error {
	type plan struct {
		pN, pM zero.Partition
		check  func() error
	}
	plans := make([]plan, len(srcs))
	for gi, src := range srcs {
		numel, worldFrom := src[0].Numel, len(src)
		pN, err := zero.NewPartition(numel, worldFrom)
		if err == nil {
			plans[gi].pM, err = zero.NewPartition(numel, world)
		}
		if err != nil {
			return fmt.Errorf("reshard: group %d: %w", gi, err)
		}
		plans[gi].pN = pN
		plans[gi].check = sync.OnceValue(func() error {
			for _, e := range src {
				if err := e.Replay(io.Discard); err != nil {
					return fmt.Errorf("reshard: group %d: %w", e.Index, err)
				}
			}
			return nil
		})
		if opts.NoRawCopy {
			stats.GroupsDecoded++
		} else {
			stats.GroupsRawCopied++
		}
	}
	for rm := 0; rm < world; rm++ {
		r := out.Rank(rm, world, optimStep, layout.Kind)
		for gi, src := range srcs {
			pl := plans[gi]
			m := src[0].ShardGroupMeta
			sN, sM := pl.pN.ShardLen(), pl.pM.ShardLen()
			meta := ckpt.ShardGroupMeta{Index: m.Index, Numel: m.Numel, ShardLen: sM, NoDecay: m.NoDecay, Layer: m.Layer}
			lo, hi := pl.pM.Range(rm)
			dataHi := min(hi, m.Numel)
			switch {
			case opts.NoRawCopy:
				// The decoded shard, plus one section's read buffer.
				cost := sM * 16
				r.ComputeGroup(meta, func(w io.Writer) (int64, error) {
					if err := pl.check(); err != nil {
						return 0, err
					}
					gate.Acquire(cost)
					defer gate.Release(cost)
					s, err := decodeShard(src, sN, lo, hi, dataHi, rm)
					if err != nil {
						return 0, err
					}
					return ckpt.EncodeGroup(w, s)
				})
				stats.BytesDecoded += (dataHi - lo + sM) * 12
			case sM == sN && rm < len(src):
				// Identical extent: the shard is the source payload bit for bit.
				if err := r.Group(src[rm]); err != nil {
					return err
				}
				stats.ShardsCarried++
				stats.BytesRawCopied += sM * 12
			case lo >= m.Numel:
				// Entirely past the data: an all-padding shard, synthesized.
				r.ComputeGroup(meta, func(w io.Writer) (int64, error) { return writeZeros(w, sM*12) })
				stats.ShardsZeroed++
				stats.BytesZeroFilled += sM * 12
			default:
				r.ComputeGroup(meta, func(w io.Writer) (int64, error) {
					if err := pl.check(); err != nil {
						return 0, err
					}
					return spliceShard(w, src, sN, lo, hi, dataHi)
				})
				stats.ShardsSpliced++
				stats.BytesRawCopied += (dataHi - lo) * 12
				stats.BytesZeroFilled += (hi - dataHi) * 12
			}
		}
	}
	return nil
}

// readExtents walks the source byte ranges holding elements [lo, dataHi) of
// one section (0 master, 1 exp_avg, 2 exp_avg_sq), in element order: the
// intersections of the target range with the source extents, always
// element-aligned because both partitions address the same FP32 grid. fn
// gets each range's reader, first element and element count.
func readExtents(srcs []ckpt.GroupExtent, sN, lo, dataHi, section int64, fn func(r io.Reader, at, n int64) error) error {
	for cur := lo; cur < dataHi; {
		rn := cur / sN
		segHi := min((rn+1)*sN, dataHi)
		rc, err := srcs[rn].OpenRange(section*sN*4+(cur-rn*sN)*4, (segHi-cur)*4)
		if err == nil {
			err = fn(rc, cur, segHi-cur)
			if cerr := rc.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("reshard: group %d: read extent from source rank %d: %w", srcs[rn].Index, rn, err)
		}
		cur = segHi
	}
	return nil
}

// spliceShard is the zero-decode path: one target shard's three sections —
// elements [lo, hi) of the group, data up to dataHi — stitched from byte
// extents of the source payloads, with zeros for the target's pad tail.
// Source pad bytes are never read — padding moves with the partition.
func spliceShard(w io.Writer, srcs []ckpt.GroupExtent, sN, lo, hi, dataHi int64) (int64, error) {
	var n int64
	for k := int64(0); k < 3; k++ {
		err := readExtents(srcs, sN, lo, dataHi, k, func(r io.Reader, _, _ int64) error {
			c, err := io.Copy(w, r)
			n += c
			return err
		})
		if err != nil {
			return n, err
		}
		c, err := writeZeros(w, (hi-dataHi)*4)
		if n += c; err != nil {
			return n, err
		}
	}
	return n, nil
}

var zeros [4096]byte

func writeZeros(w io.Writer, n int64) (int64, error) {
	var total int64
	for total < n {
		k, err := w.Write(zeros[:min(n-total, int64(len(zeros)))])
		if total += int64(k); err != nil {
			return total, err
		}
	}
	return total, nil
}

// decodeShard is the decode fallback for target rank rm: the same extents
// the splice stitches, decoded to FP32 and gathered into the target's
// sections, its pad tail left zero. Bit-identical to the splice by
// construction; TestReshardDecodeMatchesSplice pins it.
func decodeShard(srcs []ckpt.GroupExtent, sN, lo, hi, dataHi int64, rm int) (*zero.GroupShard, error) {
	s := &zero.GroupShard{GroupIndex: srcs[0].Index, Rank: rm}
	for k, sec := range []*[]float32{&s.Master, &s.ExpAvg, &s.ExpAvgSq} {
		*sec = make([]float32, hi-lo)
		err := readExtents(srcs, sN, lo, dataHi, int64(k), func(r io.Reader, at, n int64) error {
			return binary.Read(r, binary.LittleEndian, (*sec)[at-lo:at-lo+n])
		})
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}
