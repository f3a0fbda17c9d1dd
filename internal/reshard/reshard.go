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
// zeros for the target's own pad tail — no float ever needs decoding. The
// transform streams group by group through parallel.Pipeline under a
// ByteGate, so peak memory is a few groups' target shards, never the full
// flat state.
//
// When the two partitions coincide on a shard (s_N == s_M, which happens
// whenever ceil(numel/N) == ceil(numel/M)), the target payload is the
// source payload bit for bit and its CRC is carried forward without
// recomputation, per the raw-splice surfaces (ShardFileWriter.AppendRawGroup).
//
// The source is read through ckpt's read stage (Weights.SpliceLTSF,
// Checkpoint.OptimExtents), so plain containers and content-addressed blobs
// under any codec are the same input here.
//
// The output commits through the standard stage → seal → publish protocol
// (ckpt.Begin/Commit), so Scan, Repair, doctor, GC and the ref journal all
// treat resharded checkpoints like any other, on rename and no-rename
// backends alike. With Options.Dedup the staged output is made
// content-addressed before it commits; unchanged payloads (all weight tensors, and any
// group shard whose extent aligns) dedup against existing blobs by content
// address.
package reshard

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/optim"
	"llmtailor/internal/parallel"
	"llmtailor/internal/storage"
	"llmtailor/internal/zero"
)

// Options tunes a reshard run.
type Options struct {
	// Workers bounds the group-assembly parallelism (default 1).
	Workers int
	// ChunkBytes is the streaming I/O chunk size for container writes
	// (default storage.DefaultChunkBytes).
	ChunkBytes int
	// MaxInFlight bounds the payload bytes of groups admitted into the
	// pipeline and not yet written. 0 means unbounded;
	// Stats.PeakInFlightBytes reports the high-water mark either way.
	MaxInFlight int64
	// NoRawCopy disables the zero-decode extent-splice path, forcing every
	// group through gather → repartition in decoded FP32. Output bytes are
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
	// the gather → repartition fallback (NoRawCopy).
	GroupsRawCopied int
	GroupsDecoded   int
	// ShardsCarried counts target shards bit-identical to a source shard
	// (s_N == s_M): their payloads stream through verbatim and the source
	// CRC is carried forward without recomputation.
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
	// PeakInFlightBytes is the byte gate's high-water mark.
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

	txn, err := ckpt.Begin(b, dstDir)
	if err != nil {
		return nil, err
	}
	defer txn.Abort()
	sb, staging := txn.Backend(), txn.Dir()

	// Weights are world-size independent: the staged model.ltsf is the
	// source's payloads verbatim, in stored order (byte-identical to the
	// source's, and to what a native save at the target world size writes).
	if stats.WeightBytes, err = c.Weights().SpliceLTSF(sb, staging+"/model.ltsf", opts.ChunkBytes); err != nil {
		return nil, fmt.Errorf("reshard: copy weights: %w", err)
	}
	if err := repartition(layout, srcs, optimStep, sb, staging, world, opts, stats); err != nil {
		return nil, err
	}
	if err := writeTrailer(b, c, sb, staging, world); err != nil {
		return nil, err
	}
	// Content addressing is what implements the dedup composition: every
	// weight blob and every aligned group shard of the staged output
	// hashes to an existing digest and is reused, not rewritten.
	if stats.DedupifyReport, err = txn.Publish(c.State.Step, !opts.NoLatest, opts.Dedup); err != nil {
		return nil, err
	}
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

// groupOut is one repartitioned group: every target rank's assembled
// payload and finished metadata (CRC computed during the splice, or carried
// forward when the shard streamed through whole).
type groupOut struct {
	metas   []ckpt.ShardGroupMeta
	data    [][]byte
	raw     bool
	carried int
	spliced int
	zeroed  int
	rawIn   int64
	decIn   int64
	zeros   int64
}

// repartition streams every group through the pipeline: workers assemble
// all M target shards of one group (extent splice or decode fallback), the
// ordered sink appends them to the M open shard-file writers. The byte gate
// bounds assembled-but-unwritten payload.
func repartition(layout *optim.Layout, srcs [][]ckpt.GroupExtent, optimStep int,
	sb storage.Backend, staging string, world int, opts Options, stats *Stats) error {

	// Every rank's payload size is known from the layout alone: reserve it
	// upfront so in-memory spools allocate once instead of growing move by
	// move under 12×ShardLen-sized appends.
	var rankPayload int64
	for _, src := range srcs {
		pM, err := zero.NewPartition(src[0].Numel, world)
		if err != nil {
			return err
		}
		rankPayload += 12 * pM.ShardLen()
	}

	writers := make([]*ckpt.ShardFileWriter, world)
	for rm := 0; rm < world; rm++ {
		w, err := ckpt.NewShardFileWriter(sb, staging+"/"+ckpt.ShardFileName(rm),
			rm, world, optimStep, layout.Kind, opts.ChunkBytes)
		if err != nil {
			return err
		}
		defer w.Abort()
		w.Preallocate(rankPayload)
		writers[rm] = w
	}

	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	gate := parallel.NewByteGate(opts.MaxInFlight)
	pipe := parallel.NewPipeline(workers, workers,
		func(gi int) (groupOut, error) {
			return assembleGroup(srcs[gi][0].ShardGroupMeta, srcs[gi], world, opts)
		},
		func(out groupOut) error {
			for rm := 0; rm < world; rm++ {
				m := out.metas[rm]
				if err := writers[rm].AppendRawGroup(m, int64(len(out.data[rm])), bytes.NewReader(out.data[rm])); err != nil {
					return err
				}
			}
			if out.raw {
				stats.GroupsRawCopied++
			} else {
				stats.GroupsDecoded++
			}
			stats.ShardsCarried += out.carried
			stats.ShardsSpliced += out.spliced
			stats.ShardsZeroed += out.zeroed
			stats.BytesRawCopied += out.rawIn
			stats.BytesDecoded += out.decIn
			stats.BytesZeroFilled += out.zeros
			return nil
		})

	for gi, src := range srcs {
		pM, err := zero.NewPartition(src[0].Numel, world)
		if err != nil {
			pipe.Close()
			return fmt.Errorf("reshard: group %d: %w", gi, err)
		}
		// In-flight cost: the M assembled target shards, plus the decoded
		// full group the fallback path holds transiently.
		cost := pM.Padded * 12
		if opts.NoRawCopy {
			cost *= 2
		}
		gate.Acquire(cost)
		released := cost
		if err := pipe.PushWithCleanup(gi, func() { gate.Release(released) }); err != nil {
			gate.Release(cost)
			break
		}
	}
	if err := pipe.Close(); err != nil {
		return err
	}
	for rm := 0; rm < world; rm++ {
		if err := writers[rm].Close(); err != nil {
			return err
		}
	}
	if p := gate.Peak(); p > stats.PeakInFlightBytes {
		stats.PeakInFlightBytes = p
	}
	return nil
}

// assembleGroup builds every target rank's payload for one group.
func assembleGroup(m ckpt.ShardGroupMeta, srcs []ckpt.GroupExtent, world int, opts Options) (groupOut, error) {
	if opts.NoRawCopy {
		return decodeGroup(m, srcs, world)
	}
	return spliceGroup(m, srcs, world)
}

// spliceGroup is the zero-decode path: each target shard's three sections
// are stitched from byte extents of the source payloads (intersection of
// old and new Partition.Range, always element-aligned because both
// partitions address the same FP32 grid), with zeros synthesized for the
// target's pad tail. Source pad bytes are never read — padding moves with
// the partition, so the target's padding is always freshly zeroed. When
// s_N == s_M the whole shard streams through verbatim and the source CRC
// is carried forward.
func spliceGroup(m ckpt.ShardGroupMeta, srcs []ckpt.GroupExtent, world int) (groupOut, error) {
	numel := m.Numel
	worldFrom := len(srcs)
	pN, err := zero.NewPartition(numel, worldFrom)
	if err != nil {
		return groupOut{}, err
	}
	pM, err := zero.NewPartition(numel, world)
	if err != nil {
		return groupOut{}, err
	}
	sN, sM := pN.ShardLen(), pM.ShardLen()
	out := groupOut{raw: true, metas: make([]ckpt.ShardGroupMeta, world), data: make([][]byte, world)}

	readExtent := func(rn int, off int64, dst []byte) error {
		rc, err := srcs[rn].OpenRange(off, int64(len(dst)))
		if err != nil {
			return err
		}
		_, err = io.ReadFull(rc, dst)
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
		return err
	}

	for rm := 0; rm < world; rm++ {
		lo, hi := pM.Range(rm)
		meta := ckpt.ShardGroupMeta{Index: m.Index, Numel: numel, ShardLen: sM,
			NoDecay: m.NoDecay, Layer: m.Layer}
		buf := make([]byte, sM*12)

		if sM == sN && rm < worldFrom {
			// Identical extent: the shard is the source payload bit for bit.
			if err := readExtent(rm, 0, buf); err != nil {
				return groupOut{}, fmt.Errorf("reshard: group %d rank %d: read source shard: %w", m.Index, rm, err)
			}
			meta.CRC32 = srcs[rm].CRC32
			out.carried++
			out.rawIn += int64(len(buf))
		} else if lo >= numel {
			// Entirely past the data: an all-padding shard, synthesized.
			meta.CRC32 = crc32.ChecksumIEEE(buf)
			out.zeroed++
			out.zeros += int64(len(buf))
		} else {
			dataHi := hi
			if dataHi > numel {
				dataHi = numel
			}
			for k := int64(0); k < 3; k++ {
				secBase := k * sM * 4
				for cur := lo; cur < dataHi; {
					rn := cur / sN
					segHi := (rn + 1) * sN
					if segHi > dataHi {
						segHi = dataHi
					}
					dst := buf[secBase+(cur-lo)*4 : secBase+(segHi-lo)*4]
					if err := readExtent(int(rn), k*sN*4+(cur-rn*sN)*4, dst); err != nil {
						return groupOut{}, fmt.Errorf("reshard: group %d rank %d: read extent from source rank %d: %w", m.Index, rm, rn, err)
					}
					out.rawIn += int64(len(dst))
					cur = segHi
				}
				out.zeros += (hi - dataHi) * 4
			}
			meta.CRC32 = crc32.ChecksumIEEE(buf)
			out.spliced++
		}
		out.metas[rm] = meta
		out.data[rm] = buf
	}
	return out, nil
}

// decodeGroup is the reference fallback: read and decode every source
// shard, gather the full group (which validates the source's padding is
// zero), repartition with zero.ShardGroup, and re-encode. Bit-identical to
// spliceGroup by construction; the property tests pin it.
func decodeGroup(m ckpt.ShardGroupMeta, srcs []ckpt.GroupExtent, world int) (groupOut, error) {
	worldFrom := len(srcs)
	shards := make([]*zero.GroupShard, worldFrom)
	for rn := 0; rn < worldFrom; rn++ {
		sLen := srcs[rn].ShardLen
		raw := make([]byte, sLen*12)
		rc, err := srcs[rn].OpenRange(0, int64(len(raw)))
		if err != nil {
			return groupOut{}, fmt.Errorf("reshard: group %d: open source rank %d: %w", m.Index, rn, err)
		}
		_, err = io.ReadFull(rc, raw)
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return groupOut{}, fmt.Errorf("reshard: group %d: read source rank %d: %w", m.Index, rn, err)
		}
		if got := crc32.ChecksumIEEE(raw); got != srcs[rn].CRC32 {
			return groupOut{}, fmt.Errorf("reshard: group %d: source rank %d payload CRC %08x, recorded %08x", m.Index, rn, got, srcs[rn].CRC32)
		}
		shards[rn] = &zero.GroupShard{
			GroupIndex: m.Index, Rank: rn,
			Master:   decodeSection(raw, 0, sLen),
			ExpAvg:   decodeSection(raw, 1, sLen),
			ExpAvgSq: decodeSection(raw, 2, sLen),
		}
	}
	resharded, err := zero.Reshard(shards, m.Numel, world)
	if err != nil {
		return groupOut{}, fmt.Errorf("reshard: group %d: %w", m.Index, err)
	}
	out := groupOut{metas: make([]ckpt.ShardGroupMeta, world), data: make([][]byte, world)}
	for rm, s := range resharded {
		buf := make([]byte, s.Numel()*12)
		pos := 0
		for _, sec := range [][]float32{s.Master, s.ExpAvg, s.ExpAvgSq} {
			for _, v := range sec {
				binary.LittleEndian.PutUint32(buf[pos:], math.Float32bits(v))
				pos += 4
			}
		}
		out.metas[rm] = ckpt.ShardGroupMeta{Index: m.Index, Numel: m.Numel, ShardLen: s.Numel(),
			NoDecay: m.NoDecay, Layer: m.Layer, CRC32: crc32.ChecksumIEEE(buf)}
		out.data[rm] = buf
		out.decIn += int64(len(buf))
	}
	for rn := 0; rn < worldFrom; rn++ {
		out.decIn += srcs[rn].ShardLen * 12
	}
	return out, nil
}

func decodeSection(raw []byte, section, shardLen int64) []float32 {
	out := make([]float32, shardLen)
	base := section * shardLen * 4
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[base+int64(i)*4:]))
	}
	return out
}

// writeTrailer stages the config, trainer state and manifest. Config is
// copied verbatim; the trainer state is rewritten with the target world
// size (every other field survives untouched); the manifest drops the
// dedup markers — the output stages as a plain checkpoint, and a dedup
// publication (Options.Dedup) re-marks it before the commit.
func writeTrailer(b storage.Backend, c *ckpt.Checkpoint, sb storage.Backend, staging string, world int) error {
	cfgData, err := b.ReadFile(c.Dir + "/config.json")
	if err != nil {
		return fmt.Errorf("reshard: copy config: %w", err)
	}
	if err := sb.WriteFile(staging+"/config.json", cfgData); err != nil {
		return err
	}
	st := c.State
	st.WorldSize = world
	if err := writeJSON(sb, staging+"/trainer_state.json", &st); err != nil {
		return err
	}
	man := c.Manifest
	man.Dedup = false
	man.RefGen = 0
	return writeJSON(sb, staging+"/manifest.json", &man)
}

// writeJSON matches ckpt's trailer encoding byte for byte (two-space
// indent, trailing newline), which is what keeps a resharded checkpoint
// identical to a native save at the target world size.
func writeJSON(b storage.Backend, name string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("reshard: marshal %s: %w", name, err)
	}
	return b.WriteFile(name, append(data, '\n'))
}
