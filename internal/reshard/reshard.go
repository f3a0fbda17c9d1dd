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
// Reshard is a feeder of ckpt's write stage (ckpt.Output): the weights go in
// by reference, and every target shard through ckpt.OutputRank.Group, the
// one repartition a merge across world sizes runs too. A shard whose
// partition coincides with its source's (s_N == s_M) is the source payload by
// reference — replayed through its checks, or, when a content-addressed
// output's store already holds its blob, carried without a byte moving:
// ckpt's carry rule proves the blob there at its size and, for a shard
// holding padding, reads the padding at the tail of each section — and the
// rest are computed: stitched from source extents (each source payload of the
// group checked once, whole, before its first target is stitched), or all
// padding.
// The write stage writes Options.Workers of the output's containers side by
// side: the weights' reads its tensors ahead under the Options.MaxInFlight
// byte gate, a shard file stitches its shards into its container's spool
// and streams them from there, so the bytes in flight are a few weight
// payloads, never the full flat state. The source is read through ckpt's
// read stage (Checkpoint.OptimExtents), so plain containers and
// content-addressed blobs under any codec are the same input here, and the
// output commits like any checkpoint — Scan, Repair, doctor, GC and the ref
// journal treat resharded checkpoints like any other, on rename and
// no-rename backends, plain or content-addressed (Options.Dedup).
package reshard

import (
	"fmt"
	"path"
	"time"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
)

// Options tunes a reshard run.
type Options struct {
	// Workers bounds how many weight payloads are read ahead, and how many
	// of the output's containers (the weights' and the target ranks' shard
	// files) are written side by side (default 1).
	Workers int
	// ChunkBytes is the streaming I/O chunk size for container writes
	// (0: storage.ChunkOrDefault's 256 KiB).
	ChunkBytes int
	// MaxInFlight bounds the weight payload bytes read ahead and not yet
	// written (target shards go through their container's spool). 0
	// means unbounded; Stats.PeakInFlightBytes reports the high-water mark
	// either way.
	MaxInFlight int64
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
	// Groups is the number of parameter groups repartitioned, every target
	// shard of each carried, spliced or zeroed — no FP32 decode anywhere:
	// ShardsCarried + ShardsSpliced + ShardsZeroed == Groups × WorldTo.
	Groups int
	// ShardsCarried counts target shards bit-identical to a source shard
	// (s_N == s_M): the source payload taken by reference — replayed through
	// its checks, or carried into a store that holds its blob, its padding
	// tails read — its CRC (and digest) carried forward.
	ShardsCarried int
	// ShardsSpliced counts target shards stitched from two or more source
	// extents (or one partial extent) with the CRC computed during the
	// splice; ShardsZeroed counts all-padding target shards synthesized
	// without touching the source at all.
	ShardsSpliced int
	ShardsZeroed  int
	// BytesRawCopied totals source payload bytes carried or spliced;
	// BytesZeroFilled totals synthesized pad bytes.
	BytesRawCopied  int64
	BytesZeroFilled int64
	// WeightBytes is the consolidated weights payload copied verbatim.
	WeightBytes int64
	// PeakInFlightBytes is the MaxInFlight gate's high-water mark.
	PeakInFlightBytes int64
	// WallTime is the measured duration.
	WallTime time.Duration
	// BlobReport holds the dedup output's counters (Options.Dedup).
	ckpt.BlobReport
}

// Reshard transforms the committed checkpoint at srcDir into a committed
// checkpoint at dstDir with the given world size. The source is never
// modified; dstDir must name a different directory than srcDir once both are
// cleaned (an in-place reshard would unseal the only copy mid-flight).
func Reshard(b storage.Backend, srcDir, dstDir string, world int, opts Options) (*Stats, error) {
	start := time.Now()
	if world < 1 {
		return nil, fmt.Errorf("reshard: target world size %d", world)
	}
	if path.Clean("/"+dstDir) == path.Clean("/"+srcDir) {
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

	// Every rank's groups, each rank checked against the layout rebuilt from
	// config (ckpt's checkRank) before any recorded geometry is trusted.
	layout, err := c.Layout()
	if err != nil {
		return nil, fmt.Errorf("reshard: %w", err)
	}
	ranks := make([][]ckpt.GroupExtent, worldFrom)
	var optimStep int
	for r := range ranks {
		if ranks[r], optimStep, err = c.OptimExtents(r); err != nil {
			return nil, fmt.Errorf("reshard: %w", err)
		}
	}
	stats.Groups = len(ranks[0])

	// Weights are world-size independent: the source's payloads verbatim,
	// in stored order (byte-identical to the source's, and to what a native
	// save at the target world size writes).
	out := ckpt.NewOutput(c.Weights().Model())
	stats.WeightBytes = out.Weights(c.Weights())
	if err := repartition(out, layout, ranks, optimStep, world, stats); err != nil {
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
	stats.BlobReport = rep.BlobReport
	stats.PeakInFlightBytes = rep.PeakInFlightBytes
	stats.WallTime = time.Since(start)
	return stats, nil
}

// repartition adds every target rank's shard of every group, rank by rank,
// each out of the group's extents on every source rank (OutputRank.Group):
// carried, zeroed or spliced.
func repartition(out *ckpt.Output, layout *optim.Layout, ranks [][]ckpt.GroupExtent, optimStep, world int, stats *Stats) error {
	for rm := 0; rm < world; rm++ {
		r := out.Rank(rm, world, optimStep, layout.Kind)
		for gi := range ranks[0] {
			src := make([]ckpt.GroupExtent, len(ranks))
			for rn := range src {
				src[rn] = ranks[rn][gi]
			}
			raw, zeros, err := r.Group(src)
			if err != nil {
				return err
			}
			switch {
			case raw == 0:
				stats.ShardsZeroed++
			case raw+zeros == src[0].ShardLen*12:
				// As long as the source shard: the partitions coincide, and
				// the shard is the source payload.
				stats.ShardsCarried++
			default:
				stats.ShardsSpliced++
			}
			stats.BytesRawCopied += raw
			stats.BytesZeroFilled += zeros
		}
	}
	return nil
}
