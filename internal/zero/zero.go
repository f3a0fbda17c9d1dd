// Package zero implements DeepSpeed ZeRO-3-style partitioning of optimizer
// state across data-parallel ranks. Each parameter group's flat FP32 vectors
// (master weights, exp_avg, exp_avg_sq) are padded to a multiple of the
// world size and split into equal contiguous shards; rank r owns shard r of
// every group. Checkpoints store one optimizer file per rank containing that
// rank's shard of every group (paper §2.3), which is why merging layers
// requires touching all N shard files and why whole shards must be read to
// access any single group.
package zero

import (
	"fmt"

	"llmtailor/internal/optim"
)

// Partition describes how one group's flat vector of n elements is split
// across worldSize ranks.
type Partition struct {
	// Numel is the unpadded element count.
	Numel int64
	// Padded is Numel rounded up to a multiple of WorldSize.
	Padded int64
	// WorldSize is the number of ranks.
	WorldSize int
}

// NewPartition computes the padded partition of n elements over worldSize
// ranks.
func NewPartition(n int64, worldSize int) (Partition, error) {
	if worldSize <= 0 {
		return Partition{}, fmt.Errorf("zero: world size %d", worldSize)
	}
	if n < 0 {
		return Partition{}, fmt.Errorf("zero: negative numel %d", n)
	}
	w := int64(worldSize)
	padded := (n + w - 1) / w * w
	return Partition{Numel: n, Padded: padded, WorldSize: worldSize}, nil
}

// ShardLen returns the per-rank shard length (identical for all ranks).
func (p Partition) ShardLen() int64 { return p.Padded / int64(p.WorldSize) }

// Range returns the [lo, hi) element range of rank r in padded coordinates.
func (p Partition) Range(rank int) (lo, hi int64) {
	s := p.ShardLen()
	return int64(rank) * s, int64(rank+1) * s
}

// GroupShard is rank r's slice of one group's optimizer state.
type GroupShard struct {
	GroupIndex int
	Rank       int
	Master     []float32
	ExpAvg     []float32
	ExpAvgSq   []float32
}

// Numel returns the shard's element count (padded shard length).
func (s *GroupShard) Numel() int64 { return int64(len(s.Master)) }

// ShardGroup splits one group's state into worldSize shards. The final shard
// is zero-padded; padding elements are written to disk like DeepSpeed does.
func ShardGroup(groupIndex int, st *optim.GroupState, worldSize int) ([]*GroupShard, error) {
	p, err := NewPartition(st.Numel(), worldSize)
	if err != nil {
		return nil, err
	}
	slice := func(src []float32, lo, hi int64) []float32 {
		out := make([]float32, hi-lo)
		if lo < int64(len(src)) {
			end := hi
			if end > int64(len(src)) {
				end = int64(len(src))
			}
			copy(out, src[lo:end])
		}
		return out
	}
	shards := make([]*GroupShard, worldSize)
	for r := 0; r < worldSize; r++ {
		lo, hi := p.Range(r)
		shards[r] = &GroupShard{
			GroupIndex: groupIndex,
			Rank:       r,
			Master:     slice(st.Master, lo, hi),
			ExpAvg:     slice(st.ExpAvg, lo, hi),
			ExpAvgSq:   slice(st.ExpAvgSq, lo, hi),
		}
	}
	return shards, nil
}

// gatherGroup reassembles a group's state from its shards, trimming padding
// back to numel. Shards must be complete and ordered by rank. Padding
// elements — positions at or past numel in the concatenated vector — must
// be zero in all three state sections: ShardGroup writes them as zeros, so
// anything else is corruption, and silently trimming it would let damaged
// bytes hide exactly where a reshard moves the pad region around.
func gatherGroup(shards []*GroupShard, numel int64) (*optim.GroupState, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("zero: no shards")
	}
	shardLen := shards[0].Numel()
	for r, s := range shards {
		if s == nil {
			return nil, fmt.Errorf("zero: missing shard for rank %d", r)
		}
		if s.Rank != r {
			return nil, fmt.Errorf("zero: shard order broken: position %d has rank %d", r, s.Rank)
		}
		if s.Numel() != shardLen {
			return nil, fmt.Errorf("zero: shard %d numel %d != %d", r, s.Numel(), shardLen)
		}
	}
	// Padding is at most worldSize-1 elements (from rounding numel up to a
	// multiple of the world size).
	padded := shardLen * int64(len(shards))
	if numel > padded || padded-numel >= int64(len(shards)) {
		return nil, fmt.Errorf("zero: numel %d inconsistent with %d shards of %d", numel, len(shards), shardLen)
	}
	st := optim.NewGroupState(numel)
	for r, s := range shards {
		lo := int64(r) * shardLen
		for i := int64(0); i < shardLen; i++ {
			if lo+i >= numel {
				if s.Master[i] != 0 || s.ExpAvg[i] != 0 || s.ExpAvgSq[i] != 0 {
					return nil, fmt.Errorf("zero: rank %d shard has non-zero padding at element %d (numel %d)", r, lo+i, numel)
				}
				continue
			}
			st.Master[lo+i] = s.Master[i]
			st.ExpAvg[lo+i] = s.ExpAvg[i]
			st.ExpAvgSq[lo+i] = s.ExpAvgSq[i]
		}
	}
	return st, nil
}

// Reshard repartitions one group's shards to a new world size by gathering
// the full group and splitting it again — the decode reference the extent
// splice (ckpt.OutputRank.Group, under reshard and cross-world merges) must
// agree with bit for bit. No product code calls it. Shards must be complete
// and ordered by rank.
func Reshard(shards []*GroupShard, numel int64, newWorld int) ([]*GroupShard, error) {
	st, err := gatherGroup(shards, numel)
	if err != nil {
		return nil, err
	}
	return ShardGroup(shards[0].GroupIndex, st, newWorld)
}

// ShardAll shards every group of an optimizer, returning shards[rank][group].
func ShardAll(states []*optim.GroupState, worldSize int) ([][]*GroupShard, error) {
	byRank := make([][]*GroupShard, worldSize)
	for r := range byRank {
		byRank[r] = make([]*GroupShard, len(states))
	}
	for gi, st := range states {
		shards, err := ShardGroup(gi, st, worldSize)
		if err != nil {
			return nil, fmt.Errorf("zero: group %d: %w", gi, err)
		}
		for r, s := range shards {
			byRank[r][gi] = s
		}
	}
	return byRank, nil
}

// GatherAll reassembles every group from per-rank shard sets.
// shards[rank][group] must all be present; numels gives each group's
// unpadded length.
func GatherAll(byRank [][]*GroupShard, numels []int64) ([]*optim.GroupState, error) {
	if len(byRank) == 0 {
		return nil, fmt.Errorf("zero: no ranks")
	}
	nGroups := len(numels)
	states := make([]*optim.GroupState, nGroups)
	for gi := 0; gi < nGroups; gi++ {
		shards := make([]*GroupShard, len(byRank))
		for r := range byRank {
			if gi >= len(byRank[r]) {
				return nil, fmt.Errorf("zero: rank %d missing group %d", r, gi)
			}
			shards[r] = byRank[r][gi]
		}
		st, err := gatherGroup(shards, numels[gi])
		if err != nil {
			return nil, fmt.Errorf("zero: group %d: %w", gi, err)
		}
		states[gi] = st
	}
	return states, nil
}
