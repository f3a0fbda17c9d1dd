package zero

import (
	"testing"
	"testing/quick"

	"llmtailor/internal/optim"
	"llmtailor/internal/tensor"
)

func randState(n int64, seed uint64) *optim.GroupState {
	st := optim.NewGroupState(n)
	rng := tensor.NewRNG(seed)
	for i := int64(0); i < n; i++ {
		st.Master[i] = rng.NormFloat32()
		st.ExpAvg[i] = rng.NormFloat32()
		st.ExpAvgSq[i] = rng.NormFloat32() * rng.NormFloat32()
	}
	return st
}

func TestPartitionBasics(t *testing.T) {
	p, err := NewPartition(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Padded != 12 || p.ShardLen() != 3 {
		t.Fatalf("padded=%d shardlen=%d", p.Padded, p.ShardLen())
	}
	lo, hi := p.Range(2)
	if lo != 6 || hi != 9 {
		t.Fatalf("range(2) = [%d,%d)", lo, hi)
	}
}

func TestPartitionErrors(t *testing.T) {
	if _, err := NewPartition(10, 0); err == nil {
		t.Error("world size 0 accepted")
	}
	if _, err := NewPartition(-1, 2); err == nil {
		t.Error("negative numel accepted")
	}
}

func TestShardGatherRoundtrip(t *testing.T) {
	for _, n := range []int64{1, 7, 8, 63, 64, 100} {
		for _, ws := range []int{1, 2, 3, 8} {
			st := randState(n, uint64(n)*31+uint64(ws))
			shards, err := ShardGroup(0, st, ws)
			if err != nil {
				t.Fatal(err)
			}
			if len(shards) != ws {
				t.Fatalf("n=%d ws=%d: %d shards", n, ws, len(shards))
			}
			got, err := gatherGroup(shards, n)
			if err != nil {
				t.Fatalf("n=%d ws=%d: %v", n, ws, err)
			}
			for i := int64(0); i < n; i++ {
				if got.Master[i] != st.Master[i] || got.ExpAvg[i] != st.ExpAvg[i] || got.ExpAvgSq[i] != st.ExpAvgSq[i] {
					t.Fatalf("n=%d ws=%d: mismatch at %d", n, ws, i)
				}
			}
		}
	}
}

func TestShardPadding(t *testing.T) {
	st := randState(10, 3)
	shards, _ := ShardGroup(0, st, 4)
	last := shards[3]
	if last.Numel() != 3 {
		t.Fatalf("last shard numel = %d", last.Numel())
	}
	// Elements 10, 11 are padding and must be zero.
	if last.Master[1] != 0 || last.Master[2] != 0 {
		t.Fatal("padding not zeroed")
	}
}

func TestGatherRejectsDisorder(t *testing.T) {
	st := randState(8, 5)
	shards, _ := ShardGroup(0, st, 2)
	shards[0], shards[1] = shards[1], shards[0]
	if _, err := gatherGroup(shards, 8); err == nil {
		t.Fatal("disordered shards accepted")
	}
}

func TestGatherRejectsMissingShard(t *testing.T) {
	st := randState(8, 5)
	shards, _ := ShardGroup(0, st, 2)
	shards[1] = nil
	if _, err := gatherGroup(shards, 8); err == nil {
		t.Fatal("missing shard accepted")
	}
}

func TestGatherRejectsLengthMismatch(t *testing.T) {
	st := randState(8, 5)
	shards, _ := ShardGroup(0, st, 2)
	shards[1].Master = shards[1].Master[:2]
	if _, err := gatherGroup(shards, 8); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestShardAllGatherAll(t *testing.T) {
	states := []*optim.GroupState{randState(5, 1), randState(33, 2), randState(8, 3)}
	numels := []int64{5, 33, 8}
	byRank, err := ShardAll(states, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(byRank) != 4 || len(byRank[0]) != 3 {
		t.Fatalf("shape: %d ranks × %d groups", len(byRank), len(byRank[0]))
	}
	back, err := GatherAll(byRank, numels)
	if err != nil {
		t.Fatal(err)
	}
	for gi, st := range states {
		for i := range st.Master {
			if back[gi].Master[i] != st.Master[i] {
				t.Fatalf("group %d master[%d] mismatch", gi, i)
			}
			if back[gi].ExpAvgSq[i] != st.ExpAvgSq[i] {
				t.Fatalf("group %d expavgsq[%d] mismatch", gi, i)
			}
		}
	}
}

func TestGatherAllErrors(t *testing.T) {
	if _, err := GatherAll(nil, []int64{3}); err == nil {
		t.Error("no ranks accepted")
	}
	states := []*optim.GroupState{randState(5, 1)}
	byRank, _ := ShardAll(states, 2)
	byRank[1] = byRank[1][:0]
	if _, err := GatherAll(byRank, []int64{5}); err == nil {
		t.Error("missing group accepted")
	}
}

// Property: shard/gather round-trips for arbitrary sizes and world sizes.
func TestShardGatherQuick(t *testing.T) {
	f := func(nRaw uint16, wsRaw uint8, seed uint64) bool {
		n := int64(nRaw%500) + 1
		ws := int(wsRaw%8) + 1
		st := randState(n, seed)
		shards, err := ShardGroup(0, st, ws)
		if err != nil {
			return false
		}
		got, err := gatherGroup(shards, n)
		if err != nil {
			return false
		}
		for i := int64(0); i < n; i++ {
			if got.Master[i] != st.Master[i] || got.ExpAvg[i] != st.ExpAvg[i] || got.ExpAvgSq[i] != st.ExpAvgSq[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every rank's shard has identical length (uniform sharding, which
// the paper's per-rank file-size accounting assumes).
func TestUniformShardLengths(t *testing.T) {
	f := func(nRaw uint16, wsRaw uint8) bool {
		n := int64(nRaw%1000) + 1
		ws := int(wsRaw%16) + 1
		st := optim.NewGroupState(n)
		shards, err := ShardGroup(0, st, ws)
		if err != nil {
			return false
		}
		want := shards[0].Numel()
		for _, s := range shards {
			if s.Numel() != want {
				return false
			}
		}
		// Total padded length covers numel with fewer than ws padding elems.
		padded := want * int64(ws)
		return padded >= n && padded-n < int64(ws)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkShardGather(b *testing.B) {
	st := randState(1<<16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shards, _ := ShardGroup(0, st, 8)
		if _, err := gatherGroup(shards, st.Numel()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGatherRejectsDirtyPadding is the regression test for the silent-
// padding bug: gatherGroup used to trim the final shard's pad region
// without looking at it, so garbage there — exactly where a reshard moves
// padding around — passed through unnoticed. It must now be rejected in
// any of the three state sections.
func TestGatherRejectsDirtyPadding(t *testing.T) {
	st := randState(10, 3)
	dirty := []func(s *GroupShard, i int64){
		func(s *GroupShard, i int64) { s.Master[i] = 1.5 },
		func(s *GroupShard, i int64) { s.ExpAvg[i] = -2 },
		func(s *GroupShard, i int64) { s.ExpAvgSq[i] = 1e-9 },
	}
	for di, poison := range dirty {
		shards, err := ShardGroup(0, st, 4) // shardLen 3, padding = 2 elems on rank 3
		if err != nil {
			t.Fatal(err)
		}
		last := shards[3]
		poison(last, last.Numel()-1)
		if _, err := gatherGroup(shards, st.Numel()); err == nil {
			t.Fatalf("section %d: non-zero padding silently accepted", di)
		}
	}
	// Clean shards still gather.
	shards, err := ShardGroup(0, st, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gatherGroup(shards, st.Numel()); err != nil {
		t.Fatalf("clean gather rejected: %v", err)
	}
}

// TestReshardProperty is the partition-math property test: for arbitrary
// numel, N and M, shard(N) → Reshard(M) → gather is bit-identical to the
// original state, and the intermediate shards are bit-identical to
// shard(M) directly.
func TestReshardProperty(t *testing.T) {
	f := func(numelSeed uint16, nSeed, mSeed uint8) bool {
		numel := int64(numelSeed)%2000 + 1
		n := int(nSeed)%12 + 1
		m := int(mSeed)%12 + 1
		st := randState(numel, uint64(numel)*31+uint64(n)*7+uint64(m))
		viaN, err := ShardGroup(0, st, n)
		if err != nil {
			return false
		}
		resharded, err := Reshard(viaN, numel, m)
		if err != nil {
			return false
		}
		direct, err := ShardGroup(0, st, m)
		if err != nil {
			return false
		}
		for r := range direct {
			a, b := resharded[r], direct[r]
			if a.Rank != b.Rank || a.Numel() != b.Numel() {
				return false
			}
			for i := range a.Master {
				if a.Master[i] != b.Master[i] || a.ExpAvg[i] != b.ExpAvg[i] || a.ExpAvgSq[i] != b.ExpAvgSq[i] {
					return false
				}
			}
		}
		back, err := gatherGroup(resharded, numel)
		if err != nil {
			return false
		}
		for i := int64(0); i < numel; i++ {
			if back.Master[i] != st.Master[i] || back.ExpAvg[i] != st.ExpAvg[i] || back.ExpAvgSq[i] != st.ExpAvgSq[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
