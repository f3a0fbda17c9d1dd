package ckpt

import (
	"fmt"
	"strings"
	"testing"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
	"llmtailor/internal/zero"
)

// buildOptim creates a tiny trained-ish optimizer for shard tests.
func buildOptim(t testing.TB, cfg *modelcfg.Config, seed uint64) (*model.Model, *optim.AdamW) {
	t.Helper()
	m, err := model.NewInitialized(cfg, tensor.BF16, seed)
	if err != nil {
		t.Fatal(err)
	}
	o, err := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(seed + 1)
	grads := optim.GradMap{}
	for _, ts := range m.Tensors() {
		g := make([]float32, ts.Len())
		for i := range g {
			g[i] = rng.NormFloat32() * 0.1
		}
		grads[ts.Name] = g
	}
	for i := 0; i < 3; i++ {
		if err := o.Step(1e-3, grads); err != nil {
			t.Fatal(err)
		}
	}
	return m, o
}

func TestShardFileRoundtrip(t *testing.T) {
	cfg := modelcfg.Tiny()
	_, o := buildOptim(t, cfg, 10)
	b := storage.NewMem()

	ws := 4
	byRank, err := zero.ShardAll(o.States, ws)
	if err != nil {
		t.Fatal(err)
	}
	metas := make([]ShardGroupMeta, len(o.Layout.Groups))
	for i, g := range o.Layout.Groups {
		metas[i] = metaForGroup(g)
	}
	for r := 0; r < ws; r++ {
		if err := writeShardFile(b, ShardFileName(r), r, ws, o.StepCount, o.Layout.Kind, metas, byRank[r]); err != nil {
			t.Fatal(err)
		}
	}

	for r := 0; r < ws; r++ {
		f, err := ReadShardFile(b, ShardFileName(r))
		if err != nil {
			t.Fatal(err)
		}
		if f.Rank != r || f.WorldSize != ws || f.Step != 3 || f.Layout != optim.Layerwise {
			t.Fatalf("rank %d header: %+v", r, f)
		}
		if len(f.Shards) != len(o.States) {
			t.Fatalf("rank %d: %d groups", r, len(f.Shards))
		}
		for i, s := range f.Shards {
			want := byRank[r][i]
			for j := range want.Master {
				if s.Master[j] != want.Master[j] || s.ExpAvg[j] != want.ExpAvg[j] || s.ExpAvgSq[j] != want.ExpAvgSq[j] {
					t.Fatalf("rank %d group %d elem %d mismatch", r, i, j)
				}
			}
		}
	}
}

func TestShardFileGroupByIndex(t *testing.T) {
	cfg := modelcfg.Tiny()
	_, o := buildOptim(t, cfg, 11)
	b := storage.NewMem()
	byRank, _ := zero.ShardAll(o.States, 2)
	metas := make([]ShardGroupMeta, len(o.Layout.Groups))
	for i, g := range o.Layout.Groups {
		metas[i] = metaForGroup(g)
	}
	writeShardFile(b, "f", 0, 2, 1, optim.Layerwise, metas, byRank[0])
	f, _ := ReadShardFile(b, "f")

	s, m, err := f.GroupByIndex(3)
	if err != nil || s == nil || m.Index != 3 {
		t.Fatalf("GroupByIndex: %v %v %v", s, m, err)
	}
	if _, _, err := f.GroupByIndex(999); err == nil {
		t.Fatal("expected missing group error")
	}
}

func TestShardFileWrongRankRejected(t *testing.T) {
	cfg := modelcfg.Tiny()
	_, o := buildOptim(t, cfg, 12)
	byRank, _ := zero.ShardAll(o.States, 2)
	metas := make([]ShardGroupMeta, len(o.Layout.Groups))
	for i, g := range o.Layout.Groups {
		metas[i] = metaForGroup(g)
	}
	b := storage.NewMem()
	// Write rank-1 shards into a rank-0 file.
	if err := writeShardFile(b, "f", 0, 2, 1, optim.Layerwise, metas, byRank[1]); err == nil {
		t.Fatal("wrong-rank shards accepted")
	}
}

func TestShardFileMetaShardMismatch(t *testing.T) {
	if err := writeShardFile(storage.NewMem(), "f", 0, 1, 1, optim.Layerwise,
		make([]ShardGroupMeta, 2), make([]*zero.GroupShard, 1)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestShardFileCorruption(t *testing.T) {
	cfg := modelcfg.Tiny()
	_, o := buildOptim(t, cfg, 13)
	byRank, _ := zero.ShardAll(o.States, 1)
	metas := make([]ShardGroupMeta, len(o.Layout.Groups))
	for i, g := range o.Layout.Groups {
		metas[i] = metaForGroup(g)
	}
	b := storage.NewMem()
	writeShardFile(b, "f", 0, 1, 1, optim.Layerwise, metas, byRank[0])

	raw, _ := b.ReadFile("f")
	raw[len(raw)-3] ^= 0x55
	b.WriteFile("f", raw)
	if _, err := ReadShardFile(b, "f"); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("err = %v", err)
	}

	raw2, _ := b.ReadFile("f")
	raw2[0] = 'X'
	b.WriteFile("g", raw2)
	if _, err := ReadShardFile(b, "g"); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("err = %v", err)
	}
}

func TestShardFileTruncated(t *testing.T) {
	b := storage.NewMem()
	b.WriteFile("f", []byte("LTOS"))
	if _, err := ReadShardFile(b, "f"); err == nil {
		t.Fatal("truncated file accepted")
	}
}

func TestShardFileNameFormat(t *testing.T) {
	if got := ShardFileName(3); got != "zero/rank_03_optim_states.ltos" {
		t.Fatalf("name = %q", got)
	}
}

// writeShardFile serialises one rank's shards of the given groups. meta and
// shards must be parallel slices. It is a loop over shardFileWriter, the
// fixture tests write shard files with.
func writeShardFile(b storage.Backend, name string, rank, worldSize, step int,
	layout optim.LayoutKind, meta []ShardGroupMeta, shards []*zero.GroupShard) error {
	if len(meta) != len(shards) {
		return fmt.Errorf("ckpt: %d metas vs %d shards", len(meta), len(shards))
	}
	w, err := newShardFileWriter(b, name, rank, worldSize, step, layout, 0)
	if err != nil {
		return err
	}
	defer w.Abort()
	for i, m := range meta {
		if err := w.writeGroup(m, shards[i]); err != nil {
			return err
		}
	}
	return w.Close()
}
