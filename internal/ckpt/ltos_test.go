package ckpt

import (
	"bytes"
	"fmt"
	"io"
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

// TestShardFileRoundtrip: rank files written by the fixture writer read
// back through the load driver, one stream each, as the bytes of the shards
// written, for every rank of a world of four.
func TestShardFileRoundtrip(t *testing.T) {
	b := storage.NewMem()
	const ws, dir = 4, "run/checkpoint-3"
	_, o := saveFull(t, b, dir, 10, ws)
	byRank, err := zero.ShardAll(o.States, ws)
	if err != nil {
		t.Fatal(err)
	}
	metas := make([]ShardGroupMeta, len(o.Layout.Groups))
	for i, g := range o.Layout.Groups {
		metas[i] = metaForGroup(g)
	}
	for r := 0; r < ws; r++ {
		if err := writeShardFile(b, dir+"/"+ShardFileName(r), r, ws, o.StepCount, o.Layout.Kind, metas, byRank[r]); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Open(b, dir)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ws; r++ {
		sb, err := c.ReadOptimShard(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sb.Step != 3 || len(sb.Groups) != len(o.States) {
			t.Fatalf("rank %d: step %d, %d groups", r, sb.Step, len(sb.Groups))
		}
		for i, s := range byRank[r] {
			var want bytes.Buffer
			if _, err := encodeGroupPayload(&want, nil, s); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sb.Groups[metas[i].Index], want.Bytes()) {
				t.Fatalf("rank %d group %d: read bytes differ from the shard written", r, i)
			}
		}
	}
}

// TestReadOptimShardKeepsWantedGroups: a whole-rank load keeps only the
// groups asked for, each as its stored bytes.
func TestReadOptimShardKeepsWantedGroups(t *testing.T) {
	b := storage.NewMem()
	_, o := saveFull(t, b, "run/checkpoint-3", 11, 2)
	byRank, _ := zero.ShardAll(o.States, 2)
	c, err := Open(b, "run/checkpoint-3")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := c.ReadOptimShard(0, func(index int) bool { return index == 3 })
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := encodeGroupPayload(&want, nil, byRank[0][3]); err != nil {
		t.Fatal(err)
	}
	if len(sb.Groups) != 1 || !bytes.Equal(sb.Groups[3], want.Bytes()) {
		t.Fatalf("kept groups %d, group 3 held %d bytes, want only group 3's %d", len(sb.Groups), len(sb.Groups[3]), want.Len())
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

// readRankFile stands data as rank 0's file of a one-rank checkpoint and
// reads it through the one-rank load.
func readRankFile(t *testing.T, data []byte) error {
	t.Helper()
	b := storage.NewMem()
	saveFull(t, b, "run/checkpoint-3", 13, 1)
	if err := b.WriteFile("run/checkpoint-3/"+ShardFileName(0), data); err != nil {
		t.Fatal(err)
	}
	c, err := Open(b, "run/checkpoint-3")
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.ReadOptimShard(0, nil)
	return err
}

func TestShardFileCorruption(t *testing.T) {
	b := storage.NewMem()
	saveFull(t, b, "run/checkpoint-3", 13, 1)
	good, _ := b.ReadFile("run/checkpoint-3/" + ShardFileName(0))
	read := func(data []byte) error { return readRankFile(t, data) }
	if err := read(good); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	raw := bytes.Clone(good)
	raw[len(raw)-3] ^= 0x55
	if err := read(raw); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("err = %v", err)
	}
	raw = bytes.Clone(good)
	raw[0] = 'X'
	if err := read(raw); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("err = %v", err)
	}
}

func TestShardFileTruncated(t *testing.T) {
	if err := readRankFile(t, []byte("LTOS")); err == nil {
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
	w := newShardFileWriter(b, name, rank, worldSize, step, layout, 0)
	defer w.Abort()
	for i, m := range meta {
		if err := writeGroup(w, m, shards[i]); err != nil {
			return err
		}
	}
	return w.Close()
}

// writeGroup appends one group's shard (master + exp_avg + exp_avg_sq) to w
// and records its metadata.
func writeGroup(w *shardFileWriter, m ShardGroupMeta, s *zero.GroupShard) error {
	if s.Rank != w.hdr.Rank {
		return fmt.Errorf("ckpt: shard for rank %d written into rank %d file", s.Rank, w.hdr.Rank)
	}
	buf := make([]byte, storage.ChunkOrDefault(w.ra.chunk))
	return w.appendPayload(&groupPayload{meta: m, payload: payload{size: s.Numel() * 12,
		write: func(sink io.Writer) (int64, error) { return encodeGroupPayload(sink, buf, s) }}})
}

// encodeGroupPayload streams one group shard's payload — the whole shard as
// its own range, the bytes a save writes for that rank of the group.
func encodeGroupPayload(w io.Writer, buf []byte, s *zero.GroupShard) (int64, error) {
	st := optim.GroupState{Master: s.Master, ExpAvg: s.ExpAvg, ExpAvgSq: s.ExpAvgSq}
	return encodeGroupRange(w, buf, &st, 0, s.Numel())
}

// decodeShard is the shard a group payload holds.
func decodeShard(index, rank int, buf []byte) *zero.GroupShard {
	n := int64(len(buf)) / 12
	s := &zero.GroupShard{GroupIndex: index, Rank: rank,
		Master: make([]float32, n), ExpAvg: make([]float32, n), ExpAvgSq: make([]float32, n)}
	for k, sec := range [][]float32{s.Master, s.ExpAvg, s.ExpAvgSq} {
		tensor.DecodeLE(sec, buf[int64(k)*n*4:])
	}
	return s
}
