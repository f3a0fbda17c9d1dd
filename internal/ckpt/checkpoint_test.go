package ckpt

import (
	"bytes"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
	"llmtailor/internal/zero"
)

func saveFull(t testing.TB, b storage.Backend, dir string, seed uint64, ws int) (*model.Model, *optim.AdamW) {
	t.Helper()
	m, o := buildOptim(t, modelcfg.Tiny(), seed)
	err := Save(b, SaveSpec{
		Dir: dir, Model: m, Optim: o, WorldSize: ws, Strategy: "full",
		State: TrainerState{Step: o.StepCount, LR: 1e-3, Loss: 2.0, Task: "sft", Seed: seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, o
}

func TestSaveProducesExpectedFiles(t *testing.T) {
	b := storage.NewMem()
	saveFull(t, b, "run/checkpoint-3", 20, 4)
	for _, f := range []string{
		"run/checkpoint-3/model.ltsf",
		"run/checkpoint-3/config.json",
		"run/checkpoint-3/trainer_state.json",
		"run/checkpoint-3/manifest.json",
		"run/checkpoint-3/zero/rank_00_optim_states.ltos",
		"run/checkpoint-3/zero/rank_03_optim_states.ltos",
		"run/latest",
	} {
		if !b.Exists(f) {
			t.Errorf("missing %s", f)
		}
	}
	latest, err := Latest(b, "run")
	if err != nil || latest != "run/checkpoint-3" {
		t.Fatalf("latest = %q, %v", latest, err)
	}
}

func TestOpenReadsMetadata(t *testing.T) {
	b := storage.NewMem()
	saveFull(t, b, "run/checkpoint-3", 21, 2)
	c, err := Open(b, "run/checkpoint-3")
	if err != nil {
		t.Fatal(err)
	}
	if c.Config.Name != "tiny" || c.State.Step != 3 || c.WorldSize() != 2 {
		t.Fatalf("meta: %s step=%d ws=%d", c.Config.Name, c.State.Step, c.WorldSize())
	}
	if !c.Manifest.Complete || c.Manifest.Strategy != "full" {
		t.Fatalf("manifest: %+v", c.Manifest)
	}
	if !c.Manifest.HasLayer(modelcfg.Block(0)) || !c.Manifest.HasLayer(modelcfg.Embed) {
		t.Fatal("manifest missing layers")
	}
}

func TestRestoreRoundtripExact(t *testing.T) {
	b := storage.NewMem()
	m, o := saveFull(t, b, "run/checkpoint-3", 22, 4)

	m2, o2, c, err := Restore(b, "run/checkpoint-3", tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}
	if c.State.Loss != 2.0 {
		t.Fatalf("state loss = %v", c.State.Loss)
	}
	if !model.Equal(m, m2) {
		t.Fatal("restored model differs")
	}
	if o2.StepCount != o.StepCount {
		t.Fatalf("step count %d != %d", o2.StepCount, o.StepCount)
	}
	for _, ts := range m.Tensors() {
		am, ae, av, _ := o.TensorState(ts.Name)
		bm, be, bv, err := o2.TensorState(ts.Name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range am {
			if am[i] != bm[i] || ae[i] != be[i] || av[i] != bv[i] {
				t.Fatalf("optimizer state differs at %s[%d]", ts.Name, i)
			}
		}
	}
}

// Restored training must continue identically to never-interrupted training:
// the foundational checkpoint property everything in the paper depends on.
func TestRestoreContinuationBitExact(t *testing.T) {
	b := storage.NewMem()
	m, o := saveFull(t, b, "c", 23, 2)
	m2, o2, _, err := Restore(b, "c", tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}

	rng := tensor.NewRNG(555)
	for step := 0; step < 5; step++ {
		grads := optim.GradMap{}
		for _, ts := range m.Tensors() {
			g := make([]float32, ts.Len())
			for i := range g {
				g[i] = rng.NormFloat32() * 0.1
			}
			grads[ts.Name] = g
		}
		if err := o.Step(1e-3, grads); err != nil {
			t.Fatal(err)
		}
		if err := o2.Step(1e-3, grads); err != nil {
			t.Fatal(err)
		}
	}
	if !model.Equal(m, m2) {
		d, _ := model.MaxAbsDiff(m, m2)
		t.Fatalf("continuation diverged (max |Δ| = %v)", d)
	}
}

// TestRestoreRefusesRankStepDisagreement: a checkpoint whose rank shards
// record different optimizer steps is refused — resuming it would run AdamW's
// bias correction at whichever step one rank says — plain and
// content-addressed alike. Rank 1's recorded step is edited in place, so only
// the rank check (checkRank) can see it.
func TestRestoreRefusesRankStepDisagreement(t *testing.T) {
	cfg := modelcfg.Tiny()
	m, o := buildOptim(t, cfg, 31) // three optimizer steps
	for _, dedup := range []bool{false, true} {
		b := storage.NewMem()
		dir := "run/checkpoint-3"
		if err := Save(b, SaveSpec{Dir: dir, Model: m, Optim: o, WorldSize: 2, Strategy: "full",
			Dedup: dedup, State: TrainerState{Step: 3}}); err != nil {
			t.Fatal(err)
		}
		name := dir + "/" + ShardFileName(1)
		if dedup {
			name = dir + "/" + ShardManifestName(1)
		}
		data, err := b.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(data), `"step":3`); n != 1 {
			t.Fatalf("fixture: %s records \"step\":3 %d times", name, n)
		}
		data = []byte(strings.Replace(string(data), `"step":3`, `"step":9`, 1))
		if err := b.WriteFile(name, data); err != nil {
			t.Fatal(err)
		}
		if _, ro, _, err := Restore(b, dir, tensor.BF16); err == nil || !strings.Contains(err.Error(), "optimizer step 9") {
			step := -1
			if ro != nil {
				step = ro.StepCount
			}
			t.Errorf("dedup=%v: restore with rank steps 3 and 9: StepCount %d, err %v", dedup, step, err)
		}
	}
}

func TestPartialSaveOmitsLayers(t *testing.T) {
	b := storage.NewMem()
	m, o := buildOptim(t, modelcfg.Tiny(), 24)
	layers := []modelcfg.LayerRef{modelcfg.Block(0), modelcfg.Block(2), modelcfg.Embed}
	err := Save(b, SaveSpec{
		Dir: "p", Model: m, Optim: o, WorldSize: 2, Layers: layers, Strategy: "parity",
		State: TrainerState{Step: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Open(b, "p")
	if err != nil {
		t.Fatal(err)
	}
	if c.Manifest.Complete {
		t.Fatal("partial manifest marked complete")
	}
	if len(c.Manifest.Layers) != 3 {
		t.Fatalf("manifest layers = %v", c.Manifest.Layers)
	}
	// Weights of unsaved layers are absent; saved ones present.
	if !c.Weights().Has("model.layers.0.self_attn.q_proj.weight") {
		t.Fatal("saved layer tensor missing")
	}
	if c.Weights().Has("model.layers.1.self_attn.q_proj.weight") {
		t.Fatal("unsaved layer tensor present")
	}
	if c.Weights().Has("model.norm.weight") {
		t.Fatal("unsaved final_norm present")
	}
	// Optimizer shards contain only the selected layers' groups: block 0,
	// block 2 (2 groups each) + embed (1 group) = 5.
	sb, err := c.ReadOptimShard(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sb.Groups) != 5 {
		t.Fatalf("partial shard groups = %d, want 5", len(sb.Groups))
	}

	// Partial checkpoints refuse whole-model restore.
	if _, _, _, err := Restore(b, "p", tensor.BF16); err == nil {
		t.Fatal("partial restore should fail")
	}
}

func TestPartialSaveSizesShrink(t *testing.T) {
	mem := storage.NewMem()
	meter := storage.NewMeter(mem, storage.LocalNVMe())
	m, o := buildOptim(t, modelcfg.Tiny(), 25)

	if err := Save(meter, SaveSpec{Dir: "full", Model: m, Optim: o, WorldSize: 2,
		State: TrainerState{Step: 3}}); err != nil {
		t.Fatal(err)
	}
	fullBytes := meter.Stats().BytesWritten
	meter.Reset()
	if err := Save(meter, SaveSpec{Dir: "half", Model: m, Optim: o, WorldSize: 2,
		Layers: []modelcfg.LayerRef{modelcfg.Block(0), modelcfg.Block(1)},
		State:  TrainerState{Step: 3}}); err != nil {
		t.Fatal(err)
	}
	halfBytes := meter.Stats().BytesWritten
	if halfBytes >= fullBytes*3/4 {
		t.Fatalf("partial save %d bytes vs full %d — too large", halfBytes, fullBytes)
	}
}

func TestSaveRejectsBadSpecs(t *testing.T) {
	b := storage.NewMem()
	m, o := buildOptim(t, modelcfg.Tiny(), 26)
	if err := Save(b, SaveSpec{Dir: "x", Model: m, Optim: o, WorldSize: 0}); err == nil {
		t.Error("world size 0 accepted")
	}

	// Tied model: lm_head is not a layer.
	mt, _ := model.NewInitialized(modelcfg.TinyTied(), tensor.BF16, 1)
	ot, _ := optim.NewAdamW(mt, optim.NewLayerwiseLayout(modelcfg.TinyTied()), optim.DefaultHyper())
	err := Save(b, SaveSpec{Dir: "y", Model: mt, Optim: ot, WorldSize: 1,
		Layers: []modelcfg.LayerRef{modelcfg.LMHead}})
	if err == nil {
		t.Error("lm_head on tied model accepted")
	}
}

func TestPartialSaveRequiresLayerwise(t *testing.T) {
	cfg := modelcfg.Tiny()
	m, _ := model.NewInitialized(cfg, tensor.BF16, 1)
	o, _ := optim.NewAdamW(m, optim.NewTwoGroupLayout(cfg), optim.DefaultHyper())
	err := Save(storage.NewMem(), SaveSpec{
		Dir: "x", Model: m, Optim: o, WorldSize: 1,
		Layers: []modelcfg.LayerRef{modelcfg.Block(0)},
		State:  TrainerState{},
	})
	if err == nil || !strings.Contains(err.Error(), "layerwise") {
		t.Fatalf("err = %v", err)
	}
}

func TestTwoGroupFullSaveRestores(t *testing.T) {
	cfg := modelcfg.Tiny()
	m, _ := model.NewInitialized(cfg, tensor.BF16, 9)
	o, _ := optim.NewAdamW(m, optim.NewTwoGroupLayout(cfg), optim.DefaultHyper())
	b := storage.NewMem()
	if err := Save(b, SaveSpec{Dir: "c", Model: m, Optim: o, WorldSize: 2, State: TrainerState{Step: 0}}); err != nil {
		t.Fatal(err)
	}
	m2, o2, _, err := Restore(b, "c", tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}
	if o2.Layout.Kind != optim.TwoGroup {
		t.Fatal("layout kind lost")
	}
	if !model.Equal(m, m2) {
		t.Fatal("model differs")
	}
}

func TestList(t *testing.T) {
	b := storage.NewMem()
	saveFull(t, b, "run/checkpoint-100", 1, 1)
	saveFull(t, b, "run/checkpoint-20", 2, 1)
	saveFull(t, b, "run/checkpoint-3", 3, 1)
	b.WriteFile("run/notes.txt", []byte("x"))
	got, err := List(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"run/checkpoint-3", "run/checkpoint-20", "run/checkpoint-100"}
	if len(got) != len(want) {
		t.Fatalf("list = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("list = %v, want %v", got, want)
		}
	}
}

func TestOpenMissingPieces(t *testing.T) {
	b := storage.NewMem()
	saveFull(t, b, "c", 4, 1)
	b.Remove("c/trainer_state.json")
	if _, err := Open(b, "c"); err == nil {
		t.Fatal("missing trainer state accepted")
	}
	if _, err := Open(b, "absent"); err == nil {
		t.Fatal("missing dir accepted")
	}
}

func TestLatestMissing(t *testing.T) {
	if _, err := Latest(storage.NewMem(), "run"); err == nil {
		t.Fatal("expected error")
	}
}

func TestDirName(t *testing.T) {
	if DirName(250) != "checkpoint-250" {
		t.Fatalf("DirName = %s", DirName(250))
	}
}

func TestRestoreQwenAndTied(t *testing.T) {
	for _, cfg := range []*modelcfg.Config{modelcfg.TinyQwen(), modelcfg.TinyTied()} {
		b := storage.NewMem()
		m, o := buildOptim(t, cfg, 31)
		if err := Save(b, SaveSpec{Dir: "c", Model: m, Optim: o, WorldSize: 3,
			State: TrainerState{Step: o.StepCount}}); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		m2, _, _, err := Restore(b, "c", tensor.BF16)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if !model.Equal(m, m2) {
			t.Fatalf("%s: restore mismatch", cfg.Name)
		}
	}
}

func BenchmarkSaveTiny(b *testing.B) {
	m, o := buildOptim(b, modelcfg.Tiny(), 1)
	back := storage.NewMem()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Save(back, SaveSpec{Dir: "c", Model: m, Optim: o, WorldSize: 4,
			State: TrainerState{Step: 1}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRestoreTiny(b *testing.B) {
	m, o := buildOptim(b, modelcfg.Tiny(), 1)
	back := storage.NewMem()
	if err := Save(back, SaveSpec{Dir: "c", Model: m, Optim: o, WorldSize: 4,
		State: TrainerState{Step: 1}}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Restore(back, "c", tensor.BF16); err != nil {
			b.Fatal(err)
		}
	}
}

// tamperGroup rewrites group idx of rank's stored optimizer state — its LTOS
// container, or its blob and shard manifest entry — as tamper leaves its
// metadata and decoded shard, with a CRC that matches the new bytes.
func tamperGroup(t testing.TB, b storage.Backend, dir string, rank, idx int, tamper func(*ShardGroupMeta, *zero.GroupShard)) {
	t.Helper()
	c, err := Open(b, dir)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := c.ReadOptimShard(rank, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !c.ContentAddressed() {
		name := dir + "/" + ShardFileName(rank)
		h, err := readShardHeader(b, name)
		if err != nil {
			t.Fatal(err)
		}
		shards := make([]*zero.GroupShard, len(h.Groups))
		for i, m := range h.Groups {
			shards[i] = decodeShard(m.Index, rank, sb.Groups[m.Index])
		}
		i := slices.IndexFunc(h.Groups, func(m ShardGroupMeta) bool { return m.Index == idx })
		tamper(&h.Groups[i], shards[i])
		if err := writeShardFile(b, name, h.Rank, h.WorldSize, h.Step, h.Layout, h.Groups, shards); err != nil {
			t.Fatal(err)
		}
		return
	}
	name := dir + "/" + ShardManifestName(rank)
	sm, err := ReadShardManifest(b, name)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(sm.Groups, func(g ShardGroupEntry) bool { return g.Index == idx })
	m, s := sm.Groups[i].Meta(), decodeShard(idx, rank, sb.Groups[idx])
	tamper(&m, s)
	var payload bytes.Buffer
	if _, err := encodeGroupPayload(&payload, nil, s); err != nil {
		t.Fatal(err)
	}
	store, err := storage.OpenCAS(b, ObjectsRoot(dir))
	if err != nil {
		t.Fatal(err)
	}
	digest := storage.DigestBytes(payload.Bytes())
	if err := b.WriteFile(store.Path(digest), payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	sm.Groups[i] = ShardGroupEntry{Index: m.Index, Numel: m.Numel, ShardLen: s.Numel(),
		NoDecay: m.NoDecay, Layer: m.Layer, Size: int64(payload.Len()),
		CRC32: crc32.ChecksumIEEE(payload.Bytes()), Digest: digest}
	if err := writeShardManifest(b, name, sm); err != nil {
		t.Fatal(err)
	}
}
