package tailor

import (
	"strings"
	"testing"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/recipe"
	"llmtailor/internal/storage"
)

func TestVerifyCleanCheckpoint(t *testing.T) {
	b := storage.NewMem()
	cfg := modelcfg.Tiny()
	newRun(t, b, cfg, 2, []int{5}, nil)
	rep, err := Verify(b, "run/checkpoint-5")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean checkpoint reported problems: %v", rep.Problems)
	}
	if rep.WeightTensors != len(cfg.Tensors()) {
		t.Fatalf("verified %d tensors, want %d", rep.WeightTensors, len(cfg.Tensors()))
	}
	if rep.ShardFiles != 2 {
		t.Fatalf("verified %d shard files", rep.ShardFiles)
	}
	wantGroups := 2*cfg.NumLayers + 3
	if rep.Groups != wantGroups {
		t.Fatalf("groups = %d, want %d", rep.Groups, wantGroups)
	}
	if !strings.Contains(rep.Describe(), "OK") {
		t.Fatalf("describe: %s", rep.Describe())
	}
}

func TestVerifyMergedCheckpoint(t *testing.T) {
	b := storage.NewMem()
	cfg := modelcfg.Tiny()
	newRun(t, b, cfg, 2, []int{5, 10}, nil)
	rec := recipe.Parity("run/checkpoint-5", "run/checkpoint-10", cfg, "merged")
	if _, err := Merge(b, rec, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(b, "merged")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || !rep.Complete {
		t.Fatalf("merged checkpoint failed verify: %v", rep.Problems)
	}
}

func TestVerifyPartialCheckpoint(t *testing.T) {
	b := storage.NewMem()
	cfg := modelcfg.Tiny()
	layers := []modelcfg.LayerRef{modelcfg.Block(0), modelcfg.Block(1), modelcfg.Embed}
	newRun(t, b, cfg, 2, []int{5}, map[int][]modelcfg.LayerRef{5: layers})
	rep, err := Verify(b, "run/checkpoint-5")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("partial checkpoint failed verify: %v", rep.Problems)
	}
	if rep.Complete {
		t.Fatal("partial marked complete")
	}
	// blocks 0, 1 (2 groups each) + embed (1) = 5 groups per rank.
	if rep.Groups != 5 {
		t.Fatalf("groups = %d, want 5", rep.Groups)
	}
}

func TestVerifyDetectsWeightCorruption(t *testing.T) {
	b := storage.NewMem()
	cfg := modelcfg.Tiny()
	newRun(t, b, cfg, 1, []int{5}, nil)
	raw, _ := b.ReadFile("run/checkpoint-5/model.ltsf")
	raw[len(raw)-2] ^= 0xFF
	b.WriteFile("run/checkpoint-5/model.ltsf", raw)

	rep, err := Verify(b, "run/checkpoint-5")
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("weight corruption undetected")
	}
	found := false
	for _, p := range rep.Problems {
		if strings.Contains(p, "CRC") {
			found = true
		}
	}
	if !found {
		t.Fatalf("problems: %v", rep.Problems)
	}
}

func TestVerifyDetectsMissingShard(t *testing.T) {
	b := storage.NewMem()
	cfg := modelcfg.Tiny()
	newRun(t, b, cfg, 2, []int{5}, nil)
	b.Remove("run/checkpoint-5/" + ckpt.ShardFileName(1))
	rep, err := Verify(b, "run/checkpoint-5")
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("missing shard undetected")
	}
}

func TestVerifyDetectsShardCorruption(t *testing.T) {
	b := storage.NewMem()
	cfg := modelcfg.Tiny()
	newRun(t, b, cfg, 2, []int{5}, nil)
	name := "run/checkpoint-5/" + ckpt.ShardFileName(0)
	raw, _ := b.ReadFile(name)
	raw[len(raw)-1] ^= 0x01
	b.WriteFile(name, raw)
	rep, err := Verify(b, "run/checkpoint-5")
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("shard corruption undetected")
	}
}

// Verify reports a rank the read stage's rank check refuses — here rank 1
// recording another optimizer step than rank 0 — and goes on: the weights and
// the other rank are still verified.
func TestVerifyReportsRankStepDisagreement(t *testing.T) {
	b := storage.NewMem()
	cfg := modelcfg.Tiny()
	newRun(t, b, cfg, 2, []int{5}, nil)
	name := "run/checkpoint-5/" + ckpt.ShardFileName(1)
	raw, _ := b.ReadFile(name)
	if strings.Count(string(raw), `"step":5`) != 1 {
		t.Fatalf("fixture: %s does not record \"step\":5 once", name)
	}
	b.WriteFile(name, []byte(strings.Replace(string(raw), `"step":5`, `"step":7`, 1)))
	rep, err := Verify(b, "run/checkpoint-5")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 1 || !strings.Contains(rep.Problems[0], "rank 1: at optimizer step 7, rank 0 at 5") {
		t.Fatalf("problems: %v", rep.Problems)
	}
	if rep.ShardFiles != 1 || rep.WeightTensors != len(cfg.Tensors()) {
		t.Fatalf("verified %d shard files, %d weight tensors; want 1 and %d", rep.ShardFiles, rep.WeightTensors, len(cfg.Tensors()))
	}
}

func TestVerifyMissingDir(t *testing.T) {
	if _, err := Verify(storage.NewMem(), "absent"); err == nil {
		t.Fatal("expected error")
	}
}
