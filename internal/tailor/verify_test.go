package tailor

import (
	"fmt"
	"strings"
	"testing"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/recipe"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
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

// A weight element whose bits are not its master's rounding, stored under a
// CRC that covers it, is a problem naming the tensor and the element: in a
// full checkpoint, plain or content-addressed, and in a partial one holding
// its layer. A partial checkpoint without that layer verifies. Restore hands
// the stored weight back as it is, so Verify is what catches it.
func TestVerifyChecksWeightsAgainstMasters(t *testing.T) {
	cfg := modelcfg.Tiny()
	const name, elem = "model.layers.1.mlp.up_proj.weight", 5
	for _, tc := range []struct {
		name    string
		dedup   bool
		layers  []modelcfg.LayerRef
		problem bool
	}{
		{"full", false, nil, true},
		{"content-addressed", true, nil, true},
		{"partial holding it", false, []modelcfg.LayerRef{modelcfg.Block(1)}, true},
		{"partial without it", false, []modelcfg.LayerRef{modelcfg.Block(0), modelcfg.Embed}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := storage.NewMem()
			r := newRun(t, b, cfg, 2, []int{3}, nil)
			m, o := r.models[3], r.optims[3]
			mt, err := m.Tensor(name)
			if err != nil {
				t.Fatal(err)
			}
			mt.U16Data()[elem] ^= 1
			dir := "flip/checkpoint-3"
			if err := ckpt.Save(b, ckpt.SaveSpec{Dir: dir, Model: m, Optim: o, WorldSize: 2, Layers: tc.layers,
				Strategy: "test", Dedup: tc.dedup, State: ckpt.TrainerState{Step: 3}}); err != nil {
				t.Fatal(err)
			}
			rep, err := Verify(b, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.problem {
				if !rep.OK() {
					t.Fatalf("problems: %v", rep.Problems)
				}
				return
			}
			if len(rep.Problems) != 1 || !strings.Contains(rep.Problems[0], fmt.Sprintf("tensor %q element %d", name, elem)) {
				t.Fatalf("problems: %v", rep.Problems)
			}
			if tc.layers != nil {
				return
			}
			rm, _, _, err := ckpt.Restore(b, dir, tensor.BF16)
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := rm.Tensor(name); !tensor.Equal(got, mt) {
				t.Fatal("restore did not return the stored weight")
			}
		})
	}
}

func TestVerifyMissingDir(t *testing.T) {
	if _, err := Verify(storage.NewMem(), "absent"); err == nil {
		t.Fatal("expected error")
	}
}
