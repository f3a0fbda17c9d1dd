package llmtailor_test

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"llmtailor"
	"llmtailor/internal/train"
)

// Crash-recovery end to end through the public facade on a real OS-backed
// directory: a save crashes via the fault injector, the doctor surface
// (Run.Scan / Run.Repair) cleans the root, and Run.Resume continues from
// the last committed checkpoint.
func TestFacadeCrashRecoveryOnDisk(t *testing.T) {
	root := t.TempDir()
	back, err := llmtailor.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := llmtailor.ModelByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	task, err := train.TaskByName("sft")
	if err != nil {
		t.Fatal(err)
	}
	base := llmtailor.TrainerConfig{
		Model: cfg, Seed: 6, Task: task,
		TotalSteps: 30, WarmupSteps: 4, BaseLR: 2e-3,
		CkptInterval: 10, WorldSize: 2, RunRoot: "run",
	}

	// Train to the first checkpoint, then crash the second save mid-write
	// with torn bytes.
	first := base
	first.FailAt = 12
	tr, err := llmtailor.NewTrainer(first, back)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	faulty := llmtailor.NewFaultBackend(back)
	faulty.SetTorn(true)
	cont, err := llmtailor.NewStore(faulty).Run("run").Resume(base)
	if err != nil {
		t.Fatal(err)
	}
	faulty.FailAt(7)
	if _, err := cont.Run(); err == nil {
		t.Fatal("run survived the injected crash")
	}

	// The crash left residue the scan sees and repair removes.
	scan, err := llmtailor.NewStore(back).Run("run").Scan(llmtailor.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	statuses := scan.Dirs
	committed, other := 0, 0
	for _, st := range statuses {
		if st.State == llmtailor.StateCommitted {
			committed++
		} else {
			other++
		}
	}
	if committed != 1 || other == 0 {
		t.Fatalf("scan after crash: %d committed, %d residue (%+v)", committed, other, statuses)
	}
	if _, err := llmtailor.NewStore(back).Run("run").Repair(); err != nil {
		t.Fatal(err)
	}

	// Recovery resumes from the committed step-10 checkpoint and finishes.
	rec, err := llmtailor.NewStore(back).Run("run").Resume(base)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Step() != 10 {
		t.Fatalf("recovered at step %d, want 10", rec.Step())
	}
	res, err := rec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalStep != base.TotalSteps {
		t.Fatalf("recovered run stopped at %d", res.FinalStep)
	}
	if err := llmtailor.VerifyCommitted(back, "run/checkpoint-30"); err != nil {
		t.Fatal(err)
	}
}

// End-to-end through the public facade only: train with parity partials on a
// real OS-backed directory, crash, auto-generate a recipe, merge, resume,
// and verify the final loss matches an uninterrupted baseline.
func TestFacadeEndToEndOnDisk(t *testing.T) {
	root := t.TempDir()
	back, err := llmtailor.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := llmtailor.ModelByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	task, err := train.TaskByName("sft")
	if err != nil {
		t.Fatal(err)
	}
	parity, err := llmtailor.StrategyByName("parity")
	if err != nil {
		t.Fatal(err)
	}

	base := llmtailor.TrainerConfig{
		Model: cfg, Seed: 5, Task: task,
		TotalSteps: 90, WarmupSteps: 4, BaseLR: 2e-3,
		CkptInterval: 9, WorldSize: 2, RunRoot: "run",
	}

	// Baseline in memory.
	mem := llmtailor.NewMemBackend()
	trA, err := llmtailor.NewTrainer(base, mem)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := trA.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Crashing parity run on disk.
	cfgB := base
	cfgB.Strategy = parity
	cfgB.FailAt = 58
	trB, err := llmtailor.NewTrainer(cfgB, back)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trB.Run(); err != nil {
		t.Fatal(err)
	}

	// Checkpoint directories actually exist on disk.
	if _, err := os.Stat(filepath.Join(root, "run", "checkpoint-54", "model.ltsf")); err != nil {
		t.Fatal(err)
	}

	dirs, err := llmtailor.NewStore(back).Run("run").List()
	if err != nil || len(dirs) != 6 {
		t.Fatalf("checkpoints = %v, %v", dirs, err)
	}
	latest, err := llmtailor.NewStore(back).Run("run").Latest()
	if err != nil || latest != "run/checkpoint-54" {
		t.Fatalf("latest = %q, %v", latest, err)
	}

	rec, err := llmtailor.RecipeFromManifests(back, "run", 0, cfg, "run/merged")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := llmtailor.NewPlan(back, rec)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Describe() == "" {
		t.Fatal("empty plan description")
	}
	if _, err := llmtailor.Merge(back, rec, llmtailor.MergeOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}

	c, err := llmtailor.OpenCheckpoint(back, "run/merged")
	if err != nil {
		t.Fatal(err)
	}
	if !c.Manifest.Complete {
		t.Fatal("merged checkpoint not complete")
	}

	trC, err := llmtailor.NewStore(back).Run("run").ResumeFrom(base, "merged")
	if err != nil {
		t.Fatal(err)
	}
	resC, err := trC.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(resC.FinalLoss - resA.FinalLoss); d > 0.03 {
		t.Fatalf("facade parity recovery loss delta %v (orig %v merged %v)", d, resA.FinalLoss, resC.FinalLoss)
	}
}

// The format-stability roundtrip the streaming refactor must preserve: a
// merge run under a tight MaxInFlight byte budget produces a checkpoint
// that resumes training through the public facade, and its weight file is
// byte-identical to an unbounded merge's.
func TestStreamedMergeOutputResumesTraining(t *testing.T) {
	back := llmtailor.NewMemBackend()
	cfg, err := llmtailor.ModelByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	task, err := train.TaskByName("sft")
	if err != nil {
		t.Fatal(err)
	}
	base := llmtailor.TrainerConfig{
		Model: cfg, Seed: 11, Task: task,
		TotalSteps: 40, WarmupSteps: 4, BaseLR: 2e-3,
		CkptInterval: 10, WorldSize: 2, RunRoot: "run",
	}
	tr, err := llmtailor.NewTrainer(base, back)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}

	rec := llmtailor.ParityRecipe("run/checkpoint-30", "run/checkpoint-40", cfg, "run/merged")
	stats, err := llmtailor.Merge(back, rec, llmtailor.MergeOptions{
		Workers: 4, MaxInFlight: 1 << 17, ChunkBytes: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PeakInFlightBytes <= 0 || stats.PeakInFlightBytes > 1<<17 {
		t.Fatalf("peak in-flight %d outside (0, %d]", stats.PeakInFlightBytes, 1<<17)
	}

	rec2 := llmtailor.ParityRecipe("run/checkpoint-30", "run/checkpoint-40", cfg, "run/merged-unbounded")
	if _, err := llmtailor.Merge(back, rec2, llmtailor.MergeOptions{}); err != nil {
		t.Fatal(err)
	}
	a, err := back.ReadFile("run/merged/model.ltsf")
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.ReadFile("run/merged-unbounded/model.ltsf")
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("bounded and unbounded merges produced different weight files")
	}

	trC, err := llmtailor.NewStore(back).Run("run").ResumeFrom(base, "merged")
	if err != nil {
		t.Fatal(err)
	}
	res, err := trC.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalStep != base.TotalSteps {
		t.Fatalf("resumed run ended at step %d, want %d", res.FinalStep, base.TotalSteps)
	}
}

func TestFacadeRecipeParsing(t *testing.T) {
	rec, err := llmtailor.ParseRecipe([]byte("base_checkpoint: a\noutput: b\ntailor:\n  optimizer: true\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Base != "a" || !rec.Optimizer {
		t.Fatalf("recipe = %+v", rec)
	}
	if _, err := llmtailor.ParseRecipe([]byte("nonsense: [")); err == nil {
		t.Fatal("bad recipe accepted")
	}
}

func TestFacadeLookups(t *testing.T) {
	if _, err := llmtailor.ModelByName("nope"); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := llmtailor.StrategyByName("nope"); err == nil {
		t.Error("unknown strategy accepted")
	}
	cfg, err := llmtailor.ModelByName("qwen2.5-7b")
	if err != nil || cfg.NumLayers != 28 {
		t.Errorf("qwen preset: %+v, %v", cfg, err)
	}
}
