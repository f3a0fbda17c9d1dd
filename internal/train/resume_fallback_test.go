package train

import (
	"strings"
	"testing"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/storage"
)

// ResumeLatest must skip torn checkpoints (crashed saves) and restore the
// newest committed one, continuing the run from there.
func TestResumeLatestSkipsTornCheckpoint(t *testing.T) {
	b := storage.NewMem()
	cfg := tinyConfig("run")
	cfg.FailAt = 35 // stop mid-run with checkpoints at 10, 20, 30
	tr, err := New(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	// Tear the newest checkpoint as a crashed save would have: the commit
	// marker never landed.
	if err := b.Remove("run/checkpoint-30/" + ckpt.CommitMarkerName); err != nil {
		t.Fatal(err)
	}

	cfg2 := tinyConfig("run")
	tr2, err := ResumeLatest(cfg2, b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Step() != 20 {
		t.Fatalf("resumed at step %d, want 20 (newest committed)", tr2.Step())
	}
	res, err := tr2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalStep != cfg2.TotalSteps {
		t.Fatalf("resumed run stopped at %d", res.FinalStep)
	}
}

// A committed checkpoint whose rank shards disagree on the optimizer step is
// unreadable like a torn one: ResumeLatest falls back to the one before it
// rather than resuming with whichever step one rank recorded.
func TestResumeLatestSkipsRankStepDisagreement(t *testing.T) {
	b := storage.NewMem()
	cfg := tinyConfig("run")
	cfg.FailAt = 35 // checkpoints at 10, 20, 30
	tr, err := New(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	name := "run/checkpoint-30/" + ckpt.ShardFileName(1)
	data, err := b.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"step":30`); n != 1 {
		t.Fatalf("fixture: %s records \"step\":30 %d times", name, n)
	}
	if err := b.WriteFile(name, []byte(strings.Replace(string(data), `"step":30`, `"step":90`, 1))); err != nil {
		t.Fatal(err)
	}

	tr2, err := ResumeLatest(tinyConfig("run"), b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Step() != 20 || tr2.Optim.StepCount != 20 {
		t.Fatalf("resumed at step %d, optimizer step %d; want 20 and 20 (the checkpoint before)", tr2.Step(), tr2.Optim.StepCount)
	}
}

// With every checkpoint torn, ResumeLatest reports failure rather than
// resuming from a hybrid.
func TestResumeLatestNoCommittedCheckpoints(t *testing.T) {
	b := storage.NewMem()
	cfg := tinyConfig("run")
	cfg.FailAt = 15
	tr, err := New(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove("run/checkpoint-10/" + ckpt.CommitMarkerName); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeLatest(tinyConfig("run"), b, "run"); err == nil {
		t.Fatal("resumed with no committed checkpoint")
	}
}

// A full crash-recovery cycle through the fault injector: the save of
// checkpoint-20 crashes partway, recovery (Repair + ResumeLatest) resumes
// from checkpoint-10 and the rerun completes.
func TestResumeLatestAfterInjectedCrash(t *testing.T) {
	base := storage.NewMem()
	cfg := tinyConfig("run")
	cfg.FailAt = 12
	tr, err := New(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil { // checkpoint-10 committed
		t.Fatal(err)
	}

	// Continue on a faulty backend; the step-20 save crashes mid-write.
	f := storage.NewFault(base)
	f.SetTorn(true)
	cfg2 := tinyConfig("run")
	tr2, err := ResumeLatest(cfg2, f, "run")
	if err != nil {
		t.Fatal(err)
	}
	f.FailAt(9)
	if _, err := tr2.Run(); !storage.IsInjected(err) {
		t.Fatalf("run err = %v, want injected crash", err)
	}

	// "Reboot": repair the root and resume from durable state.
	if _, err := ckpt.Repair(base, "run"); err != nil {
		t.Fatal(err)
	}
	tr3, err := ResumeLatest(tinyConfig("run"), base, "run")
	if err != nil {
		t.Fatal(err)
	}
	if tr3.Step() != 10 {
		t.Fatalf("recovered at step %d, want 10", tr3.Step())
	}
	res, err := tr3.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalStep != cfg.TotalSteps {
		t.Fatalf("recovered run stopped at %d", res.FinalStep)
	}
}
