package ckpt

// Crash-point exploration over the journaled ref index's mutating paths:
// retention (directory + record retirement + generational sweep) and the
// standalone generational GC. Every storage mutation fails in turn, and
// the invariants must hold on the durable state: no referenced blob is
// ever lost, every surviving committed checkpoint stays bit-identical and
// restorable, and after quiescent repair the full GC agrees with the
// index on every explored state.

import (
	"fmt"
	"testing"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

// buildRetainScenario assembles a run of five dedup checkpoints where each
// save dirties one tensor, so every generation has exclusive blobs and a
// shared base.
func buildRetainScenario(t *testing.T, b storage.Backend) {
	t.Helper()
	cfg := modelcfg.Tiny()
	m, err := model.NewInitialized(cfg, tensor.BF16, 300)
	if err != nil {
		t.Fatal(err)
	}
	o, err := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		ts := m.Tensors()[0]
		ts.Set(0, ts.At(0)+float32(i))
		if err := Save(b, SaveSpec{
			Dir: fmt.Sprintf("run/checkpoint-%d", i*10), Model: m, Optim: o,
			WorldSize: 2, Strategy: "full", Dedup: true,
			State: TrainerState{Step: i * 10, Seed: 300},
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCrashPointExplorationRetain(t *testing.T) {
	// Probe the fault-point count of a fault-free retention pass.
	probe := storage.NewMem()
	buildRetainScenario(t, probe)
	pf := storage.NewFault(probe)
	rep, err := Retain(pf, "run", 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Removed) != 3 || len(rep.RemovedBlobs) == 0 {
		t.Fatalf("scenario not retiring anything: %+v", rep)
	}
	n := int(pf.Ops())
	if n < 5 {
		t.Fatalf("suspiciously few fault points in retain: %d", n)
	}
	t.Logf("exploring %d retain crash points", n)

	// Keeper trees must never change; record their fault-free digests.
	keeperDigest := map[string]string{}
	clean := storage.NewMem()
	buildRetainScenario(t, clean)
	for _, dir := range []string{"run/checkpoint-40", "run/checkpoint-50"} {
		keeperDigest[dir] = treeDigest(t, clean, dir)
	}

	for k := 1; k <= n; k++ {
		base := storage.NewMem()
		buildRetainScenario(t, base)
		f := storage.NewFault(base)
		f.FailAt(k)
		if _, err := Retain(f, "run", 2, false); !storage.IsInjected(err) {
			t.Fatalf("k=%d: err = %v, want injected", k, err)
		}

		// Invariant 1: keepers untouched, bit for bit, and every committed
		// directory that survives (keeper or not-yet-removed victim) still
		// restores — i.e. no blob any manifest references was swept.
		for dir, want := range keeperDigest {
			if got := treeDigest(t, base, dir); got != want {
				t.Fatalf("k=%d: keeper %s bytes changed", k, dir)
			}
		}
		dirs, err := List(base, "run")
		if err != nil {
			t.Fatal(err)
		}
		if len(dirs) < 2 {
			t.Fatalf("k=%d: keepers missing: %v", k, dirs)
		}
		for _, dir := range dirs {
			if _, _, _, err := Restore(base, dir, tensor.BF16); err != nil {
				t.Fatalf("k=%d: %s unrestorable after interrupted retain: %v", k, dir, err)
			}
		}

		// Invariant 2: quiescent repair + full GC converge — the index
		// agrees with the manifests and no garbage survives.
		if _, err := Repair(base, "run"); err != nil {
			t.Fatalf("k=%d: repair: %v", k, err)
		}
		if _, err := Retain(base, "run", 2, false); err != nil {
			t.Fatalf("k=%d: retain rerun: %v", k, err)
		}
		if _, err := GC(base, "run"); err != nil {
			t.Fatalf("k=%d: full gc: %v", k, err)
		}
		if problems := refProblems(t, base, "run"); len(problems) != 0 {
			t.Fatalf("k=%d: index problems after repair+retain+gc: %+v", k, problems)
		}
		bs := doctorScan(t, base, "run", ScanViews{Blobs: true}).Blobs
		for _, s := range bs {
			if s.State != BlobReferenced {
				t.Fatalf("k=%d: blob %s still %v after convergence", k, s.Path, s.State)
			}
		}
		dirs, _ = List(base, "run")
		if len(dirs) != 2 {
			t.Fatalf("k=%d: %d checkpoints after converged retain", k, len(dirs))
		}
		for dir, want := range keeperDigest {
			if got := treeDigest(t, base, dir); got != want {
				t.Fatalf("k=%d: keeper %s changed during convergence", k, dir)
			}
			if _, _, _, err := Restore(base, dir, tensor.BF16); err != nil {
				t.Fatalf("k=%d: keeper %s unrestorable after convergence: %v", k, dir, err)
			}
		}
	}
}

// buildGenerationalScenario: two live checkpoints plus a superseded
// generation (checkpoint-200 replaced in place) and append residue.
func buildGenerationalScenario(t *testing.T) (*storage.Mem, *model.Model, *optim.AdamW) {
	t.Helper()
	b := storage.NewMem()
	m1, o1 := buildOptim(t, modelcfg.Tiny(), 310)
	m2, o2 := buildOptim(t, modelcfg.Tiny(), 311)
	save := func(dir string, step int, mm *model.Model, oo *optim.AdamW) {
		t.Helper()
		if err := Save(b, SaveSpec{Dir: dir, Model: mm, Optim: oo, WorldSize: 2,
			Strategy: "full", Dedup: true, State: TrainerState{Step: step, Seed: 9}}); err != nil {
			t.Fatal(err)
		}
	}
	save("run/checkpoint-100", 100, m1, o1)
	save("run/checkpoint-200", 200, m2, o2)
	save("run/checkpoint-200", 200, m1, o1)
	b.WriteFile("run/objects/.stage/put-1", []byte("residue"))
	b.WriteFile("run/objects/refs/gen-000000000099-checkpoint-9.ref.tmp", []byte("{"))
	return b, m1, o1
}

func TestCrashPointExplorationGCGenerational(t *testing.T) {
	probe, _, _ := buildGenerationalScenario(t)
	pf := storage.NewFault(probe)
	rep, err := GCGenerational(pf, "run", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RemovedBlobs) == 0 || len(rep.RecordsRetired) != 1 || len(rep.RemovedStaging) != 2 {
		t.Fatalf("scenario has nothing to sweep: %+v", rep)
	}
	n := int(pf.Ops())
	if n < 3 {
		t.Fatalf("suspiciously few fault points: %d", n)
	}
	t.Logf("exploring %d generational gc crash points", n)

	for k := 1; k <= n; k++ {
		base, m1, o1 := buildGenerationalScenario(t)
		f := storage.NewFault(base)
		f.FailAt(k)
		if _, err := GCGenerational(f, "run", false); !storage.IsInjected(err) {
			t.Fatalf("k=%d: err = %v, want injected", k, err)
		}
		// Invariant: an interrupted generational sweep never loses a
		// referenced blob — both checkpoints restore bit-exact.
		for _, dir := range []string{"run/checkpoint-100", "run/checkpoint-200"} {
			rm, ro, _, err := Restore(base, dir, tensor.BF16)
			if err != nil {
				t.Fatalf("k=%d: %s unrestorable: %v", k, dir, err)
			}
			if !model.Equal(rm, m1) || !sameOptim(ro, o1) {
				t.Fatalf("k=%d: %s differs after interrupted gc", k, dir)
			}
		}
		// Reruns converge; full GC then agrees with the index exactly.
		if _, err := GCGenerational(base, "run", false); err != nil {
			t.Fatalf("k=%d: generational rerun: %v", k, err)
		}
		full, err := GC(base, "run")
		if err != nil {
			t.Fatalf("k=%d: full gc: %v", k, err)
		}
		if len(full.RemovedBlobs) != 0 || len(full.RecordsRetired) != 0 || len(full.IndexRepaired) != 0 {
			t.Fatalf("k=%d: full gc found work the generational rerun missed: %+v", k, full)
		}
		if problems := refProblems(t, base, "run"); len(problems) != 0 {
			t.Fatalf("k=%d: index problems after convergence: %+v", k, problems)
		}
		bs := doctorScan(t, base, "run", ScanViews{Blobs: true}).Blobs
		for _, s := range bs {
			if s.State != BlobReferenced {
				t.Fatalf("k=%d: blob %s still %v after convergence", k, s.Path, s.State)
			}
		}
	}
}
