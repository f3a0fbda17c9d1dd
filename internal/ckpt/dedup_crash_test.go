package ckpt

// Crash-point exploration for the content-addressed paths: every mutating
// storage operation of a dedup save (blob puts included) and of a GC run
// fails in turn, and the recovery invariants must hold — previous-or-new-
// never-hybrid for saves, and no referenced blob ever lost for GC.

import (
	"testing"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

func TestCrashPointExplorationDedupSave(t *testing.T) {
	exploreDedupSaveCrashes(t, "")
}

// TestCrashPointExplorationDedupSaveCodec reruns the exploration with
// xor-parent compression on: the second save deltas changed slots against
// the first, so the fault points now include the crash window between the
// journal append that pins the parent chain and the child blob's publish.
func TestCrashPointExplorationDedupSaveCodec(t *testing.T) {
	exploreDedupSaveCrashes(t, "xor")
}

func exploreDedupSaveCrashes(t *testing.T, codec string) {
	mPrev, oPrev := buildOptim(t, modelcfg.Tiny(), 140)
	mNext, oNext := buildOptim(t, modelcfg.Tiny(), 141)
	specFor := func(dir string, step int, m *model.Model, o *optim.AdamW) SaveSpec {
		return SaveSpec{Dir: dir, Model: m, Optim: o, WorldSize: 2, Strategy: "full",
			Dedup: true, Codec: codec, State: TrainerState{Step: step, Seed: 140}}
	}

	// Ground truth: a fault-free pair of dedup saves.
	clean := storage.NewMem()
	if err := Save(clean, specFor("run/checkpoint-100", 100, mPrev, oPrev)); err != nil {
		t.Fatal(err)
	}
	prevDigest := treeDigest(t, clean, "run/checkpoint-100")
	if err := Save(clean, specFor("run/checkpoint-200", 200, mNext, oNext)); err != nil {
		t.Fatal(err)
	}
	nextDigest := treeDigest(t, clean, "run/checkpoint-200")

	// Count the fault points of the second save (blob puts included).
	f := storage.NewFault(storage.NewMem())
	if err := Save(f, specFor("run/checkpoint-100", 100, mPrev, oPrev)); err != nil {
		t.Fatal(err)
	}
	f.FailAt(0)
	if err := Save(f, specFor("run/checkpoint-200", 200, mNext, oNext)); err != nil {
		t.Fatal(err)
	}
	n := int(f.Ops())
	if n < 10 {
		t.Fatalf("suspiciously few fault points in a dedup save: %d", n)
	}
	t.Logf("exploring %d crash points × {clean, torn}", n)

	for _, torn := range []bool{false, true} {
		for k := 1; k <= n; k++ {
			base := storage.NewMem()
			f := storage.NewFault(base)
			f.SetTorn(torn)
			if err := Save(f, specFor("run/checkpoint-100", 100, mPrev, oPrev)); err != nil {
				t.Fatal(err)
			}
			f.FailAt(k)
			if err := Save(f, specFor("run/checkpoint-200", 200, mNext, oNext)); !storage.IsInjected(err) {
				t.Fatalf("k=%d torn=%v: err = %v, want injected", k, torn, err)
			}

			// Invariant 1: the previous dedup checkpoint is intact — dir
			// bytes unchanged and every blob reference resolvable.
			if err := VerifyCommit(base, "run/checkpoint-100"); err != nil {
				t.Fatalf("k=%d torn=%v: previous checkpoint damaged: %v", k, torn, err)
			}
			if d := treeDigest(t, base, "run/checkpoint-100"); d != prevDigest {
				t.Fatalf("k=%d torn=%v: previous checkpoint bytes changed", k, torn)
			}

			// Invariant 2: the new checkpoint is all or nothing.
			if base.Exists("run/checkpoint-200") {
				if err := VerifyCommit(base, "run/checkpoint-200"); err != nil {
					t.Fatalf("k=%d torn=%v: published checkpoint not committed: %v", k, torn, err)
				}
				if d := treeDigest(t, base, "run/checkpoint-200"); d != nextDigest {
					t.Fatalf("k=%d torn=%v: published checkpoint differs from fault-free save", k, torn)
				}
			}

			// Invariant 3: resolution yields exactly one of the two source
			// states, blob reads included — never a hybrid.
			latest, err := Latest(base, "run")
			if err != nil {
				t.Fatalf("k=%d torn=%v: no resolvable checkpoint after crash: %v", k, torn, err)
			}
			rm, ro, c, err := Restore(base, latest, tensor.BF16)
			if err != nil {
				t.Fatalf("k=%d torn=%v: restore %s: %v", k, torn, latest, err)
			}
			switch c.State.Step {
			case 100:
				if !model.Equal(rm, mPrev) || !sameOptim(ro, oPrev) {
					t.Fatalf("k=%d torn=%v: step-100 restore is a hybrid", k, torn)
				}
			case 200:
				if !model.Equal(rm, mNext) || !sameOptim(ro, oNext) {
					t.Fatalf("k=%d torn=%v: step-200 restore is a hybrid", k, torn)
				}
			default:
				t.Fatalf("k=%d torn=%v: restored unknown step %d", k, torn, c.State.Step)
			}

			// Invariant 4: Repair + GC leave a healthy root (blob-staging
			// residue and unreferenced blobs swept, every committed
			// checkpoint still restorable) and the save retries cleanly.
			if _, err := Repair(base, "run"); err != nil {
				t.Fatalf("k=%d torn=%v: repair: %v", k, torn, err)
			}
			if _, err := GC(base, "run"); err != nil {
				t.Fatalf("k=%d torn=%v: gc: %v", k, torn, err)
			}
			statuses, err := Scan(base, "run")
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range statuses {
				if st.State != StateCommitted {
					t.Fatalf("k=%d torn=%v: %s still %v after repair+gc", k, torn, st.Path, st.State)
				}
			}
			for _, s := range doctorScan(t, base, "run", ScanViews{Blobs: true}).Blobs {
				if s.State != BlobReferenced {
					t.Fatalf("k=%d torn=%v: blob %s still %v after gc", k, torn, s.Path, s.State)
				}
			}
			// The journaled index agrees with the manifests on every
			// explored state once repair + full gc ran: no stale, missing,
			// divergent or corrupt records remain.
			if problems := refProblems(t, base, "run"); len(problems) != 0 {
				t.Fatalf("k=%d torn=%v: ref-index problems after repair+gc: %+v", k, torn, problems)
			}
			if _, _, _, err := Restore(base, "run/checkpoint-100", tensor.BF16); err != nil {
				t.Fatalf("k=%d torn=%v: previous checkpoint unrestorable after gc: %v", k, torn, err)
			}
			if err := Save(base, specFor("run/checkpoint-200", 200, mNext, oNext)); err != nil {
				t.Fatalf("k=%d torn=%v: save after repair: %v", k, torn, err)
			}
			if d := treeDigest(t, base, "run/checkpoint-200"); d != nextDigest {
				t.Fatalf("k=%d torn=%v: post-repair save differs from fault-free save", k, torn)
			}
		}
	}
}

// buildGCScenario deterministically assembles a run root with two live
// dedup checkpoints, a batch of unreferenced blobs (from a replaced save)
// and blob-staging residue.
func buildGCScenario(t *testing.T) (*storage.Mem, *model.Model, *optim.AdamW) {
	t.Helper()
	b := storage.NewMem()
	m1, o1 := buildOptim(t, modelcfg.Tiny(), 142)
	m2, o2 := buildOptim(t, modelcfg.Tiny(), 143)
	save := func(dir string, step int, mm *model.Model, oo *optim.AdamW) {
		t.Helper()
		if err := Save(b, SaveSpec{Dir: dir, Model: mm, Optim: oo, WorldSize: 2,
			Strategy: "full", Dedup: true, State: TrainerState{Step: step, Seed: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	save("run/checkpoint-100", 100, m1, o1)
	save("run/checkpoint-200", 200, m2, o2)
	// Replace step 200 with state 1: state 2's blobs become garbage.
	save("run/checkpoint-200", 200, m1, o1)
	b.WriteFile("run/objects/.stage/put-1", []byte("residue-a"))
	b.WriteFile("run/objects/.stage/put-2", []byte("residue-b"))
	return b, m1, o1
}

func TestCrashPointExplorationGC(t *testing.T) {
	// Count the fault points of a full GC run.
	base, _, _ := buildGCScenario(t)
	f := storage.NewFault(base)
	rep, err := GC(f, "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RemovedBlobs) == 0 || len(rep.RemovedStaging) != 2 {
		t.Fatalf("scenario has no garbage: %+v", rep)
	}
	n := int(f.Ops())
	if n < 3 {
		t.Fatalf("suspiciously few fault points in gc: %d", n)
	}
	t.Logf("exploring %d gc crash points", n)

	for k := 1; k <= n; k++ {
		base, m1, o1 := buildGCScenario(t)
		f := storage.NewFault(base)
		f.FailAt(k)
		if _, err := GC(f, "run"); !storage.IsInjected(err) {
			t.Fatalf("k=%d: err = %v, want injected", k, err)
		}
		// Invariant: an interrupted GC never loses a referenced blob —
		// every committed checkpoint still restores bit-exact.
		for _, dir := range []string{"run/checkpoint-100", "run/checkpoint-200"} {
			rm, ro, _, err := Restore(base, dir, tensor.BF16)
			if err != nil {
				t.Fatalf("k=%d: %s unrestorable after interrupted gc: %v", k, dir, err)
			}
			if !model.Equal(rm, m1) || !sameOptim(ro, o1) {
				t.Fatalf("k=%d: %s differs after interrupted gc", k, dir)
			}
		}
		// A rerun on the durable state converges: all garbage gone,
		// checkpoints intact.
		if _, err := GC(base, "run"); err != nil {
			t.Fatalf("k=%d: gc rerun: %v", k, err)
		}
		bs := doctorScan(t, base, "run", ScanViews{Blobs: true}).Blobs
		for _, s := range bs {
			if s.State != BlobReferenced {
				t.Fatalf("k=%d: %s still %v after gc rerun", k, s.Path, s.State)
			}
		}
		if _, _, _, err := Restore(base, "run/checkpoint-100", tensor.BF16); err != nil {
			t.Fatalf("k=%d: restore after gc rerun: %v", k, err)
		}
	}
}
