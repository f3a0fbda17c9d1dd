package ckpt

// Systematic crash-point exploration: every mutating storage operation of
// a full checkpoint save is made to fail in turn (cleanly and with torn
// bytes), and after every crash the recovery invariant must hold — the run
// resolves to either the previous or the new checkpoint, fully intact,
// never a hybrid.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

// treeDigest hashes a directory tree's file names and contents.
func treeDigest(t *testing.T, b storage.Backend, dir string) string {
	t.Helper()
	h := sha256.New()
	var walk func(d string)
	walk = func(d string) {
		entries, err := b.List(d)
		if err != nil {
			t.Fatalf("list %s: %v", d, err)
		}
		sort.Strings(entries)
		for _, e := range entries {
			if strings.HasSuffix(e, "/") {
				walk(d + "/" + strings.TrimSuffix(e, "/"))
				continue
			}
			data, err := b.ReadFile(d + "/" + e)
			if err != nil {
				t.Fatalf("read %s/%s: %v", d, e, err)
			}
			fmt.Fprintf(h, "%s/%s:%d:", d, e, len(data))
			h.Write(data)
		}
	}
	walk(dir)
	return hex.EncodeToString(h.Sum(nil))
}

// sameOptim compares full optimizer state element-wise.
func sameOptim(a, b *optim.AdamW) bool {
	if a.StepCount != b.StepCount || len(a.States) != len(b.States) {
		return false
	}
	for i := range a.States {
		x, y := a.States[i], b.States[i]
		for j := range x.Master {
			if x.Master[j] != y.Master[j] || x.ExpAvg[j] != y.ExpAvg[j] || x.ExpAvgSq[j] != y.ExpAvgSq[j] {
				return false
			}
		}
	}
	return true
}

func TestCrashPointExplorationFullSave(t *testing.T) {
	mPrev, oPrev := buildOptim(t, modelcfg.Tiny(), 91)
	mNext, oNext := buildOptim(t, modelcfg.Tiny(), 92)
	specFor := func(dir string, step int, m *model.Model, o *optim.AdamW) SaveSpec {
		return SaveSpec{Dir: dir, Model: m, Optim: o, WorldSize: 2, Strategy: "full",
			State: TrainerState{Step: step, Seed: 91}}
	}

	// Ground truth: a fault-free pair of saves.
	clean := storage.NewMem()
	if err := Save(clean, specFor("run/checkpoint-100", 100, mPrev, oPrev)); err != nil {
		t.Fatal(err)
	}
	prevDigest := treeDigest(t, clean, "run/checkpoint-100")
	if err := Save(clean, specFor("run/checkpoint-200", 200, mNext, oNext)); err != nil {
		t.Fatal(err)
	}
	nextDigest := treeDigest(t, clean, "run/checkpoint-200")

	// Count the fault points of the second save.
	countBase := storage.NewMem()
	f := storage.NewFault(countBase)
	if err := Save(f, specFor("run/checkpoint-100", 100, mPrev, oPrev)); err != nil {
		t.Fatal(err)
	}
	f.FailAt(0) // reset the counter; stay disarmed
	if err := Save(f, specFor("run/checkpoint-200", 200, mNext, oNext)); err != nil {
		t.Fatal(err)
	}
	n := int(f.Ops())
	if n < 10 {
		t.Fatalf("suspiciously few fault points in a full save: %d", n)
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
			err := Save(f, specFor("run/checkpoint-200", 200, mNext, oNext))

			// The save must surface the injected crash — unless every
			// fault point at or past k belongs to the latest-pointer
			// update, which Save performs after the commit; even then Save
			// errors (pointer update failed), so err is always non-nil.
			if !storage.IsInjected(err) {
				t.Fatalf("k=%d torn=%v: err = %v, want injected", k, torn, err)
			}

			// Recovery happens on the durable state ("after reboot").
			// Invariant 1: the previous checkpoint is intact, bit for bit.
			if err := VerifyCommit(base, "run/checkpoint-100"); err != nil {
				t.Fatalf("k=%d torn=%v: previous checkpoint damaged: %v", k, torn, err)
			}
			if d := treeDigest(t, base, "run/checkpoint-100"); d != prevDigest {
				t.Fatalf("k=%d torn=%v: previous checkpoint bytes changed", k, torn)
			}

			// Invariant 2: the new checkpoint is all or nothing. If the
			// final directory exists it must be the complete, committed,
			// byte-exact checkpoint; otherwise only staging residue may
			// remain.
			if base.Exists("run/checkpoint-200") {
				if err := VerifyCommit(base, "run/checkpoint-200"); err != nil {
					t.Fatalf("k=%d torn=%v: published checkpoint not committed: %v", k, torn, err)
				}
				if d := treeDigest(t, base, "run/checkpoint-200"); d != nextDigest {
					t.Fatalf("k=%d torn=%v: published checkpoint differs from fault-free save", k, torn)
				}
			}

			// Invariant 3: resolution never yields a hybrid — Latest finds
			// a committed checkpoint that restores to exactly one of the
			// two source states.
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

			// Invariant 4: Repair leaves a fully healthy run root, and the
			// next save over the repaired root succeeds.
			if _, err := Repair(base, "run"); err != nil {
				t.Fatalf("k=%d torn=%v: repair: %v", k, torn, err)
			}
			statuses, err := Scan(base, "run")
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range statuses {
				if st.State != StateCommitted {
					t.Fatalf("k=%d torn=%v: %s still %v after repair", k, torn, st.Path, st.State)
				}
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

// Replace-in-place is the hardest window: re-saving an existing
// checkpoint dir removes the old tree before renaming the staged one in,
// so for a moment the only copy is the sealed staging dir. Exploration
// proves that after any crash plus Repair the directory holds exactly the
// old or the new bytes (Repair rolls a sealed-but-unpublished staging dir
// forward instead of deleting it).
func TestCrashPointExplorationReplaceInPlace(t *testing.T) {
	mOld, oOld := buildOptim(t, modelcfg.Tiny(), 95)
	mNew, oNew := buildOptim(t, modelcfg.Tiny(), 96)
	spec := func(m *model.Model, o *optim.AdamW) SaveSpec {
		return SaveSpec{Dir: "run/checkpoint-200", Model: m, Optim: o, WorldSize: 2,
			Strategy: "full", State: TrainerState{Step: 200, Seed: 95}}
	}

	clean := storage.NewMem()
	if err := Save(clean, spec(mOld, oOld)); err != nil {
		t.Fatal(err)
	}
	oldDigest := treeDigest(t, clean, "run/checkpoint-200")
	if err := Save(clean, spec(mNew, oNew)); err != nil {
		t.Fatal(err)
	}
	newDigest := treeDigest(t, clean, "run/checkpoint-200")
	if oldDigest == newDigest {
		t.Fatal("fixture states collide; replace test is vacuous")
	}

	count := storage.NewMem()
	f := storage.NewFault(count)
	if err := Save(f, spec(mOld, oOld)); err != nil {
		t.Fatal(err)
	}
	f.FailAt(0)
	if err := Save(f, spec(mNew, oNew)); err != nil {
		t.Fatal(err)
	}
	n := int(f.Ops())

	for _, torn := range []bool{false, true} {
		for k := 1; k <= n; k++ {
			base := storage.NewMem()
			f := storage.NewFault(base)
			f.SetTorn(torn)
			if err := Save(f, spec(mOld, oOld)); err != nil {
				t.Fatal(err)
			}
			f.FailAt(k)
			if err := Save(f, spec(mNew, oNew)); !storage.IsInjected(err) {
				t.Fatalf("k=%d torn=%v: err = %v, want injected", k, torn, err)
			}

			// Repair must roll a sealed staging tree forward, never
			// delete the only surviving copy.
			if _, err := Repair(base, "run"); err != nil {
				t.Fatalf("k=%d torn=%v: repair: %v", k, torn, err)
			}
			if err := VerifyCommit(base, "run/checkpoint-200"); err != nil {
				t.Fatalf("k=%d torn=%v: checkpoint lost after repair: %v", k, torn, err)
			}
			switch d := treeDigest(t, base, "run/checkpoint-200"); d {
			case oldDigest, newDigest:
			default:
				t.Fatalf("k=%d torn=%v: replaced checkpoint is a hybrid", k, torn)
			}
			latest, err := Latest(base, "run")
			if err != nil || latest != "run/checkpoint-200" {
				t.Fatalf("k=%d torn=%v: latest = %q, %v", k, torn, latest, err)
			}
		}
	}
}

// Kill the async background writer mid-checkpoint. Wait must surface the
// injected error and the run root must still resolve to the last committed
// checkpoint. Run with -race: the fault fires on the saver's goroutine while
// the trainer thread, released by WaitCaptured, keeps mutating state.
func TestAsyncSaverCrashMidCheckpoint(t *testing.T) {
	mPrev, oPrev := buildOptim(t, modelcfg.Tiny(), 93)
	mNext, oNext := buildOptim(t, modelcfg.Tiny(), 94)

	// Count fault points of one async save so the crash can be planted at
	// several depths, including inside the container writes.
	count := storage.NewFault(storage.NewMem())
	s := NewLazyAsyncSaver(count, 2, CaptureOptions{})
	if err := s.Save(SaveSpec{Dir: "run/checkpoint-200", Model: mNext, Optim: oNext,
		WorldSize: 2, Strategy: "full", State: TrainerState{Step: 200, Seed: 94}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	n := int(count.Ops())

	for _, k := range []int{1, n / 2, n} {
		base := storage.NewMem()
		if err := Save(base, SaveSpec{Dir: "run/checkpoint-100", Model: mPrev, Optim: oPrev,
			WorldSize: 2, Strategy: "full", State: TrainerState{Step: 100, Seed: 93}}); err != nil {
			t.Fatal(err)
		}

		// Fresh "next" state per iteration: the trainer thread below
		// trashes it while the background writer crashes.
		mk, ok := buildOptim(t, modelcfg.Tiny(), 94)
		f := storage.NewFault(base)
		f.SetTorn(true)
		f.FailAt(k)
		saver := NewLazyAsyncSaver(f, 2, CaptureOptions{})
		if err := saver.Save(SaveSpec{Dir: "run/checkpoint-200", Model: mk, Optim: ok,
			WorldSize: 2, Strategy: "full", State: TrainerState{Step: 200, Seed: 94}}); err != nil {
			t.Fatal(err)
		}
		if err := saver.WaitCaptured(); err != nil {
			t.Fatal(err)
		}
		// Race the trainer thread against the crashing background writer.
		for _, ts := range mk.Tensors() {
			ts.Fill(42)
		}
		err := saver.Wait()
		if !storage.IsInjected(err) {
			t.Fatalf("k=%d: Wait = %v, want injected fault", k, err)
		}
		latest, lerr := Latest(base, "run")
		if lerr != nil || latest != "run/checkpoint-100" {
			t.Fatalf("k=%d: latest = %q, %v; want the last committed checkpoint", k, latest, lerr)
		}
		if _, _, _, err := Restore(base, latest, tensor.BF16); err != nil {
			t.Fatalf("k=%d: restore after async crash: %v", k, err)
		}
	}
}
