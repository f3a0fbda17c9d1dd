package ckpt

// Crash-point exploration and concurrency stress for the lazy capture
// path: every mutating storage operation of a lazily-captured dedup save
// fails in turn (clean and torn), and the recovery invariants of the
// commit protocol must hold exactly as they do for synchronous saves —
// previous-or-new-never-hybrid, all-or-nothing publication, and
// Repair+GC convergence.

import (
	"fmt"
	"testing"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

// mutateLayer advances one layer's state the way a training step does: the
// master floats move first, then the layer's model tensors are rewritten as
// their rounded image, and the group generations advance. Mutating weights
// directly would break the model == round(master) invariant every writer
// keeps and Verify checks (Restore returns the stored weights as they are),
// so the saved state would not be one training produces.
func mutateLayer(t *testing.T, m *model.Model, o *optim.AdamW, target modelcfg.LayerRef, delta float32) {
	t.Helper()
	for gi, g := range o.Layout.Groups {
		if !g.HasLayer || g.Layer != target {
			continue
		}
		st := o.States[gi]
		for j := 0; j < len(st.Master); j += 61 {
			st.Master[j] += delta
		}
		off := 0
		for _, name := range g.Names {
			mt, err := m.Tensor(name)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < mt.Len(); k++ {
				mt.Set(k, st.Master[off+k])
			}
			off += mt.Len()
		}
		o.Gens[gi]++
	}
}

// lazySave pushes one spec through a fresh lazy saver to completion and
// returns the combined error — the lazy analogue of a blocking Save.
func lazySave(b storage.Backend, spec SaveSpec) error {
	s := NewLazyAsyncSaver(b, 1, CaptureOptions{})
	if err := s.Save(spec); err != nil {
		s.Wait()
		return err
	}
	if err := s.WaitCaptured(); err != nil {
		s.Wait()
		return err
	}
	return s.Wait()
}

func TestCrashPointExplorationLazyCapture(t *testing.T) {
	mPrev, oPrev := buildOptim(t, modelcfg.Tiny(), 160)
	// The next state shares most content with the previous one (a single
	// block mutated), so the explored save exercises the interesting lazy
	// paths: referenced payloads with no spool, the post-journal blob
	// verification, and a spooled payload for the changed layer.
	mNext := mPrev.Clone()
	oNext := oPrev.Clone(mNext)
	mutateLayer(t, mNext, oNext, modelcfg.Block(0), 1)
	specFor := func(dir string, step int, m *model.Model, o *optim.AdamW) SaveSpec {
		return SaveSpec{Dir: dir, Model: m, Optim: o, WorldSize: 2, Strategy: "full",
			Dedup: true, State: TrainerState{Step: step, Seed: 160}}
	}

	// Ground truth from fault-free SYNCHRONOUS saves: the lazy path must
	// publish byte-identical trees, so its crash exploration can verify
	// against the sync digests.
	clean := storage.NewMem()
	if err := Save(clean, specFor("run/checkpoint-100", 100, mPrev, oPrev)); err != nil {
		t.Fatal(err)
	}
	prevDigest := treeDigest(t, clean, "run/checkpoint-100")
	if err := Save(clean, specFor("run/checkpoint-200", 200, mNext, oNext)); err != nil {
		t.Fatal(err)
	}
	nextDigest := treeDigest(t, clean, "run/checkpoint-200")

	// Count the fault points of the second lazy save. Capture itself only
	// reads the backend (spools live in memory or OS temp files); every
	// mutation — journal record, blob puts, staging, commit, publish,
	// pointer — happens in the write stage.
	f := storage.NewFault(storage.NewMem())
	if err := lazySave(f, specFor("run/checkpoint-100", 100, mPrev, oPrev)); err != nil {
		t.Fatal(err)
	}
	f.FailAt(0)
	if err := lazySave(f, specFor("run/checkpoint-200", 200, mNext, oNext)); err != nil {
		t.Fatal(err)
	}
	n := int(f.Ops())
	if n < 10 {
		t.Fatalf("suspiciously few fault points in a lazy dedup save: %d", n)
	}
	if d := treeDigest(t, f, "run/checkpoint-200"); d != nextDigest {
		t.Fatal("fault-free lazy save is not byte-identical to the sync save")
	}
	t.Logf("exploring %d crash points × {clean, torn}", n)

	for _, torn := range []bool{false, true} {
		for k := 1; k <= n; k++ {
			base := storage.NewMem()
			f := storage.NewFault(base)
			f.SetTorn(torn)
			if err := lazySave(f, specFor("run/checkpoint-100", 100, mPrev, oPrev)); err != nil {
				t.Fatal(err)
			}
			f.FailAt(k)
			if err := lazySave(f, specFor("run/checkpoint-200", 200, mNext, oNext)); !storage.IsInjected(err) {
				t.Fatalf("k=%d torn=%v: err = %v, want injected", k, torn, err)
			}

			// Invariant 1: the previous checkpoint is intact — dir bytes
			// unchanged and every blob reference resolvable.
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

			// Invariant 4: Repair + GC converge and the save retries
			// cleanly through the lazy path.
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
			if problems := refProblems(t, base, "run"); len(problems) != 0 {
				t.Fatalf("k=%d torn=%v: ref-index problems after repair+gc: %+v", k, torn, problems)
			}
			if err := lazySave(base, specFor("run/checkpoint-200", 200, mNext, oNext)); err != nil {
				t.Fatalf("k=%d torn=%v: lazy save after repair: %v", k, torn, err)
			}
			if d := treeDigest(t, base, "run/checkpoint-200"); d != nextDigest {
				t.Fatalf("k=%d torn=%v: post-repair save differs from fault-free save", k, torn)
			}
		}
	}
}

// TestLazyCaptureStress hammers back-to-back lazy saves while the live
// state keeps mutating between WaitCaptured and the next Save — captures
// overlap earlier saves' background writes, pooled spools are recycled
// across saves, and the tiny spool budget forces the file-backed
// fallback. Every published checkpoint must restore exactly the state
// captured at its Save call: no hybrids, no torn spool reuse. Run under
// -race this doubles as the data-race proof for capture.
func TestLazyCaptureStress(t *testing.T) {
	for _, dedup := range []bool{true, false} {
		t.Run(fmt.Sprintf("dedup=%v", dedup), func(t *testing.T) {
			b := storage.NewMem()
			// 64 KiB spool budget: most payloads overflow to file spools,
			// and the pool recycles the rest across saves.
			s := NewLazyAsyncSaver(b, 2, CaptureOptions{Workers: 4, spoolBytes: 64 << 10})
			cfg := modelcfg.Tiny()
			m, o := buildOptim(t, cfg, 170)
			refs := cfg.AllLayers()

			const saves = 8
			type expect struct {
				m *model.Model
				o *optim.AdamW
			}
			var want []expect
			for i := 1; i <= saves; i++ {
				if i > 1 {
					// Step one rotating layer, master-first, the way
					// AdamW.Step would.
					mutateLayer(t, m, o, refs[i%len(refs)], float32(i))
				}
				mc := m.Clone()
				want = append(want, expect{m: mc, o: o.Clone(mc)})
				err := s.Save(SaveSpec{
					Dir: fmt.Sprintf("run/checkpoint-%d", i*10), Model: m, Optim: o,
					WorldSize: 2, Strategy: "full", Dedup: dedup,
					LayerGens: o.LayerGens(),
					State:     TrainerState{Step: i * 10, Seed: 170},
				})
				if err != nil {
					t.Fatal(err)
				}
				// WaitCaptured releases the live state; the write stages of
				// this and earlier saves keep running while the next
				// iteration mutates.
				if err := s.WaitCaptured(); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Wait(); err != nil {
				t.Fatal(err)
			}
			stats := s.CaptureStats()
			if stats.Saves != saves {
				t.Fatalf("stats.Saves = %d, want %d", stats.Saves, saves)
			}
			if stats.Pool.FileSpools == 0 {
				t.Error("tiny spool budget never hit the file-backed fallback")
			}
			for i := 1; i <= saves; i++ {
				dir := fmt.Sprintf("run/checkpoint-%d", i*10)
				if err := VerifyCommit(b, dir); err != nil {
					t.Fatalf("%s: %v", dir, err)
				}
				rm, ro, _, err := Restore(b, dir, tensor.BF16)
				if err != nil {
					t.Fatalf("restore %s: %v", dir, err)
				}
				if !model.Equal(rm, want[i-1].m) {
					t.Fatalf("%s: weights do not match the state captured at its Save", dir)
				}
				if !sameOptim(ro, want[i-1].o) {
					t.Fatalf("%s: optimizer state does not match the state captured at its Save", dir)
				}
			}
		})
	}
}
