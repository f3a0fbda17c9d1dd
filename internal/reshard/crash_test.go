package reshard

// Systematic crash-point exploration for the reshard transform: every
// mutating storage operation of a fault-free reshard fails in turn (clean
// and torn), on both the rename-based filesystem backend and the
// no-rename object store. After every crash the recovery invariants must
// hold: the source checkpoint is untouched bit for bit, the destination
// is all or nothing (committed byte-exact or not published — never a
// hybrid), and Repair converges to a state from which the reshard retries
// to the fault-free bytes.

import (
	"testing"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/model"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

func exploreReshardCrash(t *testing.T, newBackend func() storage.Backend) {
	m, o := buildOptim(t, 67)
	const src, dst = "run/checkpoint-30", "run/resharded"

	// Ground truth: a fault-free save + reshard on a clean backend.
	clean := newBackend()
	saveAt(t, clean, src, m, o, 3, 30, false)
	srcDigest := treeDigest(t, clean, src)
	if _, err := Reshard(clean, src, dst, 2, Options{}); err != nil {
		t.Fatal(err)
	}
	dstDigest := treeDigest(t, clean, dst)

	// Count the fault points of the reshard alone (the save stays
	// disarmed).
	f := storage.NewFault(newBackend())
	saveAt(t, f, src, m, o, 3, 30, false)
	f.FailAt(0)
	if _, err := Reshard(f, src, dst, 2, Options{}); err != nil {
		t.Fatal(err)
	}
	n := int(f.Ops())
	if n < 5 {
		t.Fatalf("suspiciously few fault points in a reshard: %d", n)
	}
	t.Logf("exploring %d crash points × {clean, torn}", n)

	for _, torn := range []bool{false, true} {
		for k := 1; k <= n; k++ {
			base := newBackend()
			f := storage.NewFault(base)
			f.SetTorn(torn)
			saveAt(t, f, src, m, o, 3, 30, false)
			f.FailAt(k)
			if _, err := Reshard(f, src, dst, 2, Options{}); !storage.IsInjected(err) {
				t.Fatalf("k=%d torn=%v: err = %v, want injected", k, torn, err)
			}

			// Invariant 1: the source is never modified — it verifies and
			// its bytes are unchanged.
			if err := ckpt.VerifyCommit(base, src); err != nil {
				t.Fatalf("k=%d torn=%v: source damaged: %v", k, torn, err)
			}
			if d := treeDigest(t, base, src); d != srcDigest {
				t.Fatalf("k=%d torn=%v: source bytes changed", k, torn)
			}

			// Invariant 2: the destination is all or nothing. A readable
			// commit marker must cap the complete, byte-exact output (on
			// the object store staging and final paths coincide, so torn
			// partial objects may sit at the final path — they must never
			// verify); without a readable marker nothing may verify.
			if _, err := ckpt.ReadCommitMarker(base, dst); err == nil {
				if err := ckpt.VerifyCommit(base, dst); err != nil {
					t.Fatalf("k=%d torn=%v: marker over a torn output: %v", k, torn, err)
				}
				if d := treeDigest(t, base, dst); d != dstDigest {
					t.Fatalf("k=%d torn=%v: published output differs from fault-free reshard", k, torn)
				}
			} else if err := ckpt.VerifyCommit(base, dst); err == nil {
				t.Fatalf("k=%d torn=%v: VerifyCommit passed without a readable marker", k, torn)
			}

			// Invariant 3: Repair converges — every surviving directory is
			// committed — and the reshard retries to the fault-free bytes.
			if _, err := ckpt.Repair(base, "run"); err != nil {
				t.Fatalf("k=%d torn=%v: repair: %v", k, torn, err)
			}
			statuses, err := ckpt.Scan(base, "run")
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range statuses {
				if st.State != ckpt.StateCommitted {
					t.Fatalf("k=%d torn=%v: %s still %v after repair", k, torn, st.Path, st.State)
				}
			}
			if _, err := Reshard(base, src, dst, 2, Options{}); err != nil {
				t.Fatalf("k=%d torn=%v: reshard after repair: %v", k, torn, err)
			}
			if d := treeDigest(t, base, dst); d != dstDigest {
				t.Fatalf("k=%d torn=%v: post-repair reshard differs from fault-free reshard", k, torn)
			}
			rm, ro, c, err := ckpt.Restore(base, dst, tensor.BF16)
			if err != nil {
				t.Fatalf("k=%d torn=%v: restore: %v", k, torn, err)
			}
			if c.State.WorldSize != 2 || !model.Equal(rm, m) || !sameOptim(ro, o) {
				t.Fatalf("k=%d torn=%v: post-repair output is a hybrid", k, torn)
			}
			latest, err := ckpt.Latest(base, "run")
			if err != nil || latest != dst {
				t.Fatalf("k=%d torn=%v: latest = %q, %v", k, torn, latest, err)
			}
		}
	}
}

func TestCrashPointExplorationReshard(t *testing.T) {
	exploreReshardCrash(t, func() storage.Backend { return storage.NewMem() })
}

func TestCrashPointExplorationReshardObjStore(t *testing.T) {
	exploreReshardCrash(t, func() storage.Backend { return storage.NewObjStore() })
}

// TestCrashPointExplorationReshardDedup explores crashes of a dedup →
// dedup reshard: the source is content-addressed and the output takes its
// content-addressed form inside the transaction, before it is published. So
// at every crash point, before and after Repair, the output name holds
// nothing or the complete content-addressed checkpoint — never a plain one,
// never both forms — and the blobs the source pins must survive Repair + GC.
func TestCrashPointExplorationReshardDedup(t *testing.T) {
	exploreReshardDedupCrash(t, func() storage.Backend { return storage.NewMem() }, false, true)
}

// The no-rename twin: object-store PUTs are atomic, so there is no torn mode.
func TestCrashPointExplorationReshardDedupObjStore(t *testing.T) {
	exploreReshardDedupCrash(t, func() storage.Backend { return storage.NewObjStore() }, false)
}

func refStatuses(t *testing.T, b storage.Backend) []ckpt.RefStatus {
	t.Helper()
	scan, err := ckpt.ScanRun(b, "run", ckpt.ScanViews{Refs: true})
	if err != nil {
		t.Fatal(err)
	}
	return scan.Refs
}

func exploreReshardDedupCrash(t *testing.T, newBackend func() storage.Backend, torns ...bool) {
	m, o := buildOptim(t, 71)
	const src, dst = "run/checkpoint-40", "run/resharded"

	clean := newBackend()
	saveAt(t, clean, src, m, o, 3, 40, true)
	srcDigest := treeDigest(t, clean, src)
	if _, err := Reshard(clean, src, dst, 2, Options{Dedup: true}); err != nil {
		t.Fatal(err)
	}
	dedupDigest := treeDigest(t, clean, dst)

	f := storage.NewFault(newBackend())
	saveAt(t, f, src, m, o, 3, 40, true)
	f.FailAt(0)
	if _, err := Reshard(f, src, dst, 2, Options{Dedup: true}); err != nil {
		t.Fatal(err)
	}
	n := int(f.Ops())
	if n < 5 {
		t.Fatalf("suspiciously few fault points in a dedup reshard: %d", n)
	}
	t.Logf("exploring %d crash points × torn %v", n, torns)

	for _, torn := range torns {
		for k := 1; k <= n; k++ {
			base := newBackend()
			f := storage.NewFault(base)
			f.SetTorn(torn)
			saveAt(t, f, src, m, o, 3, 40, true)
			f.FailAt(k)
			if _, err := Reshard(f, src, dst, 2, Options{Dedup: true}); !storage.IsInjected(err) {
				t.Fatalf("k=%d torn=%v: err = %v, want injected", k, torn, err)
			}

			// The source directory is untouched.
			if d := treeDigest(t, base, src); d != srcDigest {
				t.Fatalf("k=%d torn=%v: source bytes changed", k, torn)
			}
			// What is published is the finished output, before any repair.
			published := func(when string) {
				if ckpt.CheckCommit(base, dst) != nil {
					return
				}
				if d := treeDigest(t, base, dst); d != dedupDigest {
					t.Fatalf("k=%d torn=%v: %s the published output is plain, or holds both forms", k, torn, when)
				}
			}
			published("at the crash")

			// Repair + GC converge with every surviving blob referenced,
			// and the source still restores — the crashed conversion must
			// not have freed anything the source pins.
			if _, err := ckpt.Repair(base, "run"); err != nil {
				t.Fatalf("k=%d torn=%v: repair: %v", k, torn, err)
			}
			if _, err := ckpt.GC(base, "run"); err != nil {
				t.Fatalf("k=%d torn=%v: gc: %v", k, torn, err)
			}
			scan, err := ckpt.ScanRun(base, "run", ckpt.ScanViews{Blobs: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range scan.Blobs {
				if s.State != ckpt.BlobReferenced {
					t.Fatalf("k=%d torn=%v: blob %s still %v after gc", k, torn, s.Path, s.State)
				}
			}
			rm, ro, _, err := ckpt.Restore(base, src, tensor.BF16)
			if err != nil {
				t.Fatalf("k=%d torn=%v: source unrestorable after repair+gc: %v", k, torn, err)
			}
			if !model.Equal(rm, m) || !sameOptim(ro, o) {
				t.Fatalf("k=%d torn=%v: source restore is a hybrid", k, torn)
			}

			// The name holds nothing, or the finished output.
			published("after repair")
			if base.Exists(dst) && ckpt.CheckCommit(base, dst) != nil || base.Exists(ckpt.StagingDir(dst)) {
				t.Fatalf("k=%d torn=%v: repair left an unpublished tree under the output name", k, torn)
			}
			for _, rs := range refStatuses(t, base) {
				if rs.State != ckpt.RefOK {
					t.Fatalf("k=%d torn=%v: record %s is %v after repair + gc", k, torn, rs.Path, rs.State)
				}
			}

			// The retry lands the fault-free content-addressed bytes.
			if _, err := Reshard(base, src, dst, 2, Options{Dedup: true}); err != nil {
				t.Fatalf("k=%d torn=%v: reshard after repair: %v", k, torn, err)
			}
			if d := treeDigest(t, base, dst); d != dedupDigest {
				t.Fatalf("k=%d torn=%v: post-repair reshard differs from fault-free reshard", k, torn)
			}
			rm, ro, c, err := ckpt.Restore(base, dst, tensor.BF16)
			if err != nil {
				t.Fatalf("k=%d torn=%v: restore output: %v", k, torn, err)
			}
			if c.State.WorldSize != 2 || !model.Equal(rm, m) || !sameOptim(ro, o) {
				t.Fatalf("k=%d torn=%v: output restore is a hybrid", k, torn)
			}
		}
	}
}
