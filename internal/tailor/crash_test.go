package tailor

// Crash-point exploration for the merge path: every mutating storage
// operation of a full passthrough merge (weights + optimizer + configs +
// commit + pointer) fails in turn, and recovery must always land on a
// committed checkpoint — the previous merge output or the new one, never
// a hybrid, with the sources untouched.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/recipe"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

func mergeTreeDigest(t *testing.T, b storage.Backend, dir string) string {
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

func TestCrashPointExplorationFullMerge(t *testing.T) {
	cfg := modelcfg.Tiny()
	exploreMergeCrashPoints(t, cfg,
		recipe.Parity("run/checkpoint-5", "run/checkpoint-10", cfg, "merged-b"), false)
}

// A content-addressed output takes its form inside the transaction, so the
// same exploration holds with the tighter reading of "new": at every fault
// point the output name holds nothing, or the complete content-addressed
// checkpoint — never a plain one, never both forms.
func TestCrashPointExplorationDedupMerge(t *testing.T) {
	cfg := modelcfg.Tiny()
	exploreMergeCrashPoints(t, cfg,
		recipe.Parity("run/checkpoint-5", "run/checkpoint-10", cfg, "merged-b"), true)
}

// A weights-only blend publishes under the same transaction and moves no
// pointer: latest stays on the previous output throughout.
func TestCrashPointExplorationDedupBlend(t *testing.T) {
	exploreMergeCrashPoints(t, modelcfg.Tiny(), &recipe.Recipe{
		MergeMethod: "linear",
		Models: []recipe.WeightedSource{
			{Checkpoint: "run/checkpoint-5"},
			{Checkpoint: "run/checkpoint-10"},
		},
		Output: "merged-b",
	}, true)
}

// The raw-copy fast path (tensor extents plus whole shard files, armed by a
// single-source recipe) runs the same crash exploration: every fault point
// of the zero-decode merge must still land on previous-or-new-never-hybrid.
func TestCrashPointExplorationRawPassthroughMerge(t *testing.T) {
	cfg := modelcfg.Tiny()
	rec := singleSourceRecipe("run/checkpoint-10", "merged-b")

	// Sanity: this recipe really arms both raw paths before we explore it.
	b := storage.NewMem()
	newRun(t, b, cfg, 2, []int{5, 10}, nil)
	stats, err := Merge(b, rec, Options{Workers: 1, ChunkBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TensorsRawCopied == 0 || stats.ShardsRawCopied == 0 {
		t.Fatalf("recipe does not arm the raw paths: %+v", stats)
	}

	exploreMergeCrashPoints(t, cfg, rec, false)
}

// exploreMergeCrashPoints fails a merge of recB at every mutating storage
// operation (clean and torn) on top of a previously-committed merge output
// merged-a, asserting sources and the previous output survive untouched,
// the new output is all-or-nothing, resolution lands on a committed
// checkpoint, and repair-then-replay converges to the fault-free bytes. With
// dedup the new output is content-addressed (the store is the backend root's
// objects/; the previous output stays plain, so every blob is a put), and
// Repair plus a full GC must leave no blob unreferenced and no journal record
// stale.
func exploreMergeCrashPoints(t *testing.T, cfg *modelcfg.Config, recB *recipe.Recipe, dedup bool) {
	t.Helper()
	// Tiny chunks force multi-chunk container assembly, so torn-final-
	// chunk crash points exist inside every output file. Workers=1 keeps
	// the storage op sequence identical across replays.
	opts := Options{Workers: 1, ChunkBytes: 512, DedupOutput: dedup}
	recA := recipe.Parity("run/checkpoint-5", "run/checkpoint-10", cfg, "merged-a")

	// setup builds sources plus the previously-committed merge output
	// merged-a (whose root-level latest pointer is the single-segment edge
	// case: the run root is the backend root itself).
	setup := func() *storage.Mem {
		b := storage.NewMem()
		newRun(t, b, cfg, 2, []int{5, 10}, nil)
		if _, err := Merge(b, recA, Options{Workers: 1, ChunkBytes: 512}); err != nil {
			t.Fatal(err)
		}
		return b
	}

	clean := setup()
	prevDigest := mergeTreeDigest(t, clean, "merged-a")
	srcDigest := mergeTreeDigest(t, clean, "run")
	if _, err := Merge(clean, recB, opts); err != nil {
		t.Fatal(err)
	}
	nextDigest := mergeTreeDigest(t, clean, "merged-b")

	// Count the fault points of the merged-b merge.
	count := setup()
	f := storage.NewFault(count)
	if _, err := Merge(f, recB, opts); err != nil {
		t.Fatal(err)
	}
	if d := mergeTreeDigest(t, count, "merged-b"); d != nextDigest {
		t.Fatal("merge is not byte-deterministic; crash exploration would be meaningless")
	}
	n := int(f.Ops())
	if n < 10 {
		t.Fatalf("suspiciously few fault points in a full merge: %d", n)
	}
	t.Logf("exploring %d crash points × {clean, torn}", n)

	for _, torn := range []bool{false, true} {
		for k := 1; k <= n; k++ {
			base := setup()
			f := storage.NewFault(base)
			f.SetTorn(torn)
			f.FailAt(k)
			_, err := Merge(f, recB, opts)
			if !storage.IsInjected(err) {
				t.Fatalf("k=%d torn=%v: err = %v, want injected", k, torn, err)
			}

			// Sources and the previous merge output are untouched.
			if d := mergeTreeDigest(t, base, "run"); d != srcDigest {
				t.Fatalf("k=%d torn=%v: merge crash damaged the sources", k, torn)
			}
			if err := ckpt.VerifyCommit(base, "merged-a"); err != nil {
				t.Fatalf("k=%d torn=%v: previous output damaged: %v", k, torn, err)
			}
			if d := mergeTreeDigest(t, base, "merged-a"); d != prevDigest {
				t.Fatalf("k=%d torn=%v: previous output bytes changed", k, torn)
			}

			// The new output is all or nothing.
			if base.Exists("merged-b") {
				if err := ckpt.VerifyCommit(base, "merged-b"); err != nil {
					t.Fatalf("k=%d torn=%v: published output not committed: %v", k, torn, err)
				}
				if d := mergeTreeDigest(t, base, "merged-b"); d != nextDigest {
					t.Fatalf("k=%d torn=%v: published output differs from fault-free merge", k, torn)
				}
			}

			// Root-level resolution lands on a committed output.
			latest, lerr := ckpt.Latest(base, "")
			if lerr != nil {
				t.Fatalf("k=%d torn=%v: latest: %v", k, torn, lerr)
			}
			if latest != "merged-a" && latest != "merged-b" {
				t.Fatalf("k=%d torn=%v: latest = %q", k, torn, latest)
			}
			if _, _, _, err := ckpt.Restore(base, latest, tensor.BF16); err != nil {
				t.Fatalf("k=%d torn=%v: restore %s: %v", k, torn, latest, err)
			}

			// Repair clears residue; replaying the merge converges to the
			// fault-free bytes.
			if _, err := ckpt.Repair(base, ""); err != nil {
				t.Fatalf("k=%d torn=%v: repair: %v", k, torn, err)
			}
			statuses, err := ckpt.Scan(base, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range statuses {
				if st.State != ckpt.StateCommitted {
					t.Fatalf("k=%d torn=%v: %s still %v after repair", k, torn, st.Path, st.State)
				}
				if dedup && st.Path == recB.Output && (!ckpt.IsDedup(base, st.Path) || base.Exists(st.Path+"/model.ltsf")) {
					t.Fatalf("k=%d torn=%v: %s is published plain, or in both forms", k, torn, st.Path)
				}
			}
			if dedup {
				if _, err := ckpt.GC(base, ""); err != nil {
					t.Fatalf("k=%d torn=%v: gc after repair: %v", k, torn, err)
				}
				rep, err := ckpt.ScanRun(base, "", ckpt.ScanViews{Blobs: true, Refs: true})
				if err != nil {
					t.Fatal(err)
				}
				for _, bl := range rep.Blobs {
					if bl.State != ckpt.BlobReferenced {
						t.Fatalf("k=%d torn=%v: blob %s is %v after repair + gc", k, torn, bl.Path, bl.State)
					}
				}
				for _, rs := range rep.Refs {
					if rs.State != ckpt.RefOK {
						t.Fatalf("k=%d torn=%v: record %s is %v after repair + gc", k, torn, rs.Path, rs.State)
					}
				}
			}
			if _, err := Merge(base, recB, opts); err != nil {
				t.Fatalf("k=%d torn=%v: merge after repair: %v", k, torn, err)
			}
			if d := mergeTreeDigest(t, base, "merged-b"); d != nextDigest {
				t.Fatalf("k=%d torn=%v: post-repair merge differs from fault-free merge", k, torn)
			}
		}
	}
}

// The merge engine must read containers correctly under adversarial
// short reads (no io.Read full-buffer assumptions anywhere on the path).
func TestMergeUnderShortReads(t *testing.T) {
	cfg := modelcfg.Tiny()
	b := storage.NewMem()
	newRun(t, b, cfg, 2, []int{5, 10}, nil)
	rec := recipe.Parity("run/checkpoint-5", "run/checkpoint-10", cfg, "merged")
	opts := Options{Workers: 1, ChunkBytes: 512}

	clean := storage.NewMem()
	newRun(t, clean, cfg, 2, []int{5, 10}, nil)
	if _, err := Merge(clean, rec, opts); err != nil {
		t.Fatal(err)
	}
	want := mergeTreeDigest(t, clean, "merged")

	f := storage.NewFault(b)
	f.SetShortReads(true)
	if _, err := Merge(f, rec, opts); err != nil {
		t.Fatal(err)
	}
	if got := mergeTreeDigest(t, b, "merged"); got != want {
		t.Fatal("short reads changed merge output")
	}
}
