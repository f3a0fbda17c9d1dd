package ckpt

// Crash-point exploration and stress for the write-objects-then-manifest
// commit protocol: dedup saves on a no-rename object store, where the
// COMMITTED marker's single atomic PUT is the publication. Every mutating
// operation fails in turn (clean and torn) and the previous-or-new-
// never-hybrid invariant must hold, exactly as it does for the rename
// protocol on filesystems.

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

func TestCrashPointExplorationObjStoreSave(t *testing.T) {
	mPrev, oPrev := buildOptim(t, modelcfg.Tiny(), 150)
	mNext, oNext := buildOptim(t, modelcfg.Tiny(), 151)
	specFor := func(dir string, step int, m *model.Model, o *optim.AdamW) SaveSpec {
		return SaveSpec{Dir: dir, Model: m, Optim: o, WorldSize: 2, Strategy: "full",
			Dedup: true, State: TrainerState{Step: step, Seed: 150}}
	}

	// Ground truth: fault-free saves on a clean object store, and the same
	// pair on a local filesystem-like backend. The checkpoint directories
	// must be byte-identical across the two protocols — the commit
	// machinery differs, the published tree must not.
	clean := storage.NewObjStore()
	if err := Save(clean, specFor("run/checkpoint-100", 100, mPrev, oPrev)); err != nil {
		t.Fatal(err)
	}
	prevDigest := treeDigest(t, clean, "run/checkpoint-100")
	if err := Save(clean, specFor("run/checkpoint-200", 200, mNext, oNext)); err != nil {
		t.Fatal(err)
	}
	nextDigest := treeDigest(t, clean, "run/checkpoint-200")
	local := storage.NewMem()
	if err := Save(local, specFor("run/checkpoint-100", 100, mPrev, oPrev)); err != nil {
		t.Fatal(err)
	}
	if d := treeDigest(t, local, "run/checkpoint-100"); d != prevDigest {
		t.Fatalf("object-store checkpoint differs from the local one")
	}

	// Count the fault points of the second save (blob puts included).
	f := storage.NewFault(storage.NewObjStore())
	if err := Save(f, specFor("run/checkpoint-100", 100, mPrev, oPrev)); err != nil {
		t.Fatal(err)
	}
	f.FailAt(0)
	if err := Save(f, specFor("run/checkpoint-200", 200, mNext, oNext)); err != nil {
		t.Fatal(err)
	}
	n := int(f.Ops())
	if n < 10 {
		t.Fatalf("suspiciously few fault points in an object-store dedup save: %d", n)
	}
	t.Logf("exploring %d crash points × {clean, torn}", n)

	for _, torn := range []bool{false, true} {
		for k := 1; k <= n; k++ {
			base := storage.NewObjStore()
			f := storage.NewFault(base)
			f.SetTorn(torn)
			if err := Save(f, specFor("run/checkpoint-100", 100, mPrev, oPrev)); err != nil {
				t.Fatal(err)
			}
			f.FailAt(k)
			if err := Save(f, specFor("run/checkpoint-200", 200, mNext, oNext)); !storage.IsInjected(err) {
				t.Fatalf("k=%d torn=%v: err = %v, want injected", k, torn, err)
			}

			// Invariant 1: the previous checkpoint is untouched.
			if err := VerifyCommit(base, "run/checkpoint-100"); err != nil {
				t.Fatalf("k=%d torn=%v: previous checkpoint damaged: %v", k, torn, err)
			}
			if d := treeDigest(t, base, "run/checkpoint-100"); d != prevDigest {
				t.Fatalf("k=%d torn=%v: previous checkpoint bytes changed", k, torn)
			}

			// Invariant 2: a readable marker means the checkpoint is whole.
			// On an object store the staging and final paths coincide, so a
			// crashed save leaves marker-less (or, torn, marker-corrupt)
			// objects at the final path — that state must never verify, and
			// a marker that parses must cap a byte-exact checkpoint.
			if _, err := ReadCommitMarker(base, "run/checkpoint-200"); err == nil {
				if err := VerifyCommit(base, "run/checkpoint-200"); err != nil {
					t.Fatalf("k=%d torn=%v: readable marker over a torn checkpoint: %v", k, torn, err)
				}
				if d := treeDigest(t, base, "run/checkpoint-200"); d != nextDigest {
					t.Fatalf("k=%d torn=%v: published checkpoint differs from fault-free save", k, torn)
				}
			} else if err := VerifyCommit(base, "run/checkpoint-200"); err == nil {
				t.Fatalf("k=%d torn=%v: VerifyCommit passed without a readable marker", k, torn)
			}

			// Invariant 3: resolution yields exactly one of the two source
			// states — never a hybrid.
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

			// Invariant 4: Repair + GC converge to a healthy root and the
			// save retries to a byte-identical result.
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

// TestCrashPointExplorationObjStoreStagedWave: a no-rename dedup save writes
// its manifests and trailer files side by side before the marker. It fails at
// each write of that wave, clean and torn, 20 times each, so which writes are
// still in flight when the fault fires varies from run to run. Whatever
// landed, the run resolves to the previous checkpoint or the new one, never a
// hybrid, and Repair leaves a root that scans clean.
func TestCrashPointExplorationObjStoreStagedWave(t *testing.T) {
	mPrev, oPrev := buildOptim(t, modelcfg.Tiny(), 152)
	mNext, oNext := buildOptim(t, modelcfg.Tiny(), 153)
	prev := SaveSpec{Dir: "run/checkpoint-100", Model: mPrev, Optim: oPrev, WorldSize: 2, Strategy: "full",
		Dedup: true, State: TrainerState{Step: 100, Seed: 152}}
	next := prev
	next.Dir, next.Model, next.Optim, next.State.Step = "run/checkpoint-200", mNext, oNext, 200

	// Locate the wave among the second save's fault points: from its first
	// staged write on, every op is a whole-object write — one fault point.
	log := &opLog{Fault: storage.NewFault(storage.NewObjStore())}
	if err := Save(log, prev); err != nil {
		t.Fatal(err)
	}
	log.reset()
	log.Fault.FailAt(0)
	if err := Save(log, next); err != nil {
		t.Fatal(err)
	}
	ops := canonicalOps(t, "save", log.ops)
	first, wave := slices.IndexFunc(ops, stagedOp), 0
	for _, op := range ops[first:] {
		if !strings.HasPrefix(op, "write ") {
			t.Fatalf("%q after the staged wave is not a whole-object write", op)
		}
		if stagedOp(op) {
			wave++
		}
	}
	if wave != 6 {
		t.Fatalf("%d staged writes, want 6 (model.ltmf, two rank manifests, three trailer files)", wave)
	}
	lo := int(log.Fault.Ops()) - (len(ops) - first) + 1

	for _, torn := range []bool{false, true} {
		for k := lo; k < lo+wave; k++ {
			for rep := range 20 {
				base := storage.NewObjStore()
				f := storage.NewFault(base)
				f.SetTorn(torn)
				if err := Save(f, prev); err != nil {
					t.Fatal(err)
				}
				f.FailAt(k)
				err := Save(f, next)
				if !storage.IsInjected(err) || !strings.Contains(err.Error(), "write "+next.Dir+"/") {
					t.Fatalf("k=%d torn=%v rep=%d: err = %v, want an injected staged write", k, torn, rep, err)
				}
				if base.Exists(next.Dir + "/" + CommitMarkerName) {
					t.Fatalf("k=%d torn=%v rep=%d: the marker was written after a failed staged write", k, torn, rep)
				}
				latest, err := Latest(base, "run")
				if err != nil {
					t.Fatalf("k=%d torn=%v rep=%d: no resolvable checkpoint: %v", k, torn, rep, err)
				}
				rm, ro, c, err := Restore(base, latest, tensor.BF16)
				if err != nil {
					t.Fatalf("k=%d torn=%v rep=%d: restore %s: %v", k, torn, rep, latest, err)
				}
				if c.State.Step == 100 && (!model.Equal(rm, mPrev) || !sameOptim(ro, oPrev)) ||
					c.State.Step == 200 && (!model.Equal(rm, mNext) || !sameOptim(ro, oNext)) ||
					c.State.Step != 100 && c.State.Step != 200 {
					t.Fatalf("k=%d torn=%v rep=%d: step-%d restore is neither the previous state nor the new one", k, torn, rep, c.State.Step)
				}
				if _, err := Repair(base, "run"); err != nil {
					t.Fatalf("k=%d torn=%v rep=%d: repair: %v", k, torn, rep, err)
				}
				statuses, err := Scan(base, "run")
				if err != nil {
					t.Fatal(err)
				}
				for _, st := range statuses {
					if st.State != StateCommitted {
						t.Fatalf("k=%d torn=%v rep=%d: %s still %v after repair", k, torn, rep, st.Path, st.State)
					}
				}
				if problems := refProblems(t, base, "run"); len(problems) != 0 {
					t.Fatalf("k=%d torn=%v rep=%d: ref-index problems after repair: %+v", k, torn, rep, problems)
				}
			}
		}
	}
}

// TestShardedObjStoreRoundTrip pins the acceptance bar for the sharded
// CAS: a dedup save routed through a digest-sharded object store must
// publish a checkpoint directory byte-identical to a local save, restore
// bit-exact, and survive repair + GC with a clean index.
func TestShardedObjStoreRoundTrip(t *testing.T) {
	m, o := buildOptim(t, modelcfg.Tiny(), 160)
	spec := func(step int) SaveSpec {
		return SaveSpec{Dir: fmt.Sprintf("run/checkpoint-%d", step), Model: m, Optim: o,
			WorldSize: 2, Strategy: "full", Dedup: true,
			State: TrainerState{Step: step, Seed: 160}}
	}

	local := storage.NewMem()
	if err := Save(local, spec(100)); err != nil {
		t.Fatal(err)
	}
	want := treeDigest(t, local, "run/checkpoint-100")

	obj := storage.NewObjStore()
	if err := storage.InitShards(obj, objectsPath("run"), 4); err != nil {
		t.Fatalf("InitShards: %v", err)
	}
	if err := Save(obj, spec(100)); err != nil {
		t.Fatalf("sharded save: %v", err)
	}
	if got := treeDigest(t, obj, "run/checkpoint-100"); got != want {
		t.Fatalf("sharded checkpoint differs from local save")
	}

	// The blobs really live under shard directories, not the flat layout.
	if !obj.Exists(objectsPath("run") + "/" + storage.ShardConfigName) {
		t.Fatalf("shard config missing after save")
	}
	bs := doctorScan(t, obj, "run", ScanViews{Blobs: true}).Blobs
	if len(bs) == 0 {
		t.Fatalf("sharded save published no blobs")
	}
	used := map[string]bool{}
	for _, s := range bs {
		if s.State != BlobReferenced {
			t.Fatalf("blob %s is %v, want referenced", s.Path, s.State)
		}
		var shard int
		if _, err := fmt.Sscanf(s.Path, objectsPath("run")+"/shard-%d/", &shard); err != nil {
			t.Fatalf("blob %s not under a shard directory", s.Path)
		}
		used[fmt.Sprintf("shard-%d", shard)] = true
	}
	if len(bs) >= 8 && len(used) < 2 {
		t.Fatalf("%d blobs all routed to one shard: %v", len(bs), used)
	}

	rm, ro, c, err := Restore(obj, "run/checkpoint-100", tensor.BF16)
	if err != nil {
		t.Fatalf("restore through sharded store: %v", err)
	}
	if c.State.Step != 100 || !model.Equal(rm, m) || !sameOptim(ro, o) {
		t.Fatalf("sharded round-trip not bit-exact")
	}

	// A second identical save is a full dedup hit: same tree, same blobs.
	if err := Save(obj, spec(200)); err != nil {
		t.Fatal(err)
	}
	bs2 := doctorScan(t, obj, "run", ScanViews{Blobs: true}).Blobs
	if len(bs2) != len(bs) {
		t.Fatalf("identical payload grew the sharded store: %d -> %d blobs", len(bs), len(bs2))
	}

	if _, err := Repair(obj, "run"); err != nil {
		t.Fatalf("repair on sharded store: %v", err)
	}
	if _, err := GC(obj, "run"); err != nil {
		t.Fatalf("gc on sharded store: %v", err)
	}
	if problems := refProblems(t, obj, "run"); len(problems) != 0 {
		t.Fatalf("ref-index problems on sharded store: %+v", problems)
	}
}

// TestShardedGCRacingConcurrentSave hammers full GC against a stream of
// dedup saves on a two-shard object store. The sweeps partition by shard
// while the saves publish blobs across both; whatever interleaving the
// scheduler picks, every save must commit and every committed checkpoint
// must restore bit-exact. Run under -race this also pins the wrappers'
// and the sharded store's internal locking.
func TestShardedGCRacingConcurrentSave(t *testing.T) {
	obj := storage.NewObjStore()
	if err := storage.InitShards(obj, objectsPath("run"), 2); err != nil {
		t.Fatal(err)
	}
	const saves = 8
	states := make([]*model.Model, saves+1)
	optims := make([]*optim.AdamW, saves+1)

	var wg sync.WaitGroup
	done := make(chan struct{})
	saveErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 1; i <= saves; i++ {
			m, o := buildOptim(t, modelcfg.Tiny(), uint64(360+i))
			states[i], optims[i] = m, o
			dir := fmt.Sprintf("run/checkpoint-%d", i*10)
			if err := Save(obj, SaveSpec{Dir: dir, Model: m, Optim: o, WorldSize: 2,
				Strategy: "full", Dedup: true, State: TrainerState{Step: i * 10, Seed: uint64(360 + i)}}); err != nil {
				select {
				case saveErr <- fmt.Errorf("save %s: %w", dir, err):
				default:
				}
				return
			}
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := GC(obj, "run"); err != nil {
				t.Errorf("concurrent gc on sharded store: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-saveErr:
		t.Fatal(err)
	default:
	}

	// Quiesce, then verify every committed checkpoint restores bit-exact.
	if _, err := Repair(obj, "run"); err != nil {
		t.Fatal(err)
	}
	if _, err := GC(obj, "run"); err != nil {
		t.Fatal(err)
	}
	dirs, err := List(obj, "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != saves {
		t.Fatalf("%d of %d checkpoints survived the race", len(dirs), saves)
	}
	for _, dir := range dirs {
		rm, ro, c, err := Restore(obj, dir, tensor.BF16)
		if err != nil {
			t.Fatalf("%s unrestorable after race: %v", dir, err)
		}
		i := c.State.Step / 10
		if i < 1 || i > saves || states[i] == nil {
			t.Fatalf("%s restored unknown step %d", dir, c.State.Step)
		}
		if !model.Equal(rm, states[i]) || !sameOptim(ro, optims[i]) {
			t.Fatalf("%s differs from the state that produced it", dir)
		}
	}
	if problems := refProblems(t, obj, "run"); len(problems) != 0 {
		t.Fatalf("ref-index problems after race: %+v", problems)
	}
}
