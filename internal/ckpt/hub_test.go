package ckpt

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

// attachHub wires a run root to a hub with the storage primitives (this
// package sits below internal/hub, so tests attach by hand).
func attachHub(t testing.TB, b storage.Backend, hubRoot, runRoot, id string) {
	t.Helper()
	if err := storage.WriteHubConfig(b, hubRoot); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteHubRun(b, hubRoot, &storage.HubRun{Version: 1, ID: id, Root: runRoot}); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteHubRef(b, objectsPath(runRoot), &storage.HubRef{Version: 1, Hub: hubRoot, Run: id}); err != nil {
		t.Fatal(err)
	}
}

// hubBlobCount lists the hub store's published blobs.
func hubBlobCount(t testing.TB, b storage.Backend, hubRoot string) int {
	t.Helper()
	store, err := storage.OpenCAS(b, storage.HubObjectsRoot(hubRoot))
	if err != nil {
		t.Fatal(err)
	}
	blobs, _, _, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	return len(blobs)
}

// TestHubCrossRunDedup: two runs attached to one hub share base-layer
// blobs. The second run's unchanged payloads write zero bytes — the
// cross-run dedup the hub exists for — and both runs restore bit-exact
// from the shared store.
func TestHubCrossRunDedup(t *testing.T) {
	b := storage.NewMem()
	attachHub(t, b, "hub", "runa", "runa")
	attachHub(t, b, "hub", "runb", "runb")

	// Run A publishes the base model.
	mA, oA := saveDedup(t, b, "runa/checkpoint-10", 501, 2)
	base := hubBlobCount(t, b, "hub")
	if base == 0 {
		t.Fatal("run A wrote no blobs into the hub")
	}

	// Run B saves the SAME tensors (deterministic same-seed build): every
	// payload deduplicates against run A's blobs — zero new store entries.
	saveDedup(t, b, "runb/checkpoint-10", 501, 2)
	if n := hubBlobCount(t, b, "hub"); n != base {
		t.Fatalf("identical cross-run save grew the store: %d -> %d blobs", base, n)
	}

	// The measured form: a plain run-B checkpoint published content-addressed
	// against the hub reuses everything. BlobBytesWritten == 0 is the "second run's
	// unchanged base layers write zero payload bytes" guarantee;
	// BytesDeduped accounts for the whole payload.
	mB2, oB2 := buildOptim(t, modelcfg.Tiny(), 501)
	if err := Save(b, SaveSpec{Dir: "plainb/checkpoint-20", Model: mB2, Optim: oB2,
		WorldSize: 2, Strategy: "full",
		State: TrainerState{Step: 20, Seed: 501}}); err != nil {
		t.Fatal(err)
	}
	rep := publishDedup(t, b, "plainb/checkpoint-20", "runb/checkpoint-20")
	if rep.BlobsPut != 0 || rep.BlobBytesWritten != 0 {
		t.Fatalf("cross-run dedup wrote payload: %+v", rep)
	}
	if rep.BlobsReused == 0 || rep.BytesDeduped == 0 {
		t.Fatalf("no dedup accounted: %+v", rep)
	}

	// A genuinely different run-B step does write (only) its new content.
	saveDedup(t, b, "runb/checkpoint-30", 777, 2)
	if n := hubBlobCount(t, b, "hub"); n <= base {
		t.Fatal("divergent save added no blobs")
	}

	// Round-trip both runs from the shared store.
	rm, ro, _, err := Restore(b, "runa/checkpoint-10", tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}
	if !model.Equal(rm, mA) || !sameOptim(ro, oA) {
		t.Fatal("run A restore diverged")
	}
	rm, ro, _, err = Restore(b, "runb/checkpoint-20", tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}
	if !model.Equal(rm, mB2) || !sameOptim(ro, oB2) {
		t.Fatal("run B restore diverged")
	}
}

// TestHubUnionPinGC: a digest referenced by ANY attached run survives
// every sweep flavour triggered from a peer — retention, generational,
// full GC and HubGC — and becomes reclaimable only when dead everywhere.
func TestHubUnionPinGC(t *testing.T) {
	b := storage.NewMem()
	attachHub(t, b, "hub", "runa", "runa")
	attachHub(t, b, "hub", "runb", "runb")

	// Shared base: both runs reference the same blobs.
	saveDedup(t, b, "runa/checkpoint-10", 610, 2)
	mB, oB := saveDedup(t, b, "runb/checkpoint-10", 610, 2)
	saveDedup(t, b, "runa/checkpoint-20", 611, 2)

	// Run A retains only its newest checkpoint: the dropped base blobs are
	// still run B's entire checkpoint, so the union pins every one.
	before := hubBlobCount(t, b, "hub")
	rrep, err := Retain(b, "runa", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rrep.Removed) != 1 {
		t.Fatalf("retain = %+v", rrep)
	}
	if n := hubBlobCount(t, b, "hub"); n != before {
		t.Fatalf("run A retention reclaimed peer-pinned blobs: %d -> %d", before, n)
	}
	for _, gc := range []func() (*GCReport, error){
		func() (*GCReport, error) { return GCGenerational(b, "runa", false) },
		func() (*GCReport, error) { return GC(b, "runa") },
	} {
		rep, err := gc()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.RemovedBlobs) != 0 {
			t.Fatalf("peer-pinned blobs swept: %+v", rep.RemovedBlobs)
		}
	}
	hrep, err := HubGC(b, "hub", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(hrep.RemovedBlobs) != 0 {
		t.Fatalf("hub gc swept pinned blobs: %+v", hrep.RemovedBlobs)
	}
	rm, ro, _, err := Restore(b, "runb/checkpoint-10", tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}
	if !model.Equal(rm, mB) || !sameOptim(ro, oB) {
		t.Fatal("run B restore diverged after run A sweeps")
	}

	// Once run B also drops the base (replaced by a new step), the blobs
	// are dead across ALL runs and get reclaimed — by run B's own
	// retention sweep (which carries the union pins) or the hub GC after.
	saveDedup(t, b, "runb/checkpoint-20", 612, 2)
	beforeDrop := hubBlobCount(t, b, "hub")
	if _, err := Retain(b, "runb", 1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := HubGC(b, "hub", false); err != nil {
		t.Fatal(err)
	}
	if n := hubBlobCount(t, b, "hub"); n >= beforeDrop {
		t.Fatalf("globally dead base never reclaimed: %d -> %d blobs", beforeDrop, n)
	}
	if problems := refProblems(t, b, "runa"); len(problems) != 0 {
		t.Fatalf("run A ref problems: %+v", problems)
	}
	if problems := refProblems(t, b, "runb"); len(problems) != 0 {
		t.Fatalf("run B ref problems: %+v", problems)
	}
}

// TestHubGCRacingConcurrentSave hammers run-A sweeps (retention,
// generational, hub-level) against a stream of run-B dedup saves on the
// shared store. Every run-B checkpoint must commit and restore bit-exact
// whatever interleaving the scheduler picks. Run with -race.
func TestHubGCRacingConcurrentSave(t *testing.T) {
	b := storage.NewMem()
	attachHub(t, b, "hub", "runa", "runa")
	attachHub(t, b, "hub", "runb", "runb")
	saveDedup(t, b, "runa/checkpoint-10", 700, 2)

	const saves = 10
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
			m, o := buildOptim(t, modelcfg.Tiny(), uint64(700+i))
			states[i], optims[i] = m, o
			if err := Save(b, SaveSpec{Dir: fmt.Sprintf("runb/checkpoint-%d", i*10),
				Model: m, Optim: o, WorldSize: 2, Strategy: "full", Dedup: true,
				State: TrainerState{Step: i * 10, Seed: uint64(700 + i)}}); err != nil {
				select {
				case saveErr <- fmt.Errorf("save %d: %w", i, err):
				default:
				}
				return
			}
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			// Rotate run A's content so its retention keeps trashing old
			// generations while run B saves land.
			m, o := buildOptim(t, modelcfg.Tiny(), uint64(900+i))
			if err := Save(b, SaveSpec{Dir: fmt.Sprintf("runa/checkpoint-%d", 20+i*10),
				Model: m, Optim: o, WorldSize: 2, Strategy: "full", Dedup: true,
				State: TrainerState{Step: 20 + i*10, Seed: uint64(900 + i)}}); err != nil {
				t.Errorf("run A save %d: %v", i, err)
				return
			}
			if _, err := Retain(b, "runa", 1, false); err != nil {
				t.Errorf("retain: %v", err)
				return
			}
			if _, err := GCGenerational(b, "runa", false); err != nil {
				t.Errorf("generational gc: %v", err)
				return
			}
			if _, err := HubGC(b, "hub", false); err != nil {
				t.Errorf("hub gc: %v", err)
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

	// Quiesce: repair both runs, then verify every run-B checkpoint
	// restores bit-exact — no sweep may have eaten a cross-run blob.
	for _, run := range []string{"runa", "runb"} {
		if _, err := Repair(b, run); err != nil {
			t.Fatalf("repair %s: %v", run, err)
		}
	}
	for i := 1; i <= saves; i++ {
		dir := fmt.Sprintf("runb/checkpoint-%d", i*10)
		rm, ro, _, err := Restore(b, dir, tensor.BF16)
		if err != nil {
			t.Fatalf("restore %s: %v", dir, err)
		}
		if !model.Equal(rm, states[i]) || !sameOptim(ro, optims[i]) {
			t.Fatalf("%s diverged after racing hub sweeps", dir)
		}
	}
	if problems := refProblems(t, b, "runb"); len(problems) != 0 {
		t.Fatalf("run B ref problems: %+v", problems)
	}
}

// TestHubCrashPointExplorationRetainVsPeer injects a crash at every fault
// point of run A's retention sweep and, separately, of HubGC, on a hub
// where run B's only checkpoint shares every blob with the victim. At no
// crash point may run B lose a blob: its checkpoint must verify and
// restore bit-exact from the durable state, before and after repair.
//
// The retain-xor scenario composes codec × hub × retention: run B's kept
// checkpoint is delta-coded against blobs whose only remaining direct
// reference is run A's retention victim, so run A's Retain(1) must be held
// off by nothing but the ancestor chains in run B's journal record.
func TestHubCrashPointExplorationRetainVsPeer(t *testing.T) {
	build := func() (*storage.Fault, storage.Backend) {
		mem := storage.NewMem()
		f := storage.NewFault(mem)
		attachHub(t, f, "hub", "runa", "runa")
		attachHub(t, f, "hub", "runb", "runb")
		// runa/checkpoint-10 and runb/checkpoint-10 share every blob
		// (same seed) — the union pin must protect them. runa/checkpoint-15
		// holds exclusive content, so run A's retention genuinely trashes
		// and purges blobs, giving the crash exploration real fault
		// points. Orphan junk in the store gives HubGC the same.
		saveDedup(t, f, "runa/checkpoint-10", 810, 2)
		saveDedup(t, f, "runb/checkpoint-10", 810, 2)
		saveDedup(t, f, "runa/checkpoint-15", 899, 2)
		saveDedup(t, f, "runa/checkpoint-20", 811, 2)
		store, err := storage.OpenCAS(mem, storage.HubObjectsRoot("hub"))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, _, err := putBytes(store, []byte(fmt.Sprintf("orphan-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		return f, mem
	}
	mB, oB := buildOptim(t, modelcfg.Tiny(), 810)

	// Run B's state after one small step on one layer, saved xor-coded on
	// top of a generation identical to run A's checkpoint-10.
	mX, oX := buildOptim(t, modelcfg.Tiny(), 810)
	perturbLayer(t, mX, oX, modelcfg.Tiny(), 1, 1)
	buildXor := func() (*storage.Fault, storage.Backend) {
		mem := storage.NewMem()
		f := storage.NewFault(mem)
		attachHub(t, f, "hub", "runa", "runa")
		attachHub(t, f, "hub", "runb", "runb")
		m, o := buildOptim(t, modelcfg.Tiny(), 810)
		for _, dir := range []string{"runa/checkpoint-10", "runb/checkpoint-10"} {
			if err := Save(f, codecSpec(dir, 10, m, o, "xor", 0)); err != nil {
				t.Fatal(err)
			}
		}
		if err := Save(f, codecSpec("runb/checkpoint-20", 20, mX, oX, "xor", 0)); err != nil {
			t.Fatal(err)
		}
		// Run B drops its own copy of the parent generation, run A moves
		// on: the parents of run B's deltas are now referenced directly by
		// runa/checkpoint-10 alone. runa/checkpoint-15 is exclusive content,
		// so the retention also trashes and purges for real.
		if _, err := Retain(f, "runb", 1, false); err != nil {
			t.Fatal(err)
		}
		saveDedup(t, f, "runa/checkpoint-15", 899, 2)
		saveDedup(t, f, "runa/checkpoint-20", 811, 2)
		cs, err := ReadCodecStats(mem, "runb/checkpoint-20")
		if err != nil || cs.Entries["xor-parent"] == 0 {
			t.Fatalf("run B's checkpoint holds no xor deltas: %+v, %v", cs, err)
		}
		return f, mem
	}

	retainA := func(b storage.Backend) error { _, err := Retain(b, "runa", 1, false); return err }
	scenarios := []struct {
		name  string
		build func() (*storage.Fault, storage.Backend)
		sweep func(b storage.Backend) error
		dir   string // run B's checkpoint that must survive
		model *model.Model
		optim *optim.AdamW
		torn  []bool
	}{
		{"retain", build, retainA, "runb/checkpoint-10", mB, oB, []bool{false}},
		{"hubgc", build, func(b storage.Backend) error { _, err := HubGC(b, "hub", false); return err },
			"runb/checkpoint-10", mB, oB, []bool{false}},
		{"retain-xor", buildXor, retainA, "runb/checkpoint-20", mX, oX, []bool{false, true}},
	}

	for _, sc := range scenarios {
		// Count the sweep's fault points on a disarmed run.
		f, _ := sc.build()
		f.FailAt(0)
		if err := sc.sweep(f); err != nil {
			t.Fatalf("%s: fault-free sweep: %v", sc.name, err)
		}
		n := int(f.Ops())
		if n < 3 {
			t.Fatalf("%s: degenerate scenario, only %d fault points", sc.name, n)
		}
		t.Logf("%s: exploring %d crash points", sc.name, n)

		for _, torn := range sc.torn {
			for k := 1; k <= n; k++ {
				f, mem := sc.build()
				f.SetTorn(torn)
				f.FailAt(k)
				if err := sc.sweep(f); !storage.IsInjected(err) {
					t.Fatalf("%s k=%d: err = %v, want injected", sc.name, k, err)
				}
				// Run B's checkpoint survives the crash as-is: trash is
				// two-phase, and the union pin restores anything mid-flight.
				if _, err := Repair(mem, "runb"); err != nil {
					t.Fatalf("%s k=%d: repair runb: %v", sc.name, k, err)
				}
				if err := VerifyCommit(mem, sc.dir); err != nil {
					t.Fatalf("%s k=%d: run B checkpoint damaged: %v", sc.name, k, err)
				}
				rm, ro, _, err := Restore(mem, sc.dir, tensor.BF16)
				if err != nil {
					t.Fatalf("%s k=%d: restore: %v", sc.name, k, err)
				}
				if !model.Equal(rm, sc.model) || !sameOptim(ro, sc.optim) {
					t.Fatalf("%s k=%d: run B bytes diverged", sc.name, k)
				}
				// Rerunning the sweep converges without damage.
				if err := sc.sweep(mem); err != nil {
					t.Fatalf("%s k=%d: resumed sweep: %v", sc.name, k, err)
				}
				if err := VerifyCommit(mem, sc.dir); err != nil {
					t.Fatalf("%s k=%d: run B damaged by resumed sweep: %v", sc.name, k, err)
				}
			}
		}
	}
}

// TestScanRefsRefusesChainedHub: a run attached to a hub whose store is
// itself attached elsewhere is refused by every view of the doctor, the ref
// index view included, as it is by every other operation.
func TestScanRefsRefusesChainedHub(t *testing.T) {
	b := storage.NewMem()
	attachHub(t, b, "hub", "run", "run")
	saveDedup(t, b, "run/checkpoint-10", 330, 2)
	if err := storage.WriteHubRef(b, storage.HubObjectsRoot("hub"), &storage.HubRef{Version: 1, Hub: "other", Run: "hub"}); err != nil {
		t.Fatal(err)
	}
	for _, views := range []ScanViews{{Refs: true}, {Blobs: true}} {
		if _, err := ScanRun(b, "run", views); err == nil || !strings.Contains(err.Error(), "chained") {
			t.Errorf("ScanRun(%+v) on a chained hub: %v, want refusal", views, err)
		}
	}
	if _, err := GC(b, "run"); err == nil || !strings.Contains(err.Error(), "chained") {
		t.Errorf("GC on a chained hub: %v, want refusal", err)
	}
}

// TestRunScopeJournalNamespace: an attached run journals under the hub's
// refs/<run-id>/ namespace, resolved from its hubref by the run's scope; an
// unattached run keeps the flat refs dir.
func TestRunScopeJournalNamespace(t *testing.T) {
	b := storage.NewMem()
	runIndex := func(runRoot string) *storage.RefIndex {
		t.Helper()
		scope, err := openRunScope(b, runRoot)
		if err != nil {
			t.Fatal(err)
		}
		return scope.self.ix
	}
	if ix := runIndex("solo"); ix.Dir() != "solo/objects/refs" {
		t.Fatalf("unattached: dir=%s", ix.Dir())
	}

	attachHub(t, b, "hub", "runs/a", "runa")
	ix := runIndex("runs/a")
	want := storage.HubObjectsRoot("hub") + "/refs/runa"
	if ix.Dir() != want {
		t.Fatalf("dir = %s, want %s", ix.Dir(), want)
	}
	gen, err := ix.NextGeneration()
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Append(&storage.RefRecord{Generation: gen, Key: "checkpoint-10",
		Digests: []string{strings.Repeat("ab", 32)}}); err != nil {
		t.Fatal(err)
	}
	entries, _, _, err := ix.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Key != "checkpoint-10" {
		t.Fatalf("entries = %+v", entries)
	}

	// A second run's namespace is disjoint: it sees none of runa's records.
	attachHub(t, b, "hub", "runs/b", "runb")
	entries, _, _, err = runIndex("runs/b").Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("runb sees runa's records: %+v", entries)
	}
}
