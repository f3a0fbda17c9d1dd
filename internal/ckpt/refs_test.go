package ckpt

// Unit coverage for the journaled ref index's checkpoint-side machinery:
// record binding at save time, generational retirement, retention, the
// doctor audit states, and rebuild-from-manifests.

import (
	"strings"
	"testing"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

// mustRefIndex opens the run's (possibly hub-resolved) ref index.
func mustRefIndex(t *testing.T, b storage.Backend, runRoot string) *storage.RefIndex {
	t.Helper()
	ix, err := storage.OpenRefIndex(b, objectsPath(runRoot))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// refEntries lists the run's journal entries.
func refEntries(t *testing.T, b storage.Backend, runRoot string) []storage.RefEntry {
	t.Helper()
	entries, _, _, err := mustRefIndex(t, b, runRoot).Entries()
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// refProblems counts audit findings that doctor treats as problems.
func refProblems(t *testing.T, b storage.Backend, runRoot string) []RefStatus {
	t.Helper()
	statuses, err := ScanRefs(b, runRoot)
	if err != nil {
		t.Fatal(err)
	}
	var out []RefStatus
	for _, s := range statuses {
		if s.State != RefOK && s.State != RefSuperseded {
			out = append(out, s)
		}
	}
	return out
}

// TestDedupSaveJournalsRecord: a dedup save appends exactly one record,
// bound to the published directory via manifest ref_gen, whose digest set
// equals the manifests'.
func TestDedupSaveJournalsRecord(t *testing.T) {
	b := storage.NewMem()
	saveDedup(t, b, "run/checkpoint-100", 201, 2)
	entries := refEntries(t, b, "run")
	if len(entries) != 1 || entries[0].Key != "checkpoint-100" {
		t.Fatalf("entries = %+v", entries)
	}
	man, err := ReadManifest(b, "run/checkpoint-100")
	if err != nil {
		t.Fatal(err)
	}
	if man.RefGen != entries[0].Generation || man.RefGen == 0 {
		t.Fatalf("manifest ref_gen %d, record generation %d", man.RefGen, entries[0].Generation)
	}
	rec, err := mustRefIndex(t, b, "run").Read(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	refs, err := BlobRefs(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Digests) != len(refs) {
		t.Fatalf("record pins %d digests, manifests reference %d", len(rec.Digests), len(refs))
	}
	for _, d := range rec.Digests {
		if refs[d] == 0 {
			t.Fatalf("record digest %s not in manifests", d)
		}
	}
	if problems := refProblems(t, b, "run"); len(problems) != 0 {
		t.Fatalf("fresh save has index problems: %+v", problems)
	}
	// An identical re-save (crash retry) reuses the generation: the journal
	// stays one record and the tree stays byte-deterministic.
	m, o := buildOptim(t, modelcfg.Tiny(), 201)
	if err := Save(b, SaveSpec{Dir: "run/checkpoint-100", Model: m, Optim: o, WorldSize: 2,
		Strategy: "full", Dedup: true, State: TrainerState{Step: 100, Seed: 201}}); err != nil {
		t.Fatal(err)
	}
	if entries := refEntries(t, b, "run"); len(entries) != 1 {
		t.Fatalf("identical re-save grew the journal: %+v", entries)
	}
}

// TestGCGenerationalRetiresSuperseded: replacing a checkpoint in place
// supersedes its old generation; the generational sweep reclaims exactly
// the old state's exclusive blobs without listing the store or reading
// any container manifest history.
func TestGCGenerationalRetiresSuperseded(t *testing.T) {
	b := storage.NewMem()
	m1, o1 := saveDedup(t, b, "run/checkpoint-100", 210, 2)
	m2, o2 := buildOptim(t, modelcfg.Tiny(), 211)
	save := func(dir string, step int, mm *model.Model, oo *optim.AdamW) {
		t.Helper()
		if err := Save(b, SaveSpec{Dir: dir, Model: mm, Optim: oo, WorldSize: 2,
			Strategy: "full", Dedup: true, State: TrainerState{Step: step, Seed: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	save("run/checkpoint-200", 200, m2, o2)
	save("run/checkpoint-200", 200, m1, o1) // replace: state 2's blobs orphan
	b.WriteFile("run/objects/.stage/put-1", []byte("residue"))

	// Dry run examines but removes nothing.
	dry, err := GCGenerational(b, "run", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(dry.RemovedBlobs) == 0 || dry.Examined == 0 {
		t.Fatalf("dry run found nothing: %+v", dry)
	}
	if got, _ := ScanBlobs(b, "run"); len(got) == 0 {
		t.Fatal("dry run mutated the store")
	}
	for _, d := range dry.RemovedBlobs {
		if !storage.NewBlobStore(b, "run/objects").Has(d) {
			t.Fatalf("dry run removed blob %s", d)
		}
	}

	rep, err := GCGenerational(b, "run", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RemovedBlobs) != len(dry.RemovedBlobs) || len(rep.IndexRetired) != 1 {
		t.Fatalf("gc = %+v", rep)
	}
	if len(rep.RemovedStaging) != 1 {
		t.Fatalf("staging residue not cleaned: %+v", rep)
	}
	// Both checkpoints restore bit-exact; a full GC agrees nothing is left.
	for _, dir := range []string{"run/checkpoint-100", "run/checkpoint-200"} {
		rm, ro, _, err := Restore(b, dir, tensor.BF16)
		if err != nil {
			t.Fatalf("%s after generational gc: %v", dir, err)
		}
		if !model.Equal(rm, m1) || !sameOptim(ro, o1) {
			t.Fatalf("%s differs after generational gc", dir)
		}
	}
	full, err := GC(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(full.RemovedBlobs) != 0 || len(full.IndexRetired) != 0 || len(full.IndexRepaired) != 0 {
		t.Fatalf("full gc disagrees with the generational sweep: %+v", full)
	}
	// Idempotent.
	again, err := GCGenerational(b, "run", false)
	if err != nil || len(again.RemovedBlobs) != 0 || len(again.IndexRetired) != 0 {
		t.Fatalf("second generational gc not a no-op: %+v, %v", again, err)
	}
}

// TestGCGenerationalPinsOrphanedRecords: a record with no directory behind
// it (exactly what an in-flight save looks like) pins its digests against
// the generational sweep; only quiescent Repair retires it.
func TestGCGenerationalPinsOrphanedRecords(t *testing.T) {
	b := storage.NewMem()
	saveDedup(t, b, "run/checkpoint-100", 212, 2)
	// Simulate an in-flight save: record journaled, blob published, no
	// directory yet.
	blobStore := storage.NewBlobStore(b, "run/objects")
	d, _, err := putBytes(blobStore, []byte("mid-save payload"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendRefRecord(storage.NewRefIndex(b, "run/objects"), "run/checkpoint-999", 999, []string{d}); err != nil {
		t.Fatal(err)
	}
	// Force a retirement so the sweep actually runs: replace ckpt-100.
	m, o := buildOptim(t, modelcfg.Tiny(), 213)
	if err := Save(b, SaveSpec{Dir: "run/checkpoint-100", Model: m, Optim: o, WorldSize: 2,
		Strategy: "full", Dedup: true, State: TrainerState{Step: 100, Seed: 3}}); err != nil {
		t.Fatal(err)
	}
	rep, err := GCGenerational(b, "run", false)
	if err != nil {
		t.Fatal(err)
	}
	if !blobStore.Has(d) {
		t.Fatal("generational gc swept a blob pinned only by an orphaned record")
	}
	if rep.IndexStale == 0 {
		t.Fatalf("orphaned record not reported stale: %+v", rep)
	}
	// Quiescent repair retires the orphan; a full GC then reclaims.
	if _, err := Repair(b, "run"); err != nil {
		t.Fatal(err)
	}
	if _, err := GC(b, "run"); err != nil {
		t.Fatal(err)
	}
	if blobStore.Has(d) {
		t.Fatal("orphaned blob survived repair + full gc")
	}
}

// TestRetainKeepLast: retention drops the oldest checkpoints, retires
// their generations and sweeps their exclusive blobs, while shared content
// and the keepers survive.
func TestRetainKeepLast(t *testing.T) {
	b := storage.NewMem()
	cfg := modelcfg.Tiny()
	m, err := model.NewInitialized(cfg, tensor.BF16, 220)
	if err != nil {
		t.Fatal(err)
	}
	o, err := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		// Perturb one tensor per save so each generation has exclusive blobs.
		ts := m.Tensors()[0]
		ts.Set(0, ts.At(0)+float32(i))
		if err := Save(b, SaveSpec{Dir: DirName(i * 10), Model: m, Optim: o, WorldSize: 2,
			Strategy: "full", Dedup: true,
			State: TrainerState{Step: i * 10, Seed: 220},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Root-level run (runRoot ""): the single-segment edge case works too.
	dry, err := Retain(b, "", 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(dry.Removed) != 3 || len(dry.RemovedBlobs) == 0 {
		t.Fatalf("dry run = %+v", dry)
	}
	for _, v := range dry.Removed {
		if !b.Exists(v) {
			t.Fatalf("dry run removed %s", v)
		}
	}
	rep, err := Retain(b, "", 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Removed) != 3 || len(rep.Kept) != 2 || len(rep.RecordsRetired) != 3 {
		t.Fatalf("retain = %+v", rep)
	}
	if len(rep.RemovedBlobs) != len(dry.RemovedBlobs) {
		t.Fatalf("dry run predicted %d blobs, real run swept %d", len(dry.RemovedBlobs), len(rep.RemovedBlobs))
	}
	dirs, _ := List(b, "")
	if len(dirs) != 2 || dirs[0] != "checkpoint-40" || dirs[1] != "checkpoint-50" {
		t.Fatalf("dirs after retain = %v", dirs)
	}
	for _, dir := range dirs {
		if _, _, _, err := Restore(b, dir, tensor.BF16); err != nil {
			t.Fatalf("%s unrestorable after retain: %v", dir, err)
		}
	}
	// Latest pointer still resolves; full gc finds nothing more to do; the
	// index audit is clean.
	if latest, err := Latest(b, ""); err != nil || latest != "checkpoint-50" {
		t.Fatalf("latest = %q, %v", latest, err)
	}
	full, err := GC(b, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(full.RemovedBlobs) != 0 {
		t.Fatalf("retention left garbage only full gc found: %+v", full)
	}
	if problems := refProblems(t, b, ""); len(problems) != 0 {
		t.Fatalf("index problems after retain: %+v", problems)
	}
	// Fewer committed checkpoints than keep-last: no-op.
	noop, err := Retain(b, "", 10, false)
	if err != nil || len(noop.Removed) != 0 {
		t.Fatalf("retain above population removed %v, %v", noop.Removed, err)
	}
}

// TestRetainNeverRemovesLatestTarget: even when the pointer aims at an old
// checkpoint, retention spares it.
func TestRetainNeverRemovesLatestTarget(t *testing.T) {
	b := storage.NewMem()
	saveDedup(t, b, "run/checkpoint-10", 230, 1)
	saveDedup(t, b, "run/checkpoint-20", 231, 1)
	saveDedup(t, b, "run/checkpoint-30", 232, 1)
	if err := WriteLatestPointer(b, "run/checkpoint-10"); err != nil {
		t.Fatal(err)
	}
	rep, err := Retain(b, "run", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Exists("run/checkpoint-10") {
		t.Fatal("retention removed the latest pointer's target")
	}
	if b.Exists("run/checkpoint-20") || len(rep.Removed) != 1 {
		t.Fatalf("retain = %+v", rep)
	}
}

// TestScanRefsStates drives every audit state the doctor reports.
func TestScanRefsStates(t *testing.T) {
	b := storage.NewMem()
	saveDedup(t, b, "run/checkpoint-100", 240, 2)
	ix := mustRefIndex(t, b, "run")

	// ref-missing: drop the bound record.
	entries := refEntries(t, b, "run")
	if err := ix.Remove(entries[0]); err != nil {
		t.Fatal(err)
	}
	statuses, _ := ScanRefs(b, "run")
	if len(statuses) != 1 || statuses[0].State != RefMissing {
		t.Fatalf("missing: %+v", statuses)
	}

	// Rebuild restores it with the manifest generation.
	rep, err := ReconcileRefIndex(b, "run")
	if err != nil || len(rep.WrittenRecords) != 1 {
		t.Fatalf("reconcile = %+v, %v", rep, err)
	}
	man, _ := ReadManifest(b, "run/checkpoint-100")
	entries = refEntries(t, b, "run")
	if len(entries) != 1 || entries[0].Generation != man.RefGen {
		t.Fatalf("rebuilt entries = %+v, want generation %d", entries, man.RefGen)
	}
	if problems := refProblems(t, b, "run"); len(problems) != 0 {
		t.Fatalf("problems after rebuild: %+v", problems)
	}

	// ref-orphaned: a record with no directory.
	if err := ix.Append(&storage.RefRecord{Key: "checkpoint-777", Generation: 99}); err != nil {
		t.Fatal(err)
	}
	// ref-corrupt: flip bytes of a valid record name.
	b.WriteFile("run/objects/refs/gen-000000000050-checkpoint-50.ref", []byte("not json"))
	// ref-staging: crashed append residue.
	b.WriteFile("run/objects/refs/gen-000000000051-checkpoint-51.ref.tmp", []byte("{"))
	// ref-divergent: rewrite the bound record with a wrong digest set.
	if err := ix.Append(&storage.RefRecord{Key: "checkpoint-100", Generation: man.RefGen,
		Digests: []string{strings.Repeat("ab", 32)}}); err != nil {
		t.Fatal(err)
	}
	found := map[RefState]int{}
	statuses, err = ScanRefs(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range statuses {
		found[s.State]++
	}
	for _, want := range []RefState{RefOrphaned, RefCorrupt, RefStaging, RefDivergent} {
		if found[want] != 1 {
			t.Fatalf("state %v found %d times: %+v", want, found[want], statuses)
		}
	}

	// Reconcile fixes all of it.
	if _, err := ReconcileRefIndex(b, "run"); err != nil {
		t.Fatal(err)
	}
	if problems := refProblems(t, b, "run"); len(problems) != 0 {
		t.Fatalf("problems after reconcile: %+v", problems)
	}
	// The divergent record was rewritten from the manifests.
	entries = refEntries(t, b, "run")
	rec, err := ix.Read(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	refs, _ := BlobRefs(b, "run")
	for _, d := range rec.Digests {
		if refs[d] == 0 {
			t.Fatalf("reconciled record pins unknown digest %s", d)
		}
	}
}

// TestSupersededScanState: a replaced checkpoint's old record audits as
// superseded (reclaimable), not as a problem.
func TestSupersededScanState(t *testing.T) {
	b := storage.NewMem()
	saveDedup(t, b, "run/checkpoint-100", 250, 1)
	m, o := buildOptim(t, modelcfg.Tiny(), 251)
	if err := Save(b, SaveSpec{Dir: "run/checkpoint-100", Model: m, Optim: o, WorldSize: 1,
		Strategy: "full", Dedup: true, State: TrainerState{Step: 100, Seed: 5}}); err != nil {
		t.Fatal(err)
	}
	statuses, err := ScanRefs(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	var superseded, ok int
	for _, s := range statuses {
		switch s.State {
		case RefSuperseded:
			superseded++
		case RefOK:
			ok++
		default:
			t.Fatalf("unexpected state %v: %+v", s.State, s)
		}
	}
	if superseded != 1 || ok != 1 {
		t.Fatalf("superseded=%d ok=%d", superseded, ok)
	}
}

// TestDedupifyJournalsRecord: a content-addressed publication journals a
// record and binds it through the manifest.json it restages.
func TestDedupifyJournalsRecord(t *testing.T) {
	b := storage.NewMem()
	saveFull(t, b, "run/checkpoint-10", 260, 2)
	publishDedup(t, b, "run/checkpoint-10")
	entries := refEntries(t, b, "run")
	if len(entries) != 1 {
		t.Fatalf("entries = %+v", entries)
	}
	man, err := ReadManifest(b, "run/checkpoint-10")
	if err != nil {
		t.Fatal(err)
	}
	if man.RefGen != entries[0].Generation {
		t.Fatalf("manifest ref_gen %d, record generation %d", man.RefGen, entries[0].Generation)
	}
	if problems := refProblems(t, b, "run"); len(problems) != 0 {
		t.Fatalf("problems after dedupify: %+v", problems)
	}
}

// TestGCFullRebuildsMissingIndex: deleting the whole index is repaired by
// the next full GC — the rebuild-from-manifests invariant.
func TestGCFullRebuildsMissingIndex(t *testing.T) {
	b := storage.NewMem()
	saveDedup(t, b, "run/checkpoint-100", 270, 2)
	saveDedup(t, b, "run/checkpoint-200", 271, 2)
	if err := b.Remove("run/objects/refs"); err != nil {
		t.Fatal(err)
	}
	rep, err := GC(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.IndexRepaired) != 2 || len(rep.RemovedBlobs) != 0 {
		t.Fatalf("gc = %+v", rep)
	}
	if problems := refProblems(t, b, "run"); len(problems) != 0 {
		t.Fatalf("problems after rebuild: %+v", problems)
	}
	// The rebuilt records carry the manifests' generations, so the binding
	// survives the round trip.
	for _, dir := range []string{"run/checkpoint-100", "run/checkpoint-200"} {
		man, _ := ReadManifest(b, dir)
		foundGen := false
		for _, e := range refEntries(t, b, "run") {
			if e.Key == RefKey(dir) && e.Generation == man.RefGen {
				foundGen = true
			}
		}
		if !foundGen {
			t.Fatalf("%s: no record at manifest generation %d", dir, man.RefGen)
		}
	}
}
