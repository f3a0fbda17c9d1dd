package ckpt

import (
	"fmt"
	"strings"
	"testing"

	"llmtailor/internal/modelcfg"
	"llmtailor/internal/storage"
)

// corrupt applies a byte-level mutilation to one file of a committed
// checkpoint without touching its marker.
func corrupt(t *testing.T, b storage.Backend, name string, f func([]byte) []byte) {
	t.Helper()
	data, err := b.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WriteFile(name, f(data)); err != nil {
		t.Fatal(err)
	}
}

// TestScanClassifiesEveryDirState covers the full recovery taxonomy:
// committed, missing marker, CRC mismatch, size mismatch, orphaned
// staging, and an (OS-backend) empty checkpoint directory.
func TestScanClassifiesEveryDirState(t *testing.T) {
	b := storage.NewMem()

	// committed
	saveFull(t, b, "run/checkpoint-10", 71, 2)
	// missing marker
	saveFull(t, b, "run/checkpoint-20", 72, 2)
	b.Remove("run/checkpoint-20/" + CommitMarkerName)
	// CRC mismatch (same size, flipped byte)
	saveFull(t, b, "run/checkpoint-30", 73, 2)
	corrupt(t, b, "run/checkpoint-30/model.ltsf", func(d []byte) []byte {
		d[len(d)-1] ^= 0xff
		return d
	})
	// size mismatch (truncated shard)
	saveFull(t, b, "run/checkpoint-40", 74, 2)
	corrupt(t, b, "run/checkpoint-40/"+ShardFileName(0), func(d []byte) []byte {
		return d[:len(d)-7]
	})
	// orphaned staging dir
	b.WriteFile("run/checkpoint-50.tmp/model.ltsf", []byte("partial"))
	// sealed-but-unpublished staging dir (crash between marker and rename)
	saveFull(t, b, "run/checkpoint-60", 86, 1)
	if err := b.Rename("run/checkpoint-60", "run/checkpoint-60.tmp"); err != nil {
		t.Fatal(err)
	}
	// unrelated directory: skipped entirely
	b.WriteFile("run/logs/out.txt", []byte("x"))
	// unrelated file at the root of the run: skipped
	b.WriteFile("run/notes.txt", []byte("x"))

	statuses, err := Scan(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		state  DirState
		detail string
	}{
		"run/checkpoint-10":     {StateCommitted, ""},
		"run/checkpoint-20":     {StateTorn, "missing COMMITTED marker"},
		"run/checkpoint-30":     {StateTorn, "CRC"},
		"run/checkpoint-40":     {StateTorn, "bytes"},
		"run/checkpoint-50.tmp": {StateOrphanTmp, "staging"},
		"run/checkpoint-60.tmp": {StateUnpublished, "not yet published"},
	}
	if len(statuses) != len(want) {
		t.Fatalf("scan found %d dirs, want %d: %+v", len(statuses), len(want), statuses)
	}
	for _, st := range statuses {
		w, ok := want[st.Path]
		if !ok {
			t.Errorf("unexpected dir %s in scan", st.Path)
			continue
		}
		if st.State != w.state {
			t.Errorf("%s: state %v, want %v (%s)", st.Path, st.State, w.state, st.Detail)
		}
		if w.detail != "" && !strings.Contains(st.Detail, w.detail) {
			t.Errorf("%s: detail %q does not mention %q", st.Path, st.Detail, w.detail)
		}
	}
	// Steps are recovered for ordering: the saved dirs all carry marker/
	// manifest step 3 (what saveFull records); the bare orphan falls back
	// to its directory name.
	if statuses[0].Step != 3 || statuses[len(statuses)-1].Step != 50 {
		t.Fatalf("scan steps out of order: %+v", statuses)
	}
}

// The empty-directory state only exists on OS backends (Mem directories
// are implied by their files).
func TestScanEmptyDirOnOSBackend(t *testing.T) {
	b, err := storage.NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	saveFull(t, b, "run/checkpoint-10", 75, 1)
	// An interrupted mkdir: the directory exists with nothing inside.
	if err := b.WriteFile("run/checkpoint-20/probe", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove("run/checkpoint-20/probe"); err != nil {
		t.Fatal(err)
	}
	statuses, err := Scan(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 2 {
		t.Fatalf("scan = %+v", statuses)
	}
	empty := statuses[len(statuses)-1]
	if empty.Path != "run/checkpoint-20" || empty.State != StateTorn ||
		!strings.Contains(empty.Detail, "empty") {
		t.Fatalf("empty dir classified as %+v", empty)
	}
}

// Single-segment run-root edge case from PR 1: a root-level output dir
// ("merged") whose run root is the backend root itself.
func TestScanSingleSegmentRunRoot(t *testing.T) {
	b := storage.NewMem()
	saveFull(t, b, "merged", 76, 1)
	statuses, err := Scan(b, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 1 || statuses[0].Path != "merged" || statuses[0].State != StateCommitted {
		t.Fatalf("root scan = %+v", statuses)
	}
	// Tear it: the scan must flag it even though the name is not
	// checkpoint-N (the marker makes it a candidate).
	corrupt(t, b, "merged/model.ltsf", func(d []byte) []byte {
		d[20] ^= 1
		return d
	})
	statuses, _ = Scan(b, "")
	if len(statuses) != 1 || statuses[0].State != StateTorn {
		t.Fatalf("torn root scan = %+v", statuses)
	}
}

func TestListSkipsUncommittedAndLatestFallsBack(t *testing.T) {
	b := storage.NewMem()
	saveFull(t, b, "run/checkpoint-10", 77, 1)
	saveFull(t, b, "run/checkpoint-20", 78, 1)
	// checkpoint-20 is the latest pointer target; tear it.
	b.Remove("run/checkpoint-20/" + CommitMarkerName)
	// An in-flight staging dir never shows up.
	b.WriteFile("run/checkpoint-30.tmp/model.ltsf", []byte("x"))

	dirs, err := List(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 1 || dirs[0] != "run/checkpoint-10" {
		t.Fatalf("list = %v", dirs)
	}
	latest, err := Latest(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if latest != "run/checkpoint-10" {
		t.Fatalf("latest fell back to %q, want run/checkpoint-10", latest)
	}
	// No committed checkpoint at all: Latest errors.
	b.Remove("run/checkpoint-10/" + CommitMarkerName)
	if _, err := Latest(b, "run"); err == nil {
		t.Fatal("latest resolved with no committed checkpoint")
	}
}

func TestRepairRemovesProblemsAndFixesPointer(t *testing.T) {
	b := storage.NewMem()
	saveFull(t, b, "run/checkpoint-10", 79, 1)
	saveFull(t, b, "run/checkpoint-20", 80, 1)
	b.Remove("run/checkpoint-20/" + CommitMarkerName) // torn, holds the pointer
	b.WriteFile("run/checkpoint-30.tmp/x", []byte("x"))
	b.WriteFile("run/latest.tmp", []byte("checkpoint-999")) // crashed pointer update

	// A sealed-but-unpublished save at step 40 must be rolled forward, not
	// deleted, and then owns the latest pointer as the newest commit.
	saveFull(t, b, "run/checkpoint-40", 87, 1)
	if err := b.Rename("run/checkpoint-40", "run/checkpoint-40.tmp"); err != nil {
		t.Fatal(err)
	}
	writeLatestPointer(b, "run/checkpoint-10")

	rep, err := Repair(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Removed) != 2 {
		t.Fatalf("removed = %v", rep.Removed)
	}
	if len(rep.Published) != 1 || rep.Published[0] != "run/checkpoint-40" {
		t.Fatalf("published = %v", rep.Published)
	}
	if !rep.LatestFixed || rep.Latest != "run/checkpoint-40" {
		t.Fatalf("repair report = %+v", rep)
	}
	if b.Exists("run/checkpoint-20") || b.Exists("run/checkpoint-30.tmp") ||
		b.Exists("run/checkpoint-40.tmp") || b.Exists("run/latest.tmp") {
		t.Fatal("repair left problem dirs behind")
	}
	if err := VerifyCommit(b, "run/checkpoint-40"); err != nil {
		t.Fatal(err)
	}
	latest, err := Latest(b, "run")
	if err != nil || latest != "run/checkpoint-40" {
		t.Fatalf("latest after repair = %q, %v", latest, err)
	}
	// Idempotent.
	rep2, err := Repair(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Removed) != 0 || rep2.LatestFixed {
		t.Fatalf("second repair not a no-op: %+v", rep2)
	}
}

func TestRepairWithNoSurvivorsRemovesPointer(t *testing.T) {
	b := storage.NewMem()
	saveFull(t, b, "run/checkpoint-10", 81, 1)
	b.Remove("run/checkpoint-10/" + CommitMarkerName)
	rep, err := Repair(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.LatestFixed || rep.Latest != "" {
		t.Fatalf("report = %+v", rep)
	}
	if b.Exists("run/latest") {
		t.Fatal("dangling pointer survived repair")
	}
}

// Satellite regression: the latest pointer must move atomically. A crash
// during the pointer update leaves the previous pointer intact — never a
// truncated or missing file.
func TestWriteLatestPointerAtomic(t *testing.T) {
	base := storage.NewMem()
	saveFull(t, base, "run/checkpoint-10", 82, 1)

	f := storage.NewFault(base)
	f.SetTorn(true)
	// Fault point 1 is the pointer-staging WriteFile, 2 the rename; under
	// either crash the durable pointer still names checkpoint-10.
	for k := 1; k <= 2; k++ {
		f.FailAt(k)
		if err := writeLatestPointer(f, "run/checkpoint-20"); !storage.IsInjected(err) {
			t.Fatalf("k=%d: err = %v", k, err)
		}
		got, err := base.ReadFile("run/latest")
		if err != nil {
			t.Fatalf("k=%d: pointer gone: %v", k, err)
		}
		if string(got) != "checkpoint-10" {
			t.Fatalf("k=%d: pointer = %q, want previous value", k, got)
		}
		base.Remove("run/latest.tmp")
	}
	// Unarmed, the update lands.
	f.Reset()
	if err := writeLatestPointer(f, "run/checkpoint-20"); err != nil {
		t.Fatal(err)
	}
	if got, _ := base.ReadFile("run/latest"); string(got) != "checkpoint-20" {
		t.Fatalf("pointer = %q", got)
	}
}

// Saving through a transaction must leave a marker that verifies, and any
// post-publication mutilation must be caught by VerifyCommit.
func TestCommitMarkerRoundtrip(t *testing.T) {
	b := storage.NewMem()
	saveFull(t, b, "run/checkpoint-5", 83, 2)
	if err := CheckCommit(b, "run/checkpoint-5"); err != nil {
		t.Fatal(err)
	}
	if err := VerifyCommit(b, "run/checkpoint-5"); err != nil {
		t.Fatal(err)
	}
	m, err := ReadCommitMarker(b, "run/checkpoint-5")
	if err != nil {
		t.Fatal(err)
	}
	if m.Step != 3 {
		t.Fatalf("marker step = %d", m.Step)
	}
	// The marker covers every checkpoint file (not itself).
	for _, f := range []string{"model.ltsf", "config.json", "trainer_state.json",
		"manifest.json", ShardFileName(0), ShardFileName(1)} {
		if _, ok := m.Files[f]; !ok {
			t.Errorf("marker missing %s (has %v)", f, m.Files)
		}
	}
	if _, ok := m.Files[CommitMarkerName]; ok {
		t.Error("marker lists itself")
	}
	// No staging residue.
	if b.Exists(StagingDir("run/checkpoint-5")) {
		t.Fatal("staging dir survived commit")
	}
	// CRC pass catches a flipped bit that size checks cannot.
	corrupt(t, b, "run/checkpoint-5/config.json", func(d []byte) []byte {
		d[0] ^= 1
		return d
	})
	if err := VerifyCommit(b, "run/checkpoint-5"); err == nil {
		t.Fatal("VerifyCommit missed a flipped bit")
	}
	if err := CheckCommit(b, "run/checkpoint-5"); err != nil {
		t.Fatalf("CheckCommit should pass on same-size corruption: %v", err)
	}
}

func TestSaveReplacesExistingCheckpoint(t *testing.T) {
	b := storage.NewMem()
	saveFull(t, b, "run/checkpoint-7", 84, 1)
	old, _ := b.ReadFile("run/checkpoint-7/model.ltsf")
	m, o := buildOptim(t, modelcfg.Tiny(), 85)
	if err := Save(b, SaveSpec{Dir: "run/checkpoint-7", Model: m, Optim: o,
		WorldSize: 1, Strategy: "full", State: TrainerState{Step: 7, Seed: 85}}); err != nil {
		t.Fatal(err)
	}
	if err := VerifyCommit(b, "run/checkpoint-7"); err != nil {
		t.Fatal(err)
	}
	now, _ := b.ReadFile("run/checkpoint-7/model.ltsf")
	if string(old) == string(now) {
		t.Fatal("replacement save kept old weights")
	}
}

// TestSaveRejectsNonCanonicalDir: a save into an alias of a committed
// checkpoint's directory — a trailing slash (whose staging dir+".tmp" lies
// inside the directory Commit replaces), "./", "//", "." segments, a leading
// slash — is refused before the backend is touched, plain or
// content-addressed, on a rename and a directory backend: the previous
// checkpoint still restores and latest still resolves to it.
func TestSaveRejectsNonCanonicalDir(t *testing.T) {
	osBack, err := storage.NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string]storage.Backend{"mem": storage.NewMem(), "os": osBack} {
		for _, dedup := range []bool{false, true} {
			run := fmt.Sprintf("run-%v", dedup)
			dir := run + "/checkpoint-10"
			m, o := buildOptim(t, modelcfg.Tiny(), 86)
			spec := SaveSpec{Dir: dir, Model: m, Optim: o, WorldSize: 2, Strategy: "full", Dedup: dedup,
				State: TrainerState{Step: 10, Seed: 86}}
			if err := Save(b, spec); err != nil {
				t.Fatal(err)
			}
			other, otherOpt := buildOptim(t, modelcfg.Tiny(), 87)
			for _, alias := range []string{dir + "/", "./" + dir, run + "//checkpoint-10", run + "/./checkpoint-10", "/" + dir} {
				bad := spec
				bad.Dir, bad.Model, bad.Optim = alias, other, otherOpt
				if err := Save(b, bad); err == nil {
					t.Fatalf("%s dedup=%v: save to %q accepted", name, dedup, alias)
				}
				if latest, err := Latest(b, run); err != nil || latest != dir {
					t.Fatalf("%s dedup=%v: after a save to %q latest = %q, %v", name, dedup, alias, latest, err)
				}
				restoreEquals(t, b, dir, m, o)
			}
		}
	}
}

// TestFailedSaveLeavesNoRunRoot: a plain save that fails after its staging
// began — here its trainer state write is refused — takes back the run root
// it created, on a directory backend as on a rename one; a failed save into a
// run root that already holds a checkpoint leaves the root and that
// checkpoint as they were.
func TestFailedSaveLeavesNoRunRoot(t *testing.T) {
	osBack, err := storage.NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, base := range map[string]storage.Backend{"mem": storage.NewMem(), "os": osBack} {
		b := refuseWrites{Backend: base, suffix: "/trainer_state.json"}
		m, o := buildOptim(t, modelcfg.Tiny(), 88)
		spec := SaveSpec{Dir: "fresh/nested/checkpoint-10", Model: m, Optim: o, WorldSize: 2, Strategy: "full",
			State: TrainerState{Step: 10, Seed: 88}}
		if err := Save(b, spec); err == nil {
			t.Fatalf("%s: a save whose trainer state write fails succeeded", name)
		}
		if base.Exists("fresh") {
			names, _ := base.List("fresh")
			t.Fatalf("%s: a failed save into a new run root left it behind (%v)", name, names)
		}
		saveFull(t, base, "run/checkpoint-5", 88, 2)
		spec.Dir = "run/checkpoint-10"
		if err := Save(b, spec); err == nil {
			t.Fatalf("%s: a save whose trainer state write fails succeeded", name)
		}
		if latest, err := Latest(base, "run"); err != nil || latest != "run/checkpoint-5" {
			t.Fatalf("%s: after a failed save latest = %q, %v", name, latest, err)
		}
		if names, _ := base.List("run"); len(names) != 2 { // latest, checkpoint-5/
			t.Fatalf("%s: run root holds %v after a failed save", name, names)
		}
	}
}

// refuseWrites fails every WriteFile of a name ending in suffix, and nothing
// else: a save that fails without the backend crashing.
type refuseWrites struct {
	storage.Backend
	suffix string
}

func (r refuseWrites) WriteFile(name string, data []byte) error {
	if strings.HasSuffix(name, r.suffix) {
		return fmt.Errorf("refused write of %s", name)
	}
	return r.Backend.WriteFile(name, data)
}

// TestScanBlobsTrashedPathExists: the path doctor prints for a trashed blob
// is where the object really is — under the owning shard's trash area on a
// sharded store, not a root-level .trash that does not exist.
func TestScanBlobsTrashedPathExists(t *testing.T) {
	for _, shards := range []int{0, 4} {
		b := storage.NewMem()
		if shards > 0 {
			if err := storage.InitShards(b, objectsPath("run"), shards); err != nil {
				t.Fatal(err)
			}
		}
		saveDedup(t, b, "run/checkpoint-10", 77, 2)
		store, err := storage.OpenCAS(b, ObjectsRoot("run/checkpoint-10"))
		if err != nil {
			t.Fatal(err)
		}
		if store.Shards() != shards {
			t.Fatalf("fixture: store has %d shards, want %d", store.Shards(), shards)
		}
		// A sweep that died between trash and purge, on every blob so each
		// shard holds some.
		blobs, _, _, err := store.List()
		if err != nil || len(blobs) == 0 {
			t.Fatalf("fixture: list blobs: %v (%d)", err, len(blobs))
		}
		for _, blob := range blobs {
			if err := store.Trash(blob.Digest); err != nil {
				t.Fatal(err)
			}
		}
		statuses := doctorScan(t, b, "run", ScanViews{Blobs: true}).Blobs
		trashed := 0
		for _, st := range statuses {
			if st.State != BlobTrashed {
				continue
			}
			trashed++
			if !b.Exists(st.Path) {
				t.Errorf("%d shards: trashed blob %s reported at %s, which does not exist", shards, st.Digest, st.Path)
			}
		}
		if trashed != len(blobs) {
			t.Fatalf("%d shards: %d blobs reported trashed, want %d", shards, trashed, len(blobs))
		}
	}
}
