package ckpt

// The run catalog: the restart rule for a directory that goes away under a
// reader (ROADMAP 8(b)), and the table of what every view answers for every
// kind of directory a run root can hold.

import (
	"strings"
	"testing"

	"llmtailor/internal/modelcfg"
	"llmtailor/internal/storage"
)

// onFirstRead arms log to run do once, right before the first GET of key.
func onFirstRead(log *opLog, key string, do func()) *bool {
	fired := new(bool)
	log.readHook = func(kind, k string) {
		if kind == "get" && k == key && !*fired {
			*fired = true
			do()
		}
	}
	return fired
}

// TestCatalogRestartsWhenDirectoryGoesAway is the deterministic form of the
// race TestSweepRacingConcurrentDedupSave hits once in forty runs: a full GC's
// mark has checked a directory's marker and is about to read its manifests
// when a saver retires the directory (the in-place replace's Remove) or
// publishes it under its final name (the staging rename). The mark must
// restart on a fresh listing — not fail, and not drop the directory's
// references: a renamed tree's manifests are read under the new name.
func TestCatalogRestartsWhenDirectoryGoesAway(t *testing.T) {
	t.Run("removed", func(t *testing.T) {
		b := storage.NewMem()
		for i, dir := range []string{"run/checkpoint-10", "run/checkpoint-20", "run/checkpoint-30"} {
			saveDedup(t, b, dir, uint64(900+i), 2)
		}
		log := &opLog{Fault: storage.NewFault(b)}
		fired := onFirstRead(log, "run/checkpoint-20/"+WeightManifestName, func() {
			if err := b.Remove("run/checkpoint-20"); err != nil {
				t.Errorf("remove: %v", err)
			}
		})
		if _, err := GC(log, "run"); err != nil {
			t.Fatalf("full gc with checkpoint-20 removed under its mark: %v", err)
		}
		if !*fired {
			t.Fatal("the mark never read checkpoint-20's weight manifest — scenario broken")
		}
		for _, dir := range []string{"run/checkpoint-10", "run/checkpoint-30"} {
			if err := verifyDedupRefs(entryAt(b, dir)); err != nil {
				t.Fatalf("a survivor lost blobs: %v", err)
			}
		}
	})

	t.Run("published", func(t *testing.T) {
		b := storage.NewMem()
		saveDedup(t, b, "run/checkpoint-10", 910, 2)
		saveDedup(t, b, "run/checkpoint-30", 911, 2)
		if err := b.Rename("run/checkpoint-30", "run/checkpoint-30.tmp"); err != nil {
			t.Fatal(err)
		}
		log := &opLog{Fault: storage.NewFault(b)}
		fired := onFirstRead(log, "run/checkpoint-30.tmp/"+WeightManifestName, func() {
			if err := b.Rename("run/checkpoint-30.tmp", "run/checkpoint-30"); err != nil {
				t.Errorf("publish: %v", err)
			}
		})
		rep, err := GC(log, "run")
		if err != nil {
			t.Fatalf("full gc with checkpoint-30 published under its mark: %v", err)
		}
		if !*fired {
			t.Fatal("the mark never read the staging tree's weight manifest — scenario broken")
		}
		// The mark's manifest references are those of the quiescent root: the
		// tree that vanished as checkpoint-30.tmp was read as checkpoint-30.
		want, err := BlobRefs(b, "run")
		if err != nil {
			t.Fatal(err)
		}
		if rep.Referenced != len(want) {
			t.Fatalf("the mark pinned %d digests by manifest, the settled root holds %d: the published tree was dropped", rep.Referenced, len(want))
		}
		if len(rep.RemovedBlobs) != 0 {
			t.Fatalf("gc removed %d blobs of a root where every blob is referenced", len(rep.RemovedBlobs))
		}
	})
}

// viewRow is one directory of the TestCatalogViewsAgree fixture and what
// every view must say of it.
type viewRow struct {
	name  string // under the run root
	build func(t *testing.T, b storage.Backend, dir string)
	// holds, when set, is the seed of the state the directory must restore to,
	// bit-identically, in whichever form readers pick (0: not readable).
	holds uint64

	state   DirState
	listed  bool // List returns it
	isDedup bool // readers read blobs
	sealed  bool // the pin walk's commit answer
	exact   bool // the pin walk reads its manifests exactly, not best-effort
}

// snapshotFiles reads the named files of dir.
func snapshotFiles(t *testing.T, b storage.Backend, dir string, names ...string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, n := range names {
		data, err := b.ReadFile(dir + "/" + n)
		if err != nil {
			t.Fatal(err)
		}
		out[n] = data
	}
	return out
}

func putFiles(t *testing.T, b storage.Backend, dir string, files map[string][]byte, names ...string) {
	t.Helper()
	for _, n := range names {
		if err := b.WriteFile(dir+"/"+n, files[n]); err != nil {
			t.Fatal(err)
		}
	}
}

// conversionState builds, by hand, a directory the in-place conversion older
// binaries ran after publication left behind when it crashed: a plain save,
// the same state saved content-addressed over it, and the plain form's
// files put back as far as the crash point had not yet replaced or removed
// them. Nothing in the tree makes these states any more; readers, Scan and
// Repair must still do right by them.
func conversionState(seed uint64, restore func(t *testing.T, b storage.Backend, dir string, plain map[string][]byte)) func(*testing.T, storage.Backend, string) {
	return func(t *testing.T, b storage.Backend, dir string) {
		saveFull(t, b, dir, seed, 2)
		plain := snapshotFiles(t, b, dir, "model.ltsf", ShardFileName(0), ShardFileName(1), "manifest.json", CommitMarkerName)
		saveDedup(t, b, dir, seed, 2)
		restore(t, b, dir, plain)
	}
}

// unlistManifestJSON rewrites dir's marker without manifest.json: the old
// protocol's first marker swap.
func unlistManifestJSON(t *testing.T, b storage.Backend, dir string) {
	t.Helper()
	m, err := ReadCommitMarker(b, dir)
	if err != nil {
		t.Fatal(err)
	}
	delete(m.Files, "manifest.json")
	if err := writeJSON(b, dir+"/"+CommitMarkerName, &m); err != nil {
		t.Fatal(err)
	}
}

var plainPayloadFiles = []string{"model.ltsf", ShardFileName(0), ShardFileName(1)}

func viewRows() []viewRow {
	return []viewRow{
		{name: "checkpoint-10", state: StateCommitted, listed: true, sealed: true, exact: true, holds: 71,
			build: func(t *testing.T, b storage.Backend, dir string) { saveFull(t, b, dir, 71, 2) }},
		{name: "checkpoint-20", state: StateTorn, // missing marker
			build: func(t *testing.T, b storage.Backend, dir string) {
				saveFull(t, b, dir, 72, 2)
				b.Remove(dir + "/" + CommitMarkerName)
			}},
		{name: "checkpoint-30", state: StateTorn, listed: true, sealed: true, exact: true, // CRC mismatch: checked, not verified
			build: func(t *testing.T, b storage.Backend, dir string) {
				saveFull(t, b, dir, 73, 2)
				corrupt(t, b, dir+"/model.ltsf", func(d []byte) []byte { d[len(d)-1] ^= 0xff; return d })
			}},
		{name: "checkpoint-40", state: StateTorn, // size mismatch
			build: func(t *testing.T, b storage.Backend, dir string) {
				saveFull(t, b, dir, 74, 2)
				corrupt(t, b, dir+"/"+ShardFileName(0), func(d []byte) []byte { return d[:len(d)-7] })
			}},
		{name: "checkpoint-50.tmp", state: StateOrphanTmp,
			build: func(t *testing.T, b storage.Backend, dir string) {
				b.WriteFile(dir+"/model.ltsf", []byte("partial"))
			}},
		{name: "checkpoint-60.tmp", state: StateUnpublished, sealed: true, isDedup: true,
			build: func(t *testing.T, b storage.Backend, dir string) {
				final := strings.TrimSuffix(dir, stagingSuffix)
				saveDedup(t, b, final, 86, 2)
				if err := b.Rename(final, dir); err != nil {
					t.Fatal(err)
				}
			}},
		// The five states of the old in-place conversion, by hand.
		{name: "checkpoint-70", state: StateConverting, listed: true, sealed: true, exact: true, holds: 75, // 1: manifests staged as unlisted extras
			build: conversionState(75, func(t *testing.T, b storage.Backend, dir string, plain map[string][]byte) {
				putFiles(t, b, dir, plain, append(plainPayloadFiles, "manifest.json", CommitMarkerName)...)
			})},
		{name: "checkpoint-80", state: StateConverting, listed: true, sealed: true, exact: true, holds: 76, // 2: marker swapped, manifest.json unlisted
			build: conversionState(76, func(t *testing.T, b storage.Backend, dir string, plain map[string][]byte) {
				unlistManifestJSON(t, b, dir)
				putFiles(t, b, dir, plain, append(plainPayloadFiles, "manifest.json")...)
			})},
		{name: "checkpoint-85", state: StateConverting, listed: true, sealed: true, exact: true, holds: 83, // 3: manifest.json rewritten, still unlisted
			build: conversionState(83, func(t *testing.T, b storage.Backend, dir string, plain map[string][]byte) {
				unlistManifestJSON(t, b, dir)
				putFiles(t, b, dir, plain, plainPayloadFiles...)
			})},
		{name: "checkpoint-90", state: StateConverting, listed: true, sealed: true, exact: true, holds: 77, // 4: resealed, containers not yet removed
			build: conversionState(77, func(t *testing.T, b storage.Backend, dir string, plain map[string][]byte) {
				putFiles(t, b, dir, plain, plainPayloadFiles...)
			})},
		{name: "checkpoint-100", state: StateConverting, listed: true, sealed: true, isDedup: true, exact: true, holds: 78, // 5: model.ltsf gone, shard files left
			build: conversionState(78, func(t *testing.T, b storage.Backend, dir string, plain map[string][]byte) {
				putFiles(t, b, dir, plain, ShardFileName(0), ShardFileName(1))
			})},
		{name: "checkpoint-105", state: StateConverting, listed: true, sealed: true, exact: true, holds: 84, // stray: containers dropped into a native dedup save
			build: func(t *testing.T, b storage.Backend, dir string) {
				saveFull(t, b, "aside/"+RefKey(dir), 84, 2)
				plain := snapshotFiles(t, b, "aside/"+RefKey(dir), plainPayloadFiles...)
				saveDedup(t, b, dir, 84, 2)
				putFiles(t, b, dir, plain, plainPayloadFiles...)
			}},
		{name: "checkpoint-110", state: StateCommitted, listed: true, sealed: true, isDedup: true, exact: true, holds: 80, // replaced in place: an older record superseded
			build: func(t *testing.T, b storage.Backend, dir string) {
				saveDedup(t, b, dir, 79, 2)
				saveDedup(t, b, dir, 80, 2)
			}},
		{name: "checkpoint-120.quarantined", state: StateQuarantined, isDedup: true,
			build: func(t *testing.T, b storage.Backend, dir string) {
				final := strings.TrimSuffix(dir, quarantineSuffix)
				saveDedup(t, b, final, 81, 2)
				b.Remove(final + "/" + CommitMarkerName)
				if err := b.Rename(final, dir); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "merged", state: StateCommitted, sealed: true, exact: true, holds: 82, // not checkpoint-<step>: never listed, so never a retention victim
			build: func(t *testing.T, b storage.Backend, dir string) { saveFull(t, b, dir, 82, 1) }},
	}
}

// TestCatalogViewsAgree builds one directory in every state a run root can
// hold and checks every view of it against the table above — and the table
// against the ONE layout and commit answer, so no two views can disagree.
// "merged" is also scanned as a root-level single-segment output.
func TestCatalogViewsAgree(t *testing.T) {
	backends := []struct {
		name string
		mk   func(t *testing.T) storage.Backend
	}{
		{"mem", func(*testing.T) storage.Backend { return storage.NewMem() }},
		{"os", func(t *testing.T) storage.Backend {
			b, err := storage.NewOS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
	}
	for _, bk := range backends {
		for _, root := range []string{"run", ""} {
			t.Run(bk.name+"/root="+root, func(t *testing.T) {
				b := bk.mk(t)
				rows := viewRows()
				if root == "" {
					rows = rows[len(rows)-1:] // the single-segment output alone
				}
				path := func(r viewRow) string {
					if root == "" {
						return r.name
					}
					return root + "/" + r.name
				}
				holds := map[string]uint64{}
				for _, r := range rows {
					r.build(t, b, path(r))
					holds[path(r)] = r.holds
				}
				restores := func(dir string) {
					if seed := holds[dir]; seed != 0 {
						m, o := buildOptim(t, modelcfg.Tiny(), seed)
						restoreEquals(t, b, dir, m, o)
					}
				}
				b.WriteFile(path(viewRow{name: "logs"})+"/out.txt", []byte("x")) // unrelated: no view reports it

				statuses, err := Scan(b, root)
				if err != nil {
					t.Fatal(err)
				}
				state := map[string]DirState{}
				for _, st := range statuses {
					state[st.Path] = st.State
				}
				if len(state) != len(rows) {
					t.Fatalf("scan reports %d directories, the fixture has %d: %+v", len(state), len(rows), statuses)
				}
				listed, err := List(b, root)
				if err != nil {
					t.Fatal(err)
				}
				isListed := map[string]bool{}
				for _, d := range listed {
					isListed[d] = true
				}
				c, err := openCatalog(b, root)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.readRefs(); err != nil {
					t.Fatalf("the pin walk over the fixture: %v", err)
				}

				for _, r := range rows {
					dir := path(r)
					e := c.byPath(dir)
					if e == nil {
						t.Fatalf("%s: not in the catalog", dir)
					}
					// The views, against the table.
					if got, ok := state[dir]; !ok || got != r.state {
						t.Errorf("%s: Scan says %v, want %v", dir, got, r.state)
					}
					if isListed[dir] != r.listed {
						t.Errorf("%s: List membership %v, want %v", dir, isListed[dir], r.listed)
					}
					if got := IsDedup(b, dir); got != r.isDedup {
						t.Errorf("%s: IsDedup %v, want %v", dir, got, r.isDedup)
					}
					if got := e.sealed(); got != r.sealed {
						t.Errorf("%s: pin walk sealed %v, want %v", dir, got, r.sealed)
					}
					if err := verifyDedupRefs(e); err != nil {
						t.Errorf("%s: verifyDedupRefs: %v (every blob of the fixture is there)", dir, err)
					}
					// Whichever form readers pick restores the state the directory
					// was saved with, as it did while the conversion existed.
					restores(dir)

					// The table, against the one layout and commit answer.
					lay := decideLayout(b, dir)
					checked, verified := CheckCommit(b, dir) == nil, VerifyCommit(b, dir) == nil
					wantSealed := !e.Quarantined && (e.Staging && verified || !e.Staging && checked)
					wantState := StateTorn
					switch {
					case e.Quarantined:
						wantState = StateQuarantined
					case e.Staging && verified:
						wantState = StateUnpublished
					case e.Staging:
						wantState = StateOrphanTmp
					case verified && e.twoForms():
						wantState = StateConverting
					case verified:
						wantState = StateCommitted
					}
					wantExact := wantSealed && !e.Staging
					if r.state != wantState || r.sealed != wantSealed || r.isDedup != lay.blobs || r.exact != wantExact ||
						r.listed != (e.numbered && !e.Staging && !e.Quarantined && checked) {
						t.Errorf("%s: the table is not a function of layout %+v, checked %v, verified %v", dir, lay, checked, verified)
					}
					// Best effort or exact, whatever manifests there are pin.
					if lay.manifests && len(e.Digests) == 0 {
						t.Errorf("%s: carries manifests but pins nothing", dir)
					}
				}
				if latest, err := Latest(b, root); err != nil || c.byPath(latest) == nil || !c.byPath(latest).sealed() {
					t.Errorf("Latest = %q, %v: not a sealed directory", latest, err)
				}

				// Repair, then a full GC: doctor and gc agree about every blob.
				if _, err := Repair(b, root); err != nil {
					t.Fatal(err)
				}
				if _, err := GC(b, root); err != nil {
					t.Fatal(err)
				}
				rep, err := ScanRun(b, root, ScanViews{Blobs: true, Refs: true})
				if err != nil {
					t.Fatal(err)
				}
				for _, st := range rep.Dirs {
					if st.State != StateCommitted && st.State != StateQuarantined {
						t.Errorf("after repair: %s is %v", st.Path, st.State)
					}
					// One form, the one the marker lists, and still the same state.
					if b.Exists(st.Path+"/model.ltsf") == b.Exists(st.Path+"/"+WeightManifestName) {
						t.Errorf("after repair: %s holds both payload forms, or neither", st.Path)
					}
					restores(st.Path)
				}
				for _, bl := range rep.Blobs {
					if bl.State != BlobReferenced {
						t.Errorf("after repair and full gc: blob %s is %v", bl.Path, bl.State)
					}
				}
				for _, rs := range rep.Refs {
					if rs.State != RefOK {
						t.Errorf("after repair and full gc: record %s is %v (%s)", rs.Path, rs.State, rs.Detail)
					}
				}
			})
		}
	}
}
