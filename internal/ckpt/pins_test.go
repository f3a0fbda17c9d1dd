package ckpt

import (
	"strings"
	"testing"

	"llmtailor/internal/storage"
)

// moveDir relocates a directory tree file by file (no backend rename
// needed, so it works on the object store too).
func moveDir(t *testing.T, b storage.Backend, from, to string) {
	t.Helper()
	entries, err := b.List(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := strings.TrimSuffix(e, "/")
		if name != e {
			moveDir(t, b, from+"/"+name, to+"/"+name)
			continue
		}
		data, err := b.ReadFile(from + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.WriteFile(to+"/"+name, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Remove(from); err != nil {
		t.Fatal(err)
	}
}

// recordOf returns the journal entry of one checkpoint key.
func recordOf(t *testing.T, b storage.Backend, runRoot, key string) (*storage.RefIndex, storage.RefEntry) {
	t.Helper()
	ix := mustRefIndex(t, b, runRoot)
	for _, e := range refEntries(t, b, runRoot) {
		if e.Key == key {
			return ix, e
		}
	}
	t.Fatalf("%s: no record for %s", runRoot, key)
	return nil, storage.RefEntry{}
}

// TestPinCoverage is the property every collecting policy rests on, checked
// on a hub whose runs hold each kind of directory the journal does not
// cover: a sealed staging tree, a quarantined directory, a recordless dedup
// checkpoint and a checkpoint whose record is corrupt. Each holds content
// that is otherwise referenced only by a retention victim (or a superseded
// record) of run A, so only its manifest fallback keeps those blobs.
//
//   - For every attached run, journal + uncovered-manifest pins (RunPins)
//     cover all-manifest pins (BlobRefs).
//   - After each policy ran for real, every blob any run's manifests still
//     reference is in the store, and the cover still holds.
func TestPinCoverage(t *testing.T) {
	backends := map[string]func() storage.Backend{
		"mem":      func() storage.Backend { return storage.NewMem() },
		"objstore": func() storage.Backend { return storage.NewObjStore() },
	}
	policies := map[string]func(b storage.Backend) error{
		"retain":       func(b storage.Backend) error { _, err := Retain(b, "runa", 1, false); return err },
		"generational": func(b storage.Backend) error { _, err := GCGenerational(b, "runa", false); return err },
		"full":         func(b storage.Backend) error { _, err := GC(b, "runa"); return err },
		"hub":          func(b storage.Backend) error { _, err := HubGC(b, "hub", false); return err },
	}
	build := func(b storage.Backend) {
		attachHub(t, b, "hub", "runa", "runa")
		attachHub(t, b, "hub", "runb", "runb")
		// Run A's victims, one per uncovered directory kind, and the
		// uncovered directories themselves.
		for i, seed := range []uint64{901, 902, 903, 904} {
			saveDedup(t, b, "runa/"+DirName(11+i), seed, 2)
		}
		saveDedup(t, b, "runa/checkpoint-61", 901, 2)
		saveDedup(t, b, "runa/checkpoint-62", 902, 2)
		saveDedup(t, b, "runb/checkpoint-10", 903, 2)
		saveDedup(t, b, "runb/checkpoint-20", 904, 2)
		for _, key := range []string{"checkpoint-61", "checkpoint-62"} {
			ix, e := recordOf(t, b, "runa", key)
			if err := ix.Remove(e); err != nil {
				t.Fatal(err)
			}
		}
		moveDir(t, b, "runa/checkpoint-61", "runa/checkpoint-61"+stagingSuffix)
		moveDir(t, b, "runa/checkpoint-62", "runa/checkpoint-62"+quarantineSuffix)
		ix, e := recordOf(t, b, "runb", "checkpoint-10")
		if err := ix.Remove(e); err != nil {
			t.Fatal(err)
		}
		ix, e = recordOf(t, b, "runb", "checkpoint-20")
		if err := b.WriteFile(ix.Dir()+"/"+e.Name, []byte("not a record")); err != nil {
			t.Fatal(err)
		}
		// A superseded record for the generational policy (its candidates
		// are seed 901's blobs), then run A's newest checkpoint.
		saveDedup(t, b, "runa/checkpoint-11", 906, 2)
		saveDedup(t, b, "runa/checkpoint-50", 905, 2)
	}
	check := func(t *testing.T, b storage.Backend, store *storage.BlobStore) {
		t.Helper()
		for _, run := range []string{"runa", "runb"} {
			journal, err := RunPins(b, run)
			if err != nil {
				t.Fatal(err)
			}
			manifests, err := BlobRefs(b, run)
			if err != nil {
				t.Fatal(err)
			}
			if len(manifests) == 0 {
				t.Fatalf("%s references nothing", run)
			}
			for d := range manifests {
				if journal[d] == 0 {
					t.Fatalf("%s: digest %s is referenced by a manifest but not pinned", run, d)
				}
				if store != nil && !store.Has(d) {
					t.Fatalf("%s: referenced blob %s was collected", run, d)
				}
			}
		}
	}
	for bname, newBackend := range backends {
		for pname, policy := range policies {
			t.Run(bname+"/"+pname, func(t *testing.T) {
				b := newBackend()
				build(b)
				check(t, b, nil)
				if err := policy(b); err != nil {
					t.Fatal(err)
				}
				store, err := storage.OpenCAS(b, storage.HubObjectsRoot("hub"))
				if err != nil {
					t.Fatal(err)
				}
				check(t, b, store)
			})
		}
	}
}
