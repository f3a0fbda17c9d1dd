package storage

import (
	"strings"
	"testing"
)

func testDigest(b byte) string {
	return strings.Repeat(string([]byte{'a' + b%6}), 64)
}

func TestRefIndexAppendReadEntries(t *testing.T) {
	b := NewMem()
	ix := NewRefIndex(b, "run/objects")
	if ix.Exists() {
		t.Fatal("index should not exist before the first append")
	}
	if gen, err := ix.NextGeneration(); err != nil || gen != 1 {
		t.Fatalf("next generation of empty index = %d, %v", gen, err)
	}
	recs := []*RefRecord{
		{Version: 1, Key: "checkpoint-100", Step: 100, Generation: 1,
			Digests: []string{testDigest(0), testDigest(1)}},
		{Version: 1, Key: "checkpoint-200", Step: 200, Generation: 2,
			Digests: []string{testDigest(1), testDigest(1), testDigest(2)}},
	}
	for _, r := range recs {
		if err := ix.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	entries, staging, foreign, err := ix.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || len(staging) != 0 || len(foreign) != 0 {
		t.Fatalf("entries=%v staging=%v foreign=%v", entries, staging, foreign)
	}
	if entries[0].Key != "checkpoint-100" || entries[0].Generation != 1 ||
		entries[1].Key != "checkpoint-200" || entries[1].Generation != 2 {
		t.Fatalf("entries = %+v", entries)
	}
	got, err := ix.Read(entries[1])
	if err != nil {
		t.Fatal(err)
	}
	// Digests come back sorted and de-duplicated.
	if len(got.Digests) != 2 || got.Digests[0] != testDigest(1) || got.Digests[1] != testDigest(2) {
		t.Fatalf("digests = %v", got.Digests)
	}
	if got.Step != 200 {
		t.Fatalf("step = %d", got.Step)
	}
	if gen, err := ix.NextGeneration(); err != nil || gen != 3 {
		t.Fatalf("next generation = %d, %v", gen, err)
	}
	if err := ix.Remove(entries[0]); err != nil {
		t.Fatal(err)
	}
	// Removing twice converges.
	if err := ix.Remove(entries[0]); err != nil {
		t.Fatal(err)
	}
	entries, _, _, _ = ix.Entries()
	if len(entries) != 1 || entries[0].Key != "checkpoint-200" {
		t.Fatalf("entries after remove = %+v", entries)
	}
}

func TestRefIndexRejectsMalformed(t *testing.T) {
	ix := NewRefIndex(NewMem(), "objects")
	bad := []*RefRecord{
		{Key: "", Generation: 1},
		{Key: "a/b", Generation: 1},
		{Key: "k.tmp", Generation: 1},
		{Key: "k", Generation: 0},
		{Key: "k", Generation: 1, Digests: []string{"nope"}},
	}
	for i, r := range bad {
		if err := ix.Append(r); err == nil {
			t.Errorf("record %d accepted: %+v", i, r)
		}
	}
}

// A record whose content disagrees with its file name (renamed aside, or
// bit-flipped key/generation) must fail Read rather than misattribute pins.
func TestRefIndexReadValidatesNameBinding(t *testing.T) {
	b := NewMem()
	ix := NewRefIndex(b, "objects")
	if err := ix.Append(&RefRecord{Key: "checkpoint-1", Generation: 1, Digests: []string{testDigest(0)}}); err != nil {
		t.Fatal(err)
	}
	entries, _, _, _ := ix.Entries()
	data, _ := b.ReadFile("objects/refs/" + entries[0].Name)
	if err := b.WriteFile("objects/refs/"+recordName(7, "checkpoint-9"), data); err != nil {
		t.Fatal(err)
	}
	entries, _, _, _ = ix.Entries()
	var bound RefEntry
	for _, e := range entries {
		if e.Generation == 7 {
			bound = e
		}
	}
	if _, err := ix.Read(bound); err == nil {
		t.Fatal("misnamed record accepted")
	}
	// Truncated JSON fails too.
	if err := b.WriteFile("objects/refs/"+entries[0].Name, data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Read(entries[0]); err == nil {
		t.Fatal("truncated record accepted")
	}
}

// Entries classifies crashed-append residue and foreign names without
// touching them.
func TestRefIndexEntriesClassification(t *testing.T) {
	b := NewMem()
	ix := NewRefIndex(b, "objects")
	if err := ix.Append(&RefRecord{Key: "checkpoint-1", Generation: 1}); err != nil {
		t.Fatal(err)
	}
	b.WriteFile("objects/refs/gen-000000000002-checkpoint-2.ref.tmp", []byte("{"))
	b.WriteFile("objects/refs/README", []byte("external"))
	b.WriteFile("objects/refs/gen-zz-x.ref", []byte("{}"))
	entries, staging, foreign, err := ix.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || len(staging) != 1 || len(foreign) != 2 {
		t.Fatalf("entries=%v staging=%v foreign=%v", entries, staging, foreign)
	}
	if err := ix.RemoveStaging(staging[0]); err != nil {
		t.Fatal(err)
	}
	if _, s, _, _ := ix.Entries(); len(s) != 0 {
		t.Fatal("staging residue survived")
	}
}

// A crash at any fault point of an append leaves either no record or a
// whole record — never a torn one — and the retry converges.
func TestRefIndexAppendCrashConsistent(t *testing.T) {
	rec := &RefRecord{Key: "checkpoint-5", Generation: 3, Digests: []string{testDigest(2)}}
	probe := NewFault(NewMem())
	if err := NewRefIndex(probe, "objects").Append(rec); err != nil {
		t.Fatal(err)
	}
	n := int(probe.Ops())
	if n < 2 {
		t.Fatalf("suspiciously few fault points: %d", n)
	}
	for _, torn := range []bool{false, true} {
		for k := 1; k <= n; k++ {
			base := NewMem()
			f := NewFault(base)
			f.SetTorn(torn)
			ix := NewRefIndex(base, "objects")
			f.FailAt(k)
			if err := NewRefIndex(f, "objects").Append(rec); !IsInjected(err) {
				t.Fatalf("k=%d torn=%v: err = %v, want injected", k, torn, err)
			}
			entries, _, _, err := ix.Entries()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				got, err := ix.Read(e)
				if err != nil {
					t.Fatalf("k=%d torn=%v: published record torn: %v", k, torn, err)
				}
				if got.Key != rec.Key || len(got.Digests) != 1 {
					t.Fatalf("k=%d torn=%v: record content %+v", k, torn, got)
				}
			}
			// Retry on the durable state converges to exactly one record.
			if err := ix.Append(rec); err != nil {
				t.Fatal(err)
			}
			entries, _, _, _ = ix.Entries()
			if len(entries) != 1 {
				t.Fatalf("k=%d torn=%v: %d records after retry", k, torn, len(entries))
			}
		}
	}
}

func TestSweepDigestsExaminesOnlyCandidates(t *testing.T) {
	b := NewMem()
	store := NewBlobStore(b, "objects")
	var digests []string
	for i := 0; i < 8; i++ {
		d, _, err := putBytes(store, []byte{byte(i), byte(i >> 1), byte(i >> 2)})
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	pins := map[string]int{digests[0]: 1}
	candidates := []string{digests[0], digests[1], digests[2], testDigest(3)}
	rep, err := store.Sweep(SweepSpec{Candidates: candidates, Pins: pins})
	if err != nil {
		t.Fatal(err)
	}
	// Every candidate counts as examined — pinned and already-gone ones
	// included — so the generational and full modes report comparably.
	if rep.Kept != 1 || len(rep.RemovedBlobs) != 2 || rep.Examined != 4 {
		t.Fatalf("sweep = %+v", rep)
	}
	if !store.Has(digests[0]) || store.Has(digests[1]) || store.Has(digests[2]) {
		t.Fatal("sweep removed the wrong blobs")
	}
	// Non-candidates are untouched, however unreferenced.
	for _, d := range digests[3:] {
		if !store.Has(d) {
			t.Fatalf("non-candidate %s swept", d)
		}
	}
	// Dry run examines without removing.
	rep, err = store.Sweep(SweepSpec{Candidates: []string{digests[3]}, DryRun: true})
	if err != nil || len(rep.RemovedBlobs) != 1 || !store.Has(digests[3]) {
		t.Fatalf("dry run = %+v, %v (blob present: %v)", rep, err, store.Has(digests[3]))
	}
	if _, err := store.Sweep(SweepSpec{Candidates: []string{"bogus"}}); err == nil {
		t.Fatal("invalid candidate digest accepted")
	}
}

// Two-phase removal: trash hides the blob, restore brings it back (or
// drops the duplicate when it was re-published meanwhile), purge is
// final; a recheck that re-pins a trashed digest rescues it.
func TestTrashRestorePurge(t *testing.T) {
	b := NewMem()
	store := NewBlobStore(b, "objects")
	d1, _, err := putBytes(store, []byte("payload one"))
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := putBytes(store, []byte("payload two"))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Trash(d1); err != nil {
		t.Fatal(err)
	}
	if store.Has(d1) {
		t.Fatal("trashed blob still visible")
	}
	if trash, _ := store.ListTrash(); len(trash) != 1 || trash[0].Digest != d1 {
		t.Fatalf("trash = %v", trash)
	}
	if err := store.Restore(d1); err != nil {
		t.Fatal(err)
	}
	if !store.Has(d1) {
		t.Fatal("restore did not bring the blob back")
	}
	// Restore after a racing re-publish: drop the trash copy, keep the blob.
	if err := store.Trash(d1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := putBytes(store, []byte("payload one")); err != nil {
		t.Fatal(err)
	}
	if err := store.Restore(d1); err != nil {
		t.Fatal(err)
	}
	if !store.Has(d1) {
		t.Fatal("blob lost after re-publish restore")
	}
	if trash, _ := store.ListTrash(); len(trash) != 0 {
		t.Fatalf("trash residue: %v", trash)
	}
	// A recheck that re-pins d2 restores it.
	rep, err := store.Sweep(SweepSpec{Pins: map[string]int{d1: 1}, Recheck: func() (map[string]int, error) {
		return map[string]int{d2: 1}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Restored) != 1 || rep.Restored[0] != d2 || len(rep.RemovedBlobs) != 0 {
		t.Fatalf("sweep = %+v", rep)
	}
	if !store.Has(d1) || !store.Has(d2) {
		t.Fatal("recheck-pinned blob was not restored")
	}
}

// The refs directory under the store root is index territory: List must
// not report it as stray.
func TestBlobStoreListSkipsRefsDir(t *testing.T) {
	b := NewMem()
	store := NewBlobStore(b, "objects")
	if _, _, err := putBytes(store, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	ix := NewRefIndex(b, "objects")
	if err := ix.Append(&RefRecord{Key: "checkpoint-1", Generation: 1}); err != nil {
		t.Fatal(err)
	}
	blobs, staging, stray, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 1 || len(staging) != 0 || len(stray) != 0 {
		t.Fatalf("blobs=%v staging=%v stray=%v", blobs, staging, stray)
	}
}
