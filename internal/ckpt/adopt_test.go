package ckpt

import (
	"errors"
	"strings"
	"testing"

	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

// preProtocol strips a committed checkpoint down to what a save from
// before the commit protocol looked like: same files, no marker.
func preProtocol(t *testing.T, b storage.Backend, dir string, seed uint64, ws int) {
	t.Helper()
	saveFull(t, b, dir, seed, ws)
	if err := b.Remove(dir + "/" + CommitMarkerName); err != nil {
		t.Fatal(err)
	}
}

// TestAdoptAllTable covers the three migration outcomes side by side:
// adopt (intact pre-protocol dir), quarantine (unreadable pre-protocol
// dir) and still-torn (post-protocol dir with a failing marker).
func TestAdoptAllTable(t *testing.T) {
	b := storage.NewMem()
	// 1. Intact pre-protocol checkpoint → adopted.
	preProtocol(t, b, "run/checkpoint-10", 130, 2)
	// 2. Pre-protocol checkpoint with a corrupt tensor payload → quarantined.
	preProtocol(t, b, "run/checkpoint-20", 131, 2)
	corrupt(t, b, "run/checkpoint-20/model.ltsf", func(d []byte) []byte {
		d[len(d)-3] ^= 0xff
		return d
	})
	// 3. Post-protocol torn dir (marker present, file truncated) → untouched.
	saveFull(t, b, "run/checkpoint-30", 132, 1)
	corrupt(t, b, "run/checkpoint-30/model.ltsf", func(d []byte) []byte {
		return d[:len(d)-5]
	})
	// 4. Orphaned staging dir: adoption ignores it entirely.
	b.WriteFile("run/checkpoint-40.tmp/model.ltsf", []byte("partial"))
	// Aim the pointer at the torn pre-protocol dir so repair has work too.
	writeLatestPointer(b, "run/checkpoint-20")

	rep, err := AdoptAll(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Adopted) != 1 || rep.Adopted[0] != "run/checkpoint-10" {
		t.Fatalf("adopted = %v", rep.Adopted)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != "run/checkpoint-20"+quarantineSuffix {
		t.Fatalf("quarantined = %v", rep.Quarantined)
	}
	if len(rep.Reasons) != 1 || !strings.Contains(rep.Reasons[0], "unreadable") {
		t.Fatalf("reasons = %v", rep.Reasons)
	}
	if len(rep.StillTorn) != 1 || rep.StillTorn[0] != "run/checkpoint-30" {
		t.Fatalf("still torn = %v", rep.StillTorn)
	}

	// The adopted checkpoint is now first-class committed: marker verifies,
	// restore works, Latest/List surface it.
	if err := VerifyCommit(b, "run/checkpoint-10"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Restore(b, "run/checkpoint-10", tensor.BF16); err != nil {
		t.Fatal(err)
	}
	// The sealed marker covers the shard files in the zero/ subdirectory
	// and records the checkpoint's step.
	m, err := ReadCommitMarker(b, "run/checkpoint-10")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Files[ShardFileName(1)]; !ok {
		t.Fatalf("marker misses nested shard file: %v", m.Files)
	}
	if m.Step != 3 {
		t.Fatalf("marker step = %d", m.Step)
	}
	statuses, err := Scan(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]DirState{}
	for _, st := range statuses {
		byPath[st.Path] = st.State
	}
	if byPath["run/checkpoint-10"] != StateCommitted {
		t.Fatalf("adopted dir scans as %v", byPath["run/checkpoint-10"])
	}
	if byPath["run/checkpoint-20"+quarantineSuffix] != StateQuarantined {
		t.Fatalf("quarantined dir scans as %v", byPath["run/checkpoint-20"+quarantineSuffix])
	}
	if byPath["run/checkpoint-30"] != StateTorn {
		t.Fatalf("torn dir scans as %v", byPath["run/checkpoint-30"])
	}

	// Repair removes the torn and orphaned dirs but leaves the quarantined
	// one, and re-aims the pointer at the adopted checkpoint.
	rrep, err := Repair(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if !b.Exists("run/checkpoint-20" + quarantineSuffix) {
		t.Fatal("repair deleted the quarantined dir")
	}
	if b.Exists("run/checkpoint-30") || b.Exists("run/checkpoint-40.tmp") {
		t.Fatal("repair left torn/orphaned dirs")
	}
	if rrep.Latest != "run/checkpoint-10" {
		t.Fatalf("latest after repair = %q", rrep.Latest)
	}
	latest, err := Latest(b, "run")
	if err != nil || latest != "run/checkpoint-10" {
		t.Fatalf("latest = %q, %v", latest, err)
	}

	// AdoptAll is idempotent: nothing left to do.
	rep2, err := AdoptAll(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Adopted)+len(rep2.Quarantined)+len(rep2.StillTorn) != 0 {
		t.Fatalf("second adopt pass = %+v", rep2)
	}
}

// TestAdoptDedupDir: adoption's readability pass follows blob references,
// so a marker-less dedup checkpoint adopts (or quarantines when a blob is
// missing).
func TestAdoptDedupDir(t *testing.T) {
	b := storage.NewMem()
	saveDedup(t, b, "run/checkpoint-60", 134, 1)
	b.Remove("run/checkpoint-60/" + CommitMarkerName)
	rep, err := AdoptAll(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Adopted) != 1 || rep.Adopted[0] != "run/checkpoint-60" {
		t.Fatalf("adopted = %v", rep.Adopted)
	}
	if err := VerifyCommit(b, "run/checkpoint-60"); err != nil {
		t.Fatal(err)
	}

	// Same dir with a missing blob: quarantine, not adoption.
	saveDedup(t, b, "run2/checkpoint-60", 135, 1)
	b.Remove("run2/checkpoint-60/" + CommitMarkerName)
	wm, err := ReadWeightManifest(b, "run2/checkpoint-60/"+WeightManifestName)
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewBlobStore(b, "run2/objects")
	if err := b.Remove(store.Path(wm.Tensors[0].Digest)); err != nil {
		t.Fatal(err)
	}
	rep, err = AdoptAll(b, "run2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Adopted) != 0 || len(rep.Quarantined) != 1 {
		t.Fatalf("dedup adopt with missing blob = %+v", rep)
	}
}

// TestQuarantineNameCollision: re-quarantining a recreated-and-torn-again
// directory takes a numeric suffix instead of aborting the migration.
func TestQuarantineNameCollision(t *testing.T) {
	b := storage.NewMem()
	quarantineOnce := func() {
		t.Helper()
		preProtocol(t, b, "run/checkpoint-10", 137, 1)
		corrupt(t, b, "run/checkpoint-10/model.ltsf", func(d []byte) []byte {
			d[len(d)-3] ^= 0xff
			return d
		})
		if _, err := AdoptAll(b, "run"); err != nil {
			t.Fatal(err)
		}
	}
	quarantineOnce()
	quarantineOnce()
	if !b.Exists("run/checkpoint-10"+quarantineSuffix) || !b.Exists("run/checkpoint-10.2"+quarantineSuffix) {
		t.Fatal("second quarantine did not take a suffixed name")
	}
	statuses, err := Scan(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range statuses {
		if st.State != StateQuarantined {
			t.Fatalf("%s scans as %v", st.Path, st.State)
		}
	}
}

// TestAdoptCrashMidSeal: a crash while sealing leaves either no marker
// (rerun adopts) or a complete one — never a half-written marker that
// breaks later verification.
func TestAdoptCrashMidSeal(t *testing.T) {
	for k := 1; k <= 2; k++ {
		base := storage.NewMem()
		preProtocol(t, base, "run/checkpoint-70", 136, 1)
		f := storage.NewFault(base)
		f.SetTorn(true)
		f.FailAt(k) // 1 = staged marker write, 2 = the rename
		_, err := AdoptAll(f, "run")
		if !storage.IsInjected(err) {
			t.Fatalf("k=%d: err = %v, want injected", k, err)
		}
		// Whatever landed, a rerun on the durable state converges.
		base.Remove("run/checkpoint-70/" + CommitMarkerName + stagingSuffix)
		if _, err := AdoptAll(base, "run"); err != nil {
			t.Fatalf("k=%d: adopt rerun: %v", k, err)
		}
		if err := VerifyCommit(base, "run/checkpoint-70"); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

// TestAdoptNoRename: sealing a marker is one atomic small-file publish, so a
// readable marker-less checkpoint adopts on a backend without rename — the
// seal used to be stage + rename by hand and failed there, stranding its
// COMMITTED.tmp. Quarantining an unreadable directory still needs a
// directory rename, which such a backend cannot do: the error says so and
// names the directory, which is left in place.
func TestAdoptNoRename(t *testing.T) {
	b := storage.NewObjStore()
	preProtocol(t, b, "run/checkpoint-10", 137, 2)
	preProtocol(t, b, "solo/checkpoint-20", 138, 1)
	rep, err := AdoptAll(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Adopted) != 1 || rep.Adopted[0] != "run/checkpoint-10" {
		t.Fatalf("adopted = %v", rep.Adopted)
	}
	if rep, err := AdoptAll(b, "solo"); err != nil || len(rep.Adopted) != 1 {
		t.Fatalf("adopt solo: %+v, %v", rep, err)
	}
	for _, dir := range []string{"run/checkpoint-10", "solo/checkpoint-20"} {
		if err := VerifyCommit(b, dir); err != nil {
			t.Fatal(err)
		}
		if b.Exists(dir + "/" + CommitMarkerName + stagingSuffix) {
			t.Fatalf("%s: staged marker left behind", dir)
		}
	}

	preProtocol(t, b, "run/checkpoint-30", 139, 1)
	corrupt(t, b, "run/checkpoint-30/model.ltsf", func(d []byte) []byte {
		d[len(d)-3] ^= 0xff
		return d
	})
	_, err = AdoptAll(b, "run")
	if !errors.Is(err, storage.ErrNotSupported) || !strings.Contains(err.Error(), "run/checkpoint-30") {
		t.Fatalf("quarantine on a no-rename backend: err = %v", err)
	}
	if !b.Exists("run/checkpoint-30/model.ltsf") {
		t.Fatal("unreadable directory did not stay in place")
	}
}
