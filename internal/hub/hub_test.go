package hub

import (
	"errors"
	"strings"
	"testing"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

// saveDedup writes one dedup checkpoint into dir.
func saveDedup(t testing.TB, b storage.Backend, dir string, seed uint64) *model.Model {
	t.Helper()
	m, err := model.NewInitialized(modelcfg.Tiny(), tensor.BF16, seed)
	if err != nil {
		t.Fatal(err)
	}
	o, err := optim.NewAdamW(m, optim.NewLayerwiseLayout(modelcfg.Tiny()), optim.DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Save(b, ckpt.SaveSpec{Dir: dir, Model: m, Optim: o,
		WorldSize: 1, Strategy: "full", Dedup: true,
		State: ckpt.TrainerState{Step: 10, Seed: seed}}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestInitAttachLifecycle(t *testing.T) {
	b := storage.NewMem()
	if err := Attach(b, "hub", "runs/a", ""); err == nil {
		t.Fatal("attach to uninitialised hub succeeded")
	}
	if err := Init(b, "hub", Options{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	if err := Init(b, "hub", Options{Shards: 2}); err != nil {
		t.Fatalf("re-init not idempotent: %v", err)
	}
	if err := Attach(b, "hub", "runs/a", ""); err != nil {
		t.Fatal(err)
	}
	// Default id is the root's base name; re-attach is idempotent.
	if err := Attach(b, "hub", "runs/a", "a"); err != nil {
		t.Fatalf("idempotent re-attach: %v", err)
	}
	ref, err := storage.ReadHubRef(b, "runs/a/objects")
	if err != nil || ref == nil || ref.Run != "a" {
		t.Fatalf("hubref = %+v, %v", ref, err)
	}
	// The id is taken by a different root.
	if err := Attach(b, "hub", "runs/other", "a"); err == nil {
		t.Fatal("id conflict not refused")
	}
	// The run is attached elsewhere.
	if err := Init(b, "hub2", Options{}); err != nil {
		t.Fatal(err)
	}
	if err := Attach(b, "hub2", "runs/a", "a2"); err == nil {
		t.Fatal("double attachment not refused")
	}
	// Saves land in the hub store, journal under the namespace.
	saveDedup(t, b, "runs/a/checkpoint-10", 7)
	blobs, _, _, err := mustStore(t, b, "hub").List()
	if err != nil || len(blobs) == 0 {
		t.Fatalf("hub store blobs = %d, %v", len(blobs), err)
	}
	entries, err := b.List("hub/objects/refs/a")
	if err != nil || len(entries) == 0 {
		t.Fatalf("namespaced journal entries = %v, %v", entries, err)
	}
	// Detach while referencing blobs needs force.
	if err := Detach(b, "runs/a", false); err == nil {
		t.Fatal("detach with live refs not refused")
	}
	if err := Detach(b, "runs/a", true); err != nil {
		t.Fatal(err)
	}
	if ref, _ := storage.ReadHubRef(b, "runs/a/objects"); ref != nil {
		t.Fatal("hubref survived detach")
	}
	if runs, _ := storage.ListHubRuns(b, "hub"); len(runs) != 0 {
		t.Fatalf("registry survived detach: %+v", runs)
	}
	if entries, _ := b.List("hub/objects/refs/a"); len(entries) != 0 {
		t.Fatalf("journal records survived detach: %v", entries)
	}
}

func TestAttachRefusesLocalBlobs(t *testing.T) {
	b := storage.NewMem()
	if err := Init(b, "hub", Options{}); err != nil {
		t.Fatal(err)
	}
	saveDedup(t, b, "runs/solo/checkpoint-10", 3)
	if err := Attach(b, "hub", "runs/solo", ""); err == nil ||
		!strings.Contains(err.Error(), "local") {
		t.Fatalf("attach over local blobs: %v", err)
	}
}

// TestInitRefusesShardingPopulatedHub: re-initialising a flat hub that
// already serves blobs with a shard count would orphan every one of them;
// Init surfaces storage.InitShards' refusal and the attached run still
// restores.
func TestInitRefusesShardingPopulatedHub(t *testing.T) {
	b := storage.NewMem()
	if err := Init(b, "hub", Options{}); err != nil {
		t.Fatal(err)
	}
	if err := Attach(b, "hub", "runs/a", ""); err != nil {
		t.Fatal(err)
	}
	saveDedup(t, b, "runs/a/checkpoint-10", 3)
	err := Init(b, "hub", Options{Shards: 4})
	var populated *storage.PopulatedStoreError
	if !errors.As(err, &populated) || populated.Root != "hub/objects" {
		t.Fatalf("sharding a populated hub: %v", err)
	}
	if _, _, _, err := ckpt.Restore(b, "runs/a/checkpoint-10", tensor.BF16); err != nil {
		t.Fatalf("run unusable after the refused re-init: %v", err)
	}
	info, err := Stat(b, "hub")
	if err != nil || info.Shards != 0 || info.Blobs == 0 {
		t.Fatalf("hub after the refused re-init: %+v, %v", info, err)
	}
}

func TestStatAndHubGC(t *testing.T) {
	b := storage.NewMem()
	if err := Init(b, "hub", Options{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"runs/a", "runs/b"} {
		if err := Attach(b, "hub", r, ""); err != nil {
			t.Fatal(err)
		}
	}
	mA := saveDedup(t, b, "runs/a/checkpoint-10", 11)
	mB := saveDedup(t, b, "runs/b/checkpoint-10", 22)

	info, err := Stat(b, "hub")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Runs) != 2 || info.Shards != 2 || info.Blobs == 0 || info.Bytes == 0 {
		t.Fatalf("info = %+v", info)
	}
	for _, r := range info.Runs {
		if r.Checkpoints != 1 || r.Referenced == 0 {
			t.Fatalf("run info = %+v", r)
		}
	}

	// Nothing is dead yet: GC keeps everything.
	rep, err := GC(b, "hub", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RemovedBlobs) != 0 || rep.Kept != info.Blobs {
		t.Fatalf("gc on live hub = %+v", rep)
	}

	// Force-detach run A: its exclusive digests become garbage, run B's
	// survive the union.
	if err := Detach(b, "runs/a", true); err != nil {
		t.Fatal(err)
	}
	dry, err := GC(b, "hub", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(dry.RemovedBlobs) == 0 {
		t.Fatal("dry-run found nothing reclaimable after detach")
	}
	rep, err = GC(b, "hub", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RemovedBlobs) != len(dry.RemovedBlobs) {
		t.Fatalf("dry-run promised %d removals, real run did %d", len(dry.RemovedBlobs), len(rep.RemovedBlobs))
	}
	rm, _, _, err := ckpt.Restore(b, "runs/b/checkpoint-10", tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}
	if !model.Equal(rm, mB) {
		t.Fatal("run B restore diverged after hub GC")
	}
	_ = mA
}

// mustStore opens the hub's shared store.
func mustStore(t *testing.T, b storage.Backend, hubRoot string) *storage.BlobStore {
	t.Helper()
	s, err := storage.OpenCAS(b, storage.HubObjectsRoot(hubRoot))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// failList fails the first List of one directory — a transient backend
// error — and passes everything else through.
type failList struct {
	storage.Backend
	dir    string
	failed *bool
}

func (f failList) List(dir string) ([]string, error) {
	if dir == f.dir && !*f.failed {
		*f.failed = true
		return nil, storage.ErrInjected
	}
	return f.Backend.List(dir)
}

// TestStatRunRootAbsentIsZeroOtherErrorsAreLoud: an attached run that has
// saved nothing yet has no root and counts zero checkpoints; a run root that
// cannot be listed is an error, not "zero checkpoints".
func TestStatRunRootAbsentIsZeroOtherErrorsAreLoud(t *testing.T) {
	b := storage.NewFault(storage.NewMem())
	if err := Init(b, "hub", Options{}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"runs/a", "runs/fresh"} {
		if err := Attach(b, "hub", r, ""); err != nil {
			t.Fatal(err)
		}
	}
	saveDedup(t, b, "runs/a/checkpoint-10", 11)
	info, err := Stat(b, "hub")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range info.Runs {
		if want := map[string]int{"runs/a": 1, "runs/fresh": 0}[r.Root]; r.Checkpoints != want {
			t.Fatalf("run %s: %d checkpoints, want %d", r.Root, r.Checkpoints, want)
		}
	}
	if _, err := Stat(failList{b, "runs/a", new(bool)}, "hub"); !storage.IsInjected(err) {
		t.Fatalf("stat over a run root whose listing failed: err = %v, want the listing's error", err)
	}
}
