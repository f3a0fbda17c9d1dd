package ckpt

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

// putBytes stores a byte slice raw under its own digest, over the store's one
// put (the convenience BlobStore.PutBytes used to be).
func putBytes(s *storage.BlobStore, data []byte) (digest string, written bool, err error) {
	digest = storage.DigestBytes(data)
	res, err := s.PutStreamOpts(digest, storage.BlobPutOptions{}, func(w io.Writer) (int64, error) {
		n, err := w.Write(data)
		return int64(n), err
	})
	return digest, res.Written, err
}

// saveDedup mirrors saveFull with the content-addressed path enabled.
func saveDedup(t testing.TB, b storage.Backend, dir string, seed uint64, ws int) (*model.Model, *optim.AdamW) {
	t.Helper()
	m, o := buildOptim(t, modelcfg.Tiny(), seed)
	err := Save(b, SaveSpec{
		Dir: dir, Model: m, Optim: o, WorldSize: ws, Strategy: "full", Dedup: true,
		State: TrainerState{Step: o.StepCount, LR: 1e-3, Loss: 2.0, Task: "sft", Seed: seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, o
}

func TestDedupSaveAnatomyAndRestore(t *testing.T) {
	b := storage.NewMem()
	m, o := saveDedup(t, b, "run/checkpoint-3", 120, 2)

	// Anatomy: manifests instead of containers, blobs under run/objects.
	for _, f := range []string{
		"run/checkpoint-3/" + WeightManifestName,
		"run/checkpoint-3/" + ShardManifestName(0),
		"run/checkpoint-3/" + ShardManifestName(1),
		"run/checkpoint-3/config.json",
		"run/checkpoint-3/manifest.json",
		"run/checkpoint-3/" + CommitMarkerName,
		"run/latest",
	} {
		if !b.Exists(f) {
			t.Errorf("missing %s", f)
		}
	}
	for _, f := range []string{"run/checkpoint-3/model.ltsf", "run/checkpoint-3/" + ShardFileName(0)} {
		if b.Exists(f) {
			t.Errorf("dedup save wrote payload container %s", f)
		}
	}
	if !b.Exists("run/objects") {
		t.Fatal("no blob store")
	}
	if err := VerifyCommit(b, "run/checkpoint-3"); err != nil {
		t.Fatal(err)
	}

	// The manifest flags the layout.
	man, err := ReadManifest(b, "run/checkpoint-3")
	if err != nil {
		t.Fatal(err)
	}
	if !man.Dedup || !man.Complete {
		t.Fatalf("manifest = %+v", man)
	}

	// Restore is transparent and exact.
	m2, o2, c, err := Restore(b, "run/checkpoint-3", tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}
	if c.State.Step != o.StepCount {
		t.Fatalf("state step = %d", c.State.Step)
	}
	if !model.Equal(m, m2) {
		t.Fatal("restored model differs")
	}
	if !sameOptim(o, o2) {
		t.Fatal("restored optimizer differs")
	}
}

// TestDedupMaterializeGoldenPin pins the acceptance property: containers
// materialized from a dedup checkpoint are byte-identical to what a plain
// Save of the same state writes.
func TestDedupMaterializeGoldenPin(t *testing.T) {
	plain := storage.NewMem()
	saveFull(t, plain, "run/checkpoint-3", 121, 2)
	dedup := storage.NewMem()
	saveDedup(t, dedup, "run/checkpoint-3", 121, 2)

	if err := MaterializeWeights(dedup, "run/checkpoint-3", "mat/model.ltsf", 0); err != nil {
		t.Fatal(err)
	}
	want, _ := plain.ReadFile("run/checkpoint-3/model.ltsf")
	got, _ := dedup.ReadFile("mat/model.ltsf")
	if len(want) == 0 || !bytes.Equal(want, got) {
		t.Fatalf("materialized weights differ: %d vs %d bytes", len(got), len(want))
	}

	for r := 0; r < 2; r++ {
		if err := MaterializeShardFile(dedup, "run/checkpoint-3", r, "mat/shard.ltos", 0); err != nil {
			t.Fatal(err)
		}
		want, _ := plain.ReadFile("run/checkpoint-3/" + ShardFileName(r))
		got, _ := dedup.ReadFile("mat/shard.ltos")
		if len(want) == 0 || !bytes.Equal(want, got) {
			t.Fatalf("materialized rank %d shard differs: %d vs %d bytes", r, len(got), len(want))
		}
	}
}

// TestDedupSecondSaveWritesNoPayloadBytes is the core dedup property: an
// unchanged state re-saved under a new step stores zero new blobs.
func TestDedupSecondSaveWritesNoPayloadBytes(t *testing.T) {
	b := storage.NewMem()
	m, o := saveDedup(t, b, "run/checkpoint-100", 122, 2)
	store := storage.NewBlobStore(b, "run/objects")
	blobsBefore, _, _, err := store.List()
	if err != nil {
		t.Fatal(err)
	}

	meter := storage.NewMeter(b, storage.Profile{})
	before := meter.Stats().BytesWritten
	st := TrainerState{Step: 200, LR: 1e-3, Loss: 1.5, Task: "sft", Seed: 122}
	if err := Save(meter, SaveSpec{Dir: "run/checkpoint-200", Model: m, Optim: o,
		WorldSize: 2, Strategy: "full", Dedup: true, State: st}); err != nil {
		t.Fatal(err)
	}
	blobsAfter, _, _, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(blobsAfter) != len(blobsBefore) {
		t.Fatalf("unchanged re-save grew the store: %d -> %d blobs", len(blobsBefore), len(blobsAfter))
	}
	// Manifest+JSON bytes only: a small fraction of the payload volume.
	var payload int64
	for _, bl := range blobsAfter {
		payload += bl.Size
	}
	written := meter.Stats().BytesWritten - before
	if written > payload/4 {
		t.Fatalf("unchanged re-save wrote %d bytes (payload is %d)", written, payload)
	}

	// Both checkpoints restore exactly.
	for _, dir := range []string{"run/checkpoint-100", "run/checkpoint-200"} {
		rm, ro, _, err := Restore(b, dir, tensor.BF16)
		if err != nil {
			t.Fatal(err)
		}
		if !model.Equal(rm, m) || !sameOptim(ro, o) {
			t.Fatalf("%s: restore differs", dir)
		}
	}
}

func TestDedupScanStates(t *testing.T) {
	b := storage.NewMem()
	saveDedup(t, b, "run/checkpoint-10", 123, 1)
	statuses, err := Scan(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 1 || statuses[0].State != StateCommitted {
		t.Fatalf("scan = %+v", statuses)
	}

	// Blob scan: everything referenced; plant garbage + staging residue.
	bs, err := ScanBlobs(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) == 0 {
		t.Fatal("no blobs scanned")
	}
	for _, s := range bs {
		if s.State != BlobReferenced || s.Refs < 1 {
			t.Fatalf("blob %s state %v refs %d", s.Digest, s.State, s.Refs)
		}
	}
	store := storage.NewBlobStore(b, "run/objects")
	garbage, _, err := putBytes(store, []byte("orphan payload"))
	if err != nil {
		t.Fatal(err)
	}
	b.WriteFile("run/objects/.stage/put-777", []byte("torn"))
	bs, _ = ScanBlobs(b, "run")
	var unref, staging int
	for _, s := range bs {
		switch s.State {
		case BlobUnreferenced:
			unref++
			if s.Digest != garbage {
				t.Fatalf("wrong blob unreferenced: %s", s.Digest)
			}
		case BlobStaging:
			staging++
		}
	}
	if unref != 1 || staging != 1 {
		t.Fatalf("unref=%d staging=%d", unref, staging)
	}

	// Removing a referenced blob makes the checkpoint torn in Scan.
	refs, err := BlobRefs(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	var victim string
	for d := range refs {
		victim = d
		break
	}
	if err := b.Remove(store.Path(victim)); err != nil {
		t.Fatal(err)
	}
	statuses, _ = Scan(b, "run")
	if len(statuses) != 1 || statuses[0].State != StateTorn ||
		!strings.Contains(statuses[0].Detail, "missing blob") {
		t.Fatalf("scan after blob loss = %+v", statuses)
	}
}

func TestGCKeepsReferencedSweepsGarbage(t *testing.T) {
	b := storage.NewMem()
	m1, o1 := saveDedup(t, b, "run/checkpoint-100", 124, 2)
	// A second, different state shares nothing; re-saving checkpoint-100
	// with it orphans the first state's exclusive blobs... instead keep
	// both steps alive and orphan blobs by replacing checkpoint-200.
	m2, o2 := buildOptim(t, modelcfg.Tiny(), 125)
	save := func(dir string, step int, mm *model.Model, oo *optim.AdamW) {
		t.Helper()
		if err := Save(b, SaveSpec{Dir: dir, Model: mm, Optim: oo, WorldSize: 2,
			Strategy: "full", Dedup: true, State: TrainerState{Step: step, Seed: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	save("run/checkpoint-200", 200, m2, o2)
	// Replace step 200 with state 1's tensors: state 2's blobs lose their
	// only reference.
	save("run/checkpoint-200", 200, m1, o1)
	b.WriteFile("run/objects/.stage/put-9", []byte("residue"))

	rep, err := GC(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RemovedBlobs) == 0 || len(rep.RemovedStaging) != 1 || rep.Kept == 0 {
		t.Fatalf("gc = %+v", rep)
	}
	// Everything still restores bit-exact after the sweep.
	for _, dir := range []string{"run/checkpoint-100", "run/checkpoint-200"} {
		rm, ro, _, err := Restore(b, dir, tensor.BF16)
		if err != nil {
			t.Fatalf("%s after gc: %v", dir, err)
		}
		if !model.Equal(rm, m1) || !sameOptim(ro, o1) {
			t.Fatalf("%s: restore differs after gc", dir)
		}
	}
	// Idempotent; a second GC finds nothing to do.
	rep2, err := GC(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.RemovedBlobs) != 0 || len(rep2.RemovedStaging) != 0 {
		t.Fatalf("second gc not a no-op: %+v", rep2)
	}
	// GC on a run root of plain (non-dedup) checkpoints is a clean no-op.
	plain := storage.NewMem()
	saveFull(t, plain, "plain-run/checkpoint-1", 9, 1)
	if rep, err := GC(plain, "plain-run"); err != nil || rep.Kept != 0 || rep.Referenced != 0 {
		t.Fatalf("gc without store = %+v, %v", rep, err)
	}
}

// Repair cleans blob-staging residue (crash garbage, same class as an
// orphaned .tmp dir) but never touches published blobs — unreferenced or
// not, those are GC's call.
func TestRepairRemovesBlobStagingOnly(t *testing.T) {
	b := storage.NewMem()
	saveDedup(t, b, "run/checkpoint-10", 150, 1)
	store := storage.NewBlobStore(b, "run/objects")
	garbage, _, err := putBytes(store, []byte("unreferenced but published"))
	if err != nil {
		t.Fatal(err)
	}
	b.WriteFile("run/objects/.stage/put-3", []byte("residue"))

	rep, err := Repair(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BlobStagingRemoved) != 1 {
		t.Fatalf("repair = %+v", rep)
	}
	if b.Exists("run/objects/.stage/put-3") {
		t.Fatal("staging residue survived repair")
	}
	if !store.Has(garbage) {
		t.Fatal("repair swept a published blob (GC's territory)")
	}
	if _, _, _, err := Restore(b, "run/checkpoint-10", tensor.BF16); err != nil {
		t.Fatal(err)
	}
}

// BlobRefs protects quarantined dedup directories: their manifests keep
// referencing blobs so preserved evidence stays readable after a GC.
func TestBlobRefsProtectQuarantinedDirs(t *testing.T) {
	b := storage.NewMem()
	saveDedup(t, b, "run/checkpoint-10", 151, 1)
	saveDedup(t, b, "run/checkpoint-20", 152, 1)
	// Quarantine checkpoint-20 as adopt would (no marker, renamed aside).
	b.Remove("run/checkpoint-20/" + CommitMarkerName)
	if err := b.Rename("run/checkpoint-20", "run/checkpoint-20"+quarantineSuffix); err != nil {
		t.Fatal(err)
	}
	rep, err := GC(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RemovedBlobs) != 0 {
		t.Fatalf("gc swept blobs of a quarantined dir: %+v", rep)
	}
	// The quarantined copy still materializes.
	if err := MaterializeWeights(b, "run/checkpoint-20"+quarantineSuffix, "mat.ltsf", 0); err != nil {
		t.Fatal(err)
	}
}

// TestPublishDedupOutput: an output staged as plain containers and published
// with dedup on is content-addressed from the moment it is visible, restores
// exactly, and materializes back to the staged containers bit for bit.
func TestPublishDedupOutput(t *testing.T) {
	t.Run("mem", func(t *testing.T) { testPublishDedupOutput(t, storage.NewMem()) })
	t.Run("os", func(t *testing.T) {
		b, err := storage.NewOS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		testPublishDedupOutput(t, b)
	})
}

func testPublishDedupOutput(t *testing.T, b storage.Backend) {
	m, o := saveFull(t, b, "run/checkpoint-5", 126, 2)
	origLTSF, _ := b.ReadFile("run/checkpoint-5/model.ltsf")
	origShard0, _ := b.ReadFile("run/checkpoint-5/" + ShardFileName(0))

	rep := publishDedup(t, b, "run/checkpoint-5")
	if rep.BlobsPut == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if b.Exists("run/checkpoint-5/model.ltsf") || b.Exists("run/checkpoint-5/"+ShardFileName(0)) {
		t.Fatal("a payload container was published")
	}
	if b.Exists(StagingDir("run/checkpoint-5")) {
		t.Fatal("staging residue after publication")
	}
	if !IsDedup(b, "run/checkpoint-5") {
		t.Fatal("not content-addressed")
	}
	if err := VerifyCommit(b, "run/checkpoint-5"); err != nil {
		t.Fatal(err)
	}
	man, err := ReadManifest(b, "run/checkpoint-5")
	if err != nil || !man.Dedup || man.RefGen == 0 {
		t.Fatalf("manifest = %+v, %v", man, err)
	}
	rm, ro, _, err := Restore(b, "run/checkpoint-5", tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}
	if !model.Equal(rm, m) || !sameOptim(ro, o) {
		t.Fatal("restore differs")
	}
	if err := MaterializeWeights(b, "run/checkpoint-5", "mat.ltsf", 0); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.ReadFile("mat.ltsf"); !bytes.Equal(got, origLTSF) {
		t.Fatal("materialized weights differ from the staged container")
	}
	if err := MaterializeShardFile(b, "run/checkpoint-5", 0, "mat.ltos", 0); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.ReadFile("mat.ltos"); !bytes.Equal(got, origShard0) {
		t.Fatal("materialized shard differs from the staged container")
	}
	if problems := refProblems(t, b, "run"); len(problems) != 0 {
		t.Fatalf("ref-index problems: %+v", problems)
	}

	// A dedup save of the same state against the store reuses every blob.
	store := storage.NewBlobStore(b, "run/objects")
	blobsBefore, _, _, _ := store.List()
	if err := Save(b, SaveSpec{Dir: "run/checkpoint-6", Model: m, Optim: o, WorldSize: 2,
		Strategy: "full", Dedup: true, State: TrainerState{Step: 6, Seed: 126}}); err != nil {
		t.Fatal(err)
	}
	blobsAfter, _, _, _ := store.List()
	if len(blobsAfter) != len(blobsBefore) {
		t.Fatalf("dedup save of the published state stored new blobs: %d -> %d", len(blobsBefore), len(blobsAfter))
	}
}

// TestDedupifyPinsXorLineage: a dedup output whose payloads dedup-hit
// xor-coded blobs depends on those blobs' ancestors exactly like the save
// that stored them. Publish goes through the same write stage as every save,
// so its journal record pins the chains and its manifests record
// Codec/Stored/Parents — retiring every older generation must leave the
// output restorable bit for bit.
func TestDedupifyPinsXorLineage(t *testing.T) {
	backends := []struct {
		name string
		mk   func() storage.Backend
	}{
		{"mem", func() storage.Backend { return storage.NewMem() }},
		{"objstore", func() storage.Backend { return storage.NewObjStore() }},
	}
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			b := bk.mk()
			cfg := modelcfg.Tiny()
			m, o := buildOptim(t, cfg, 180)
			if err := Save(b, codecSpec("run/checkpoint-100", 100, m, o, "xor", 0)); err != nil {
				t.Fatal(err)
			}
			perturbLayer(t, m, o, cfg, 2, 1)
			if err := Save(b, codecSpec("run/checkpoint-200", 200, m, o, "xor", 0)); err != nil {
				t.Fatal(err)
			}
			// A plain save of the same state, published content-addressed:
			// every payload already exists as a blob, some of them xor deltas.
			const dir = "run/checkpoint-300"
			if err := Save(b, SaveSpec{Dir: dir, Model: m, Optim: o, WorldSize: 2,
				Strategy: "full", State: TrainerState{Step: 300, Seed: 170}}); err != nil {
				t.Fatal(err)
			}
			rep := publishDedup(t, b, dir)
			if rep.BlobsPut != 0 || rep.BlobsReused == 0 {
				t.Fatalf("dedup output of an already-stored state: %+v", rep)
			}
			cs, err := ReadCodecStats(b, dir)
			if err != nil {
				t.Fatal(err)
			}
			if cs.Entries["xor-parent"] == 0 || cs.DeepestChain == 0 {
				t.Fatalf("manifests do not record the xor blobs they reference: %+v", cs)
			}

			ret, err := Retain(b, "run", 1, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(ret.Removed) != 2 {
				t.Fatalf("retain removed %v, want both xor generations", ret.Removed)
			}
			rm, ro, _, err := Restore(b, dir, tensor.BF16)
			if err != nil {
				t.Fatalf("restore of the kept checkpoint: %v", err)
			}
			if !model.Equal(rm, m) || !sameOptim(ro, o) {
				t.Fatal("restore differs after retention")
			}
			if err := verifyDedupRefs(entryAt(b, dir)); err != nil {
				t.Fatal(err)
			}
			if problems := refProblems(t, b, "run"); len(problems) != 0 {
				t.Fatalf("ref-index problems: %+v", problems)
			}
			blobs, err := ScanBlobs(b, "run")
			if err != nil {
				t.Fatal(err)
			}
			for _, bs := range blobs {
				if bs.State != BlobReferenced {
					t.Fatalf("blob %s is %v after retention", bs.Path, bs.State)
				}
			}
			health, err := ScanCodecs(b, "run")
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range health {
				if len(h.MissingParents) != 0 {
					t.Fatalf("%s reports missing parents: %v", h.Dir, h.MissingParents)
				}
			}
		})
	}
}

// TestDedupCorruptBlobFailsReads: bit-flip a blob and every consumer must
// error (CRC catches reads; digest verification catches materialization).
func TestDedupCorruptBlobFailsReads(t *testing.T) {
	b := storage.NewMem()
	saveDedup(t, b, "run/checkpoint-9", 127, 1)
	wm, err := ReadWeightManifest(b, "run/checkpoint-9/"+WeightManifestName)
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewBlobStore(b, "run/objects")
	victim := wm.Tensors[0]
	corrupt(t, b, store.Path(victim.Digest), func(d []byte) []byte {
		d[len(d)/2] ^= 0x20
		return d
	})

	c, err := Open(b, "run/checkpoint-9")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Weights().ReadTensor(victim.Name); err == nil {
		t.Fatal("corrupt blob read succeeded")
	}
	if err := MaterializeWeights(b, "run/checkpoint-9", "mat.ltsf", 0); err == nil {
		t.Fatal("materialization accepted a corrupt blob")
	}
}

// TestDedupMergeSource: dedup checkpoints are transparent merge sources —
// the raw splice path reads straight from blobs and the output is byte-
// identical to merging the equivalent plain checkpoint.
func TestDedupPartialSave(t *testing.T) {
	b := storage.NewMem()
	m, o := buildOptim(t, modelcfg.Tiny(), 128)
	cfg := modelcfg.Tiny()
	layers := cfg.AllLayers()[:2]
	if err := Save(b, SaveSpec{Dir: "run/checkpoint-7", Model: m, Optim: o, WorldSize: 2,
		Strategy: "parity", Layers: layers, Dedup: true,
		State: TrainerState{Step: 7, Seed: 128}}); err != nil {
		t.Fatal(err)
	}
	c, err := Open(b, "run/checkpoint-7")
	if err != nil {
		t.Fatal(err)
	}
	if c.Manifest.Complete || len(c.Manifest.Layers) != 2 || !c.Manifest.Dedup {
		t.Fatalf("manifest = %+v", c.Manifest)
	}
	sf, err := c.ReadOptimShard(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sf.Shards) == 0 || sf.WorldSize != 2 || sf.Rank != 1 {
		t.Fatalf("shard = %+v", sf)
	}
}
