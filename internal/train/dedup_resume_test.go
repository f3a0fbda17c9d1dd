package train

// End-to-end dedup checkpointing: N incremental content-addressed saves, a
// crash, and a ResumeLatest that must be bit-identical to the plain-save
// path — the acceptance property of the content-addressed layer store.

import (
	"bytes"
	"testing"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/model"
	"llmtailor/internal/storage"
)

// runPair executes the same deterministic run twice — plain saves on one
// backend, dedup saves on the other — up to FailAt.
func runPair(t *testing.T, failAt int) (plain, dedup *storage.Mem) {
	t.Helper()
	plain, dedup = storage.NewMem(), storage.NewMem()
	for _, mode := range []struct {
		b     *storage.Mem
		dedup bool
	}{{plain, false}, {dedup, true}} {
		cfg := tinyConfig("run")
		cfg.FailAt = failAt
		cfg.DedupCkpt = mode.dedup
		tr, err := New(cfg, mode.b)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run()
		if err != nil {
			t.Fatal(err)
		}
		if failAt > 0 && !res.Failed {
			t.Fatal("run did not fail at the injected step")
		}
	}
	return plain, dedup
}

func TestDedupResumeBitIdenticalToPlain(t *testing.T) {
	// 4 checkpoint events (10, 20, 30, 40), crash at 45.
	plain, dedup := runPair(t, 45)

	// The dedup run produced manifests + a blob store, no payload
	// containers; both runs committed the same checkpoint steps.
	pd, err := ckpt.List(plain, "run")
	if err != nil {
		t.Fatal(err)
	}
	dd, err := ckpt.List(dedup, "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(pd) != 4 || len(dd) != 4 {
		t.Fatalf("checkpoints: plain %d, dedup %d", len(pd), len(dd))
	}
	if dedup.Exists("run/checkpoint-40/model.ltsf") || !dedup.Exists("run/checkpoint-40/"+ckpt.WeightManifestName) {
		t.Fatal("dedup run wrote the wrong layout")
	}

	// Resume both; training from the resumed state must be identical.
	tp, err := ResumeLatest(tinyConfig("run"), plain, "run")
	if err != nil {
		t.Fatal(err)
	}
	td, err := ResumeLatest(tinyConfig("run"), dedup, "run")
	if err != nil {
		t.Fatal(err)
	}
	if tp.Step() != 40 || td.Step() != 40 {
		t.Fatalf("resume steps: plain %d, dedup %d", tp.Step(), td.Step())
	}
	if !model.Equal(tp.Model, td.Model) {
		t.Fatal("resumed models differ between plain and dedup paths")
	}
	rp, err := tp.Run()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := td.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rp.FinalLoss != rd.FinalLoss || rp.FinalStep != rd.FinalStep {
		t.Fatalf("continued runs diverged: plain %v@%d, dedup %v@%d",
			rp.FinalLoss, rp.FinalStep, rd.FinalLoss, rd.FinalStep)
	}
	if !model.Equal(tp.Model, td.Model) {
		t.Fatal("final models differ after continued training")
	}

	// Golden pin: the materialized dedup containers are byte-identical to
	// the plain run's at every checkpoint step.
	for _, dir := range dd {
		if err := ckpt.MaterializeWeights(dedup, dir, "mat.ltsf", 0); err != nil {
			t.Fatal(err)
		}
		want, _ := plain.ReadFile(dir + "/model.ltsf")
		got, _ := dedup.ReadFile("mat.ltsf")
		if len(want) == 0 || !bytes.Equal(want, got) {
			t.Fatalf("%s: materialized weights differ from plain save", dir)
		}
		for r := 0; r < 2; r++ {
			if err := ckpt.MaterializeShardFile(dedup, dir, r, "mat.ltos", 0); err != nil {
				t.Fatal(err)
			}
			want, _ := plain.ReadFile(dir + "/" + ckpt.ShardFileName(r))
			got, _ := dedup.ReadFile("mat.ltos")
			if len(want) == 0 || !bytes.Equal(want, got) {
				t.Fatalf("%s rank %d: materialized shard differs from plain save", dir, r)
			}
		}
	}
}

// TestDedupAsyncTrainingRun: the async saver composes with dedup saves
// (layers captured, blobs put and the commit written in the background).
func TestDedupAsyncTrainingRun(t *testing.T) {
	b := storage.NewMem()
	cfg := tinyConfig("run")
	cfg.LazyCapture = true
	cfg.DedupCkpt = true
	tr, err := New(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	dirs, err := ckpt.List(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 6 {
		t.Fatalf("committed %d checkpoints, want 6", len(dirs))
	}
	// Every checkpoint restores through the transparent dedup reader.
	if _, err := ResumeLatest(tinyConfig("run"), b, "run"); err != nil {
		t.Fatal(err)
	}
	// The run root's blob store is healthy: all blobs referenced or —
	// after a GC — gone.
	if _, err := ckpt.GC(b, "run"); err != nil {
		t.Fatal(err)
	}
	scan, err := ckpt.ScanRun(b, "run", ckpt.ScanViews{Blobs: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scan.Blobs {
		if s.State != ckpt.BlobReferenced {
			t.Fatalf("blob %s is %v after gc", s.Path, s.State)
		}
	}
}
