package train

import (
	"testing"

	"llmtailor/internal/storage"
	"llmtailor/internal/strategy"
)

// Async checkpointing must produce byte-identical checkpoints to the
// synchronous path: capture reads the state of the same step boundary (the
// trainer reclaims it in WaitCaptured before the next optimizer step), only
// the write is deferred.
func TestAsyncCheckpointingMatchesSync(t *testing.T) {
	bSync := storage.NewMem()
	cfgSync := tinyConfig("run")
	trSync, err := New(cfgSync, bSync)
	if err != nil {
		t.Fatal(err)
	}
	resSync, err := trSync.Run()
	if err != nil {
		t.Fatal(err)
	}

	bAsync := storage.NewMem()
	cfgAsync := tinyConfig("run")
	cfgAsync.LazyCapture = true
	trAsync, err := New(cfgAsync, bAsync)
	if err != nil {
		t.Fatal(err)
	}
	resAsync, err := trAsync.Run()
	if err != nil {
		t.Fatal(err)
	}

	if resSync.FinalLoss != resAsync.FinalLoss {
		t.Fatalf("async changed training: %v vs %v", resSync.FinalLoss, resAsync.FinalLoss)
	}
	if len(resSync.Ckpts) != len(resAsync.Ckpts) {
		t.Fatalf("ckpt counts differ: %d vs %d", len(resSync.Ckpts), len(resAsync.Ckpts))
	}
	for _, ev := range resSync.Ckpts {
		for _, f := range []string{"/model.ltsf", "/zero/rank_00_optim_states.ltos", "/manifest.json"} {
			a, err := bSync.ReadFile(ev.Dir + f)
			if err != nil {
				t.Fatal(err)
			}
			b, err := bAsync.ReadFile(ev.Dir + f)
			if err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Fatalf("%s%s differs between sync and async runs", ev.Dir, f)
			}
		}
	}
}

// Async + partial strategies compose: parity checkpoints written in the
// background remain mergeable and resumable.
func TestAsyncPartialCheckpointing(t *testing.T) {
	b := storage.NewMem()
	cfg := tinyConfig("run")
	cfg.Strategy = strategy.Parity{}
	cfg.LazyCapture = true
	tr, err := New(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ckpts) != 6 {
		t.Fatalf("ckpts = %d", len(res.Ckpts))
	}
	for _, ev := range res.Ckpts {
		if !ev.Partial {
			t.Fatal("parity event not partial")
		}
		if !b.Exists(ev.Dir + "/manifest.json") {
			t.Fatalf("%s not written", ev.Dir)
		}
	}
}
