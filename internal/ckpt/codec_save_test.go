package ckpt

// Blob-codec integration over the save/restore surface: xor-parent saves
// against a slightly-perturbed previous checkpoint must actually delta
// (manifest entries carry the codec and parent chain, stored bytes shrink),
// restore bit-exact and materialize byte-identical to a plain save; the
// re-base bound must cap chain depth; and a content-addressed output of a
// plain checkpoint (an Output taking its payloads by reference) must work on
// no-rename (object store) backends and hold the publication invariant under
// crash-point exploration.

import (
	"bytes"
	"fmt"
	"testing"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

// perturbLayer nudges every 97th master element of one mergeable layer's
// optimizer state and re-derives the model from the masters — a tiny
// training step: almost all bytes identical to the previous save, and the
// model = rounded-master invariant every writer keeps holds by construction.
func perturbLayer(t testing.TB, m *model.Model, o *optim.AdamW, cfg *modelcfg.Config, layerIdx, step int) {
	t.Helper()
	ref := cfg.AllLayers()[layerIdx%len(cfg.AllLayers())]
	for gi, g := range o.Layout.Groups {
		if !g.HasLayer || g.Layer != ref {
			continue
		}
		st := o.States[gi]
		for k := 0; k < len(st.Master); k += 97 {
			st.Master[k] += float32(step) * 1e-2
			st.ExpAvg[k] += float32(step) * 1e-4
		}
	}
	if err := o.SyncModelFromMaster(); err != nil {
		t.Fatal(err)
	}
}

func codecSpec(dir string, step int, m *model.Model, o *optim.AdamW, codec string) SaveSpec {
	return SaveSpec{Dir: dir, Model: m, Optim: o, WorldSize: 2, Strategy: "full",
		Dedup: true, Codec: codec,
		State: TrainerState{Step: step, Seed: 170}}
}

// TestCodecXorSaveRoundTrip: an xor save after a small perturbation must
// produce xor-parent manifest entries whose stored bytes undercut the
// payload, restore bit-exact, and materialize byte-identical to a plain
// (uncompressed, non-dedup) save of the same state.
func TestCodecXorSaveRoundTrip(t *testing.T) {
	cfg := modelcfg.Tiny()
	m, o := buildOptim(t, cfg, 170)
	b := storage.NewMem()
	plain := storage.NewMem()
	saveBoth := func(dir string, step int) {
		t.Helper()
		if err := Save(b, codecSpec(dir, step, m, o, "xor")); err != nil {
			t.Fatal(err)
		}
		if err := Save(plain, SaveSpec{Dir: dir, Model: m, Optim: o, WorldSize: 2,
			Strategy: "full", State: TrainerState{Step: step, Seed: 170}}); err != nil {
			t.Fatal(err)
		}
	}
	saveBoth("run/checkpoint-100", 100)
	perturbLayer(t, m, o, cfg, 2, 1)
	saveBoth("run/checkpoint-200", 200)

	cs, err := ReadCodecStats(b, "run/checkpoint-200")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Entries["xor-parent"] == 0 {
		t.Fatalf("no xor-parent entries after a perturbed save: %+v", cs.Entries)
	}
	if cs.DeepestChain != 1 {
		t.Fatalf("deepest chain = %d, want 1", cs.DeepestChain)
	}
	if cs.StoredBytes >= cs.RawBytes {
		t.Fatalf("no compression: stored %d >= payload %d", cs.StoredBytes, cs.RawBytes)
	}

	// Restore is bit-exact against the live state.
	rm, ro, c, err := Restore(b, "run/checkpoint-200", tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}
	if c.State.Step != 200 || !model.Equal(rm, m) || !sameOptim(ro, o) {
		t.Fatal("xor-parent restore differs from the saved state")
	}

	// Materialization reproduces the plain save's containers byte for byte
	// — the digest-over-uncompressed invariant end to end.
	if err := MaterializeWeights(b, "run/checkpoint-200", "mat.ltsf", 0); err != nil {
		t.Fatal(err)
	}
	want, _ := plain.ReadFile("run/checkpoint-200/model.ltsf")
	got, _ := b.ReadFile("mat.ltsf")
	if len(want) == 0 || !bytes.Equal(want, got) {
		t.Fatal("materialized xor checkpoint differs from the plain save")
	}
	for r := 0; r < 2; r++ {
		if err := MaterializeShardFile(b, "run/checkpoint-200", r, "mat.ltos", 0); err != nil {
			t.Fatal(err)
		}
		want, _ := plain.ReadFile("run/checkpoint-200/" + ShardFileName(r))
		got, _ := b.ReadFile("mat.ltos")
		if len(want) == 0 || !bytes.Equal(want, got) {
			t.Fatalf("materialized rank %d shard differs from the plain save", r)
		}
	}

	// Health: committed, referenced, clean index; a full GC must keep the
	// parents the delta chain pins and leave both checkpoints restorable.
	if err := VerifyCommit(b, "run/checkpoint-200"); err != nil {
		t.Fatal(err)
	}
	if _, err := GC(b, "run"); err != nil {
		t.Fatal(err)
	}
	if problems := refProblems(t, b, "run"); len(problems) != 0 {
		t.Fatalf("ref-index problems: %+v", problems)
	}
	if _, _, _, err := Restore(b, "run/checkpoint-200", tensor.BF16); err != nil {
		t.Fatalf("restore after gc: %v", err)
	}
	if _, _, _, err := Restore(b, "run/checkpoint-100", tensor.BF16); err != nil {
		t.Fatalf("parent checkpoint unrestorable after gc: %v", err)
	}

	// Doctor's codec view agrees and finds no missing parents.
	for _, h := range doctorScan(t, b, "run", ScanViews{Codecs: true}).Codecs {
		if len(h.MissingParents) != 0 {
			t.Fatalf("%s reports missing parents: %v", h.Dir, h.MissingParents)
		}
	}
}

// TestCodecRebaseBoundsChain: with the same layer perturbed every save,
// chains must grow 1, 2, … up to DefaultCodecRebase, then re-base — never
// exceeding the bound — and every generation stays restorable.
func TestCodecRebaseBoundsChain(t *testing.T) {
	cfg := modelcfg.Tiny()
	m, o := buildOptim(t, cfg, 171)
	b := storage.NewMem()
	const bound, saves = DefaultCodecRebase, DefaultCodecRebase + 3
	sawBound, sawRebase := false, false
	for i := 1; i <= saves; i++ {
		if i > 1 {
			perturbLayer(t, m, o, cfg, 2, i)
		}
		dir := fmt.Sprintf("run/checkpoint-%d", i*100)
		if err := Save(b, codecSpec(dir, i*100, m, o, "xor")); err != nil {
			t.Fatal(err)
		}
		cs, err := ReadCodecStats(b, dir)
		if err != nil {
			t.Fatal(err)
		}
		if cs.DeepestChain > bound {
			t.Fatalf("save %d: chain depth %d exceeds rebase bound %d", i, cs.DeepestChain, bound)
		}
		if i > 1 {
			if cs.DeepestChain == bound {
				sawBound = true
			}
			if sawBound && cs.DeepestChain < bound {
				sawRebase = true
			}
		}
	}
	if !sawBound || !sawRebase {
		t.Fatalf("chain never cycled through the bound: sawBound=%v sawRebase=%v", sawBound, sawRebase)
	}
	rm, ro, _, err := Restore(b, fmt.Sprintf("run/checkpoint-%d", saves*100), tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}
	if !model.Equal(rm, m) || !sameOptim(ro, o) {
		t.Fatal("final restore differs after repeated deltas and re-bases")
	}
}

// TestDedupifyObjStore: TestPublishDedupOutput on a no-rename backend, where
// the transaction builds under the final keys and the marker PUT publishes:
// the containers are gone before it, so no reader ever lists them.
func TestDedupifyObjStore(t *testing.T) { testPublishDedupOutput(t, storage.NewObjStore()) }

// TestCrashPointExplorationDedupify fails every storage operation of a
// content-addressed publication in turn — a by-reference dedup output of a
// plain source in another run root (outputByReference), written over a
// previous plain incarnation of the same name — on a no-rename and a rename
// backend. Object-store PUTs are atomic, so only
// the rename backend has a torn row. The invariant is the save path's: a
// directory that is published is whole and in ONE form at every crash point
// (what carries a marker scans committed, never converting), after Repair the
// name holds nothing, the previous incarnation byte for byte, or the complete
// content-addressed output, a retry is byte-exact with the fault-free run, and
// Repair plus a full GC leave no blob unreferenced and no record stale.
func TestCrashPointExplorationDedupify(t *testing.T) {
	rows := []struct {
		name string
		mk   func() storage.Backend
		torn bool
	}{
		{"objstore", func() storage.Backend { return storage.NewObjStore() }, false},
		{"mem", func() storage.Backend { return storage.NewMem() }, false},
		{"mem-torn", func() storage.Backend { return storage.NewMem() }, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { exploreDedupifyCrashes(t, row.mk, row.torn) })
	}
}

func exploreDedupifyCrashes(t *testing.T, mk func() storage.Backend, torn bool) {
	const dir, src = "run/checkpoint-5", "src/checkpoint-5"
	build := func() (storage.Backend, *model.Model, *optim.AdamW) {
		b := mk()
		m, o := saveFull(t, b, dir, 173, 2)
		saveFull(t, b, src, 173, 2)
		return b, m, o
	}

	base, _, _ := build()
	plainDigest := treeDigest(t, base, dir)
	f := storage.NewFault(base)
	if _, err := outputByReference(f, src, dir, true); err != nil {
		t.Fatal(err)
	}
	wantDigest := treeDigest(t, base, dir)
	n := int(f.Ops())
	if n < 8 {
		t.Fatalf("suspiciously few fault points in a dedup publication: %d", n)
	}
	t.Logf("exploring %d dedup publication crash points", n)

	for k := 1; k <= n; k++ {
		base, m, o := build()
		f := storage.NewFault(base)
		f.SetTorn(torn)
		f.FailAt(k)
		if _, err := outputByReference(f, src, dir, true); !storage.IsInjected(err) {
			t.Fatalf("k=%d: err = %v, want injected", k, err)
		}

		// A published directory is whole and in one form, before any repair.
		restores := func(how string) {
			rm, ro, _, err := Restore(base, dir, tensor.BF16)
			if err != nil {
				t.Fatalf("k=%d: unrestorable %s: %v", k, how, err)
			}
			if !model.Equal(rm, m) || !sameOptim(ro, o) {
				t.Fatalf("k=%d: restore differs %s", k, how)
			}
		}
		if _, err := ScanRun(base, "run", ScanViews{Blobs: true, Refs: true}); err != nil {
			t.Fatalf("k=%d: the doctor's blob and ref views fail on the crashed state: %v", k, err)
		}
		dirs, err := Scan(base, "run")
		if err != nil {
			t.Fatalf("k=%d: scan of the crashed state: %v", k, err)
		}
		for _, st := range dirs {
			if st.State == StateConverting {
				t.Fatalf("k=%d: %s published in two forms", k, st.Path)
			}
		}
		if CheckCommit(base, dir) == nil {
			restores("from the crashed state")
		}

		// After Repair: nothing, the previous incarnation, or the output.
		if _, err := Repair(base, "run"); err != nil {
			t.Fatalf("k=%d: repair: %v", k, err)
		}
		dirs, err = Scan(base, "run")
		if storage.IsNotExist(err) {
			dirs, err = nil, nil // the run root held the one directory, and it is gone
		}
		if err != nil || len(dirs) > 1 {
			t.Fatalf("k=%d: scan after repair: %+v, %v", k, dirs, err)
		}
		switch {
		case len(dirs) == 0:
			if base.Exists(dir) || base.Exists(StagingDir(dir)) {
				t.Fatalf("k=%d: repair reports nothing but left files under the name", k)
			}
		case dirs[0].Path != dir || dirs[0].State != StateCommitted:
			t.Fatalf("k=%d: after repair: %+v", k, dirs[0])
		case IsDedup(base, dir):
			if d := treeDigest(t, base, dir); d != wantDigest {
				t.Fatalf("k=%d: the content-addressed output differs from the fault-free one", k)
			}
			restores("after repair")
		default:
			if d := treeDigest(t, base, dir); d != plainDigest {
				t.Fatalf("k=%d: a plain directory that is not the previous incarnation", k)
			}
		}
		if _, err := GC(base, "run"); err != nil {
			t.Fatalf("k=%d: gc after repair: %v", k, err)
		}
		for _, s := range doctorScan(t, base, "run", ScanViews{Blobs: true}).Blobs {
			if s.State != BlobReferenced {
				t.Fatalf("k=%d: blob %s still %v after repair + gc", k, s.Path, s.State)
			}
		}
		if problems := refProblems(t, base, "run"); len(problems) != 0 {
			t.Fatalf("k=%d: ref-index problems after repair + gc: %+v", k, problems)
		}

		// A retry is byte-exact with the fault-free run.
		if _, err := outputByReference(base, src, dir, true); err != nil {
			t.Fatalf("k=%d: retry: %v", k, err)
		}
		if d := treeDigest(t, base, dir); d != wantDigest {
			t.Fatalf("k=%d: the retried output differs from the fault-free one", k)
		}
		restores("after the retry")
		if problems := refProblems(t, base, "run"); len(problems) != 0 {
			t.Fatalf("k=%d: ref-index problems after the retry: %+v", k, problems)
		}
	}
}
