package ckpt

// Blob-codec integration over the save/restore surface: xor-parent saves
// against a slightly-perturbed previous checkpoint must actually delta
// (manifest entries carry the codec and parent chain, stored bytes shrink),
// restore bit-exact and materialize byte-identical to a plain save; the
// re-base bound must cap chain depth; and Dedupify must convert committed
// checkpoints in place on no-rename (object store) backends, converging
// under crash-point exploration.

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
// model = rounded-master invariant restore re-establishes holds by
// construction.
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

func codecSpec(dir string, step int, m *model.Model, o *optim.AdamW, codec string, rebase int) SaveSpec {
	return SaveSpec{Dir: dir, Model: m, Optim: o, WorldSize: 2, Strategy: "full",
		Dedup: true, Codec: codec, CodecRebase: rebase,
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
		if err := Save(b, codecSpec(dir, step, m, o, "xor", 0)); err != nil {
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
	health, err := ScanCodecs(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range health {
		if len(h.MissingParents) != 0 {
			t.Fatalf("%s reports missing parents: %v", h.Dir, h.MissingParents)
		}
	}
}

// TestCodecRebaseBoundsChain: with CodecRebase=2 and the same layer
// perturbed every save, chains must grow 1, 2, then re-base — never
// exceeding the bound — and every generation stays restorable.
func TestCodecRebaseBoundsChain(t *testing.T) {
	cfg := modelcfg.Tiny()
	m, o := buildOptim(t, cfg, 171)
	b := storage.NewMem()
	const saves = 7
	sawBound, sawRebase := false, false
	for i := 1; i <= saves; i++ {
		if i > 1 {
			perturbLayer(t, m, o, cfg, 2, i)
		}
		dir := fmt.Sprintf("run/checkpoint-%d", i*100)
		if err := Save(b, codecSpec(dir, i*100, m, o, "xor", 2)); err != nil {
			t.Fatal(err)
		}
		cs, err := ReadCodecStats(b, dir)
		if err != nil {
			t.Fatal(err)
		}
		if cs.DeepestChain > 2 {
			t.Fatalf("save %d: chain depth %d exceeds rebase bound 2", i, cs.DeepestChain)
		}
		if i > 1 {
			if cs.DeepestChain == 2 {
				sawBound = true
			}
			if sawBound && cs.DeepestChain < 2 {
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

// TestDedupifyObjStore: in-place conversion on a no-rename backend via the
// write-objects-then-marker protocol — committed before, committed after,
// materialization bit-identical, second run a no-op.
func TestDedupifyObjStore(t *testing.T) {
	b := storage.NewObjStore()
	m, o := saveFull(t, b, "run/checkpoint-5", 172, 2)
	origLTSF, _ := b.ReadFile("run/checkpoint-5/model.ltsf")

	rep, err := Dedupify(b, "run/checkpoint-5")
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlobsPut == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if b.Exists("run/checkpoint-5/model.ltsf") {
		t.Fatal("payload container survived conversion")
	}
	if !IsDedup(b, "run/checkpoint-5") {
		t.Fatal("not content-addressed after dedupify")
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
		t.Fatal("restore differs after objstore dedupify")
	}
	if err := MaterializeWeights(b, "run/checkpoint-5", "mat.ltsf", 0); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.ReadFile("mat.ltsf"); !bytes.Equal(got, origLTSF) {
		t.Fatal("materialized weights differ from the original container")
	}
	if problems := refProblems(t, b, "run"); len(problems) != 0 {
		t.Fatalf("ref-index problems: %+v", problems)
	}

	rep2, err := Dedupify(b, "run/checkpoint-5")
	if err != nil || rep2.BlobsPut != 0 || rep2.BlobsReused != 0 {
		t.Fatalf("second dedupify = %+v, %v", rep2, err)
	}
}

// TestCrashPointExplorationDedupify fails every storage operation of an
// in-place conversion in turn, on a no-rename and a rename backend (there is
// one protocol; the backends differ only inside storage.PublishFile). The
// invariant is stronger than the save path's previous-or-new: the directory
// being converted is the ONLY copy, so it must remain committed and readable
// at every crash point (plain until model.ltsf goes, content-addressed
// after), and both a re-run and a bare Repair on the durable state must
// converge. Object-store PUTs are atomic, so only the rename backend has a
// torn row. Each row has a second level: from every distinct state a first
// crash leaves inside the directory, the recovery itself (Repair, which
// re-runs the conversion) is failed at each of its operations in turn, and the
// only copy must come through that too — a recovery that rewrites a listed
// file in place tears it, and the next Repair discards the directory as torn.
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
	build := func() (storage.Backend, *model.Model, *optim.AdamW, []byte) {
		b := mk()
		m, o := saveFull(t, b, "run/checkpoint-5", 173, 2)
		ltsf, _ := b.ReadFile("run/checkpoint-5/model.ltsf")
		return b, m, o, ltsf
	}

	base, _, _, _ := build()
	plainDigest := treeDigest(t, base, "run/checkpoint-5")
	f := storage.NewFault(base)
	if _, err := Dedupify(f, "run/checkpoint-5"); err != nil {
		t.Fatal(err)
	}
	n := int(f.Ops())
	if n < 8 {
		t.Fatalf("suspiciously few fault points in a dedupify: %d", n)
	}
	t.Logf("exploring %d dedupify crash points", n)

	// crash builds a fresh checkpoint and kills its conversion at point k.
	crash := func(k int) (storage.Backend, *model.Model, *optim.AdamW, []byte) {
		base, m, o, ltsf := build()
		f := storage.NewFault(base)
		f.SetTorn(torn)
		f.FailAt(k)
		if _, err := Dedupify(f, "run/checkpoint-5"); !storage.IsInjected(err) {
			t.Fatalf("k=%d: err = %v, want injected", k, err)
		}
		return base, m, o, ltsf
	}

	// secondFaults is the second level, run once per distinct crashed state:
	// Repair — which re-runs the conversion — fails at each of its operations.
	seen := map[string]bool{}
	secondFaults := func(k int) {
		base, _, _, _ := crash(k)
		f := storage.NewFault(base)
		if _, err := Repair(f, "run"); err != nil {
			t.Fatalf("k=%d: fault-free repair: %v", k, err)
		}
		for j, n2 := 1, int(f.Ops()); j <= n2; j++ {
			base, m, o, _ := crash(k)
			f := storage.NewFault(base)
			f.SetTorn(torn)
			f.FailAt(j)
			if _, err := Repair(f, "run"); err != nil && !storage.IsInjected(err) {
				t.Fatalf("k=%d j=%d: repair: %v", k, j, err)
			}
			for _, stage := range []string{"a second fault in the repair", "the repair after it"} {
				if err := VerifyCommit(base, "run/checkpoint-5"); err != nil {
					t.Fatalf("k=%d j=%d: unverifiable after %s: %v", k, j, stage, err)
				}
				rm, ro, _, err := Restore(base, "run/checkpoint-5", tensor.BF16)
				if err != nil {
					t.Fatalf("k=%d j=%d: unrestorable after %s: %v", k, j, stage, err)
				}
				if !model.Equal(rm, m) || !sameOptim(ro, o) {
					t.Fatalf("k=%d j=%d: restore differs after %s", k, j, stage)
				}
				if _, err := Repair(base, "run"); err != nil {
					t.Fatalf("k=%d j=%d: repair after %s: %v", k, j, stage, err)
				}
			}
			if dirs, _ := Scan(base, "run"); len(dirs) != 1 || dirs[0].State != StateCommitted || !IsDedup(base, "run/checkpoint-5") {
				t.Fatalf("k=%d j=%d: not converged after a second fault in the repair: %+v", k, j, dirs)
			}
		}
	}

	for k := 1; k <= n; k++ {
		base, m, o, ltsf := crash(k)

		// Invariant 1: the checkpoint never stops being committed-readable.
		if err := VerifyCommit(base, "run/checkpoint-5"); err != nil {
			t.Fatalf("k=%d: checkpoint unverifiable mid-conversion: %v", k, err)
		}
		rm, ro, _, err := Restore(base, "run/checkpoint-5", tensor.BF16)
		if err != nil {
			t.Fatalf("k=%d: checkpoint unrestorable mid-conversion: %v", k, err)
		}
		if !model.Equal(rm, m) || !sameOptim(ro, o) {
			t.Fatalf("k=%d: mid-conversion restore differs", k)
		}

		// Invariant 2: a re-run converges to the converted form.
		if _, err := Dedupify(base, "run/checkpoint-5"); err != nil {
			t.Fatalf("k=%d: dedupify re-run: %v", k, err)
		}
		if !IsDedup(base, "run/checkpoint-5") {
			t.Fatalf("k=%d: not content-addressed after re-run", k)
		}
		if err := VerifyCommit(base, "run/checkpoint-5"); err != nil {
			t.Fatalf("k=%d: unverifiable after re-run: %v", k, err)
		}
		rm, ro, _, err = Restore(base, "run/checkpoint-5", tensor.BF16)
		if err != nil {
			t.Fatalf("k=%d: unrestorable after re-run: %v", k, err)
		}
		if !model.Equal(rm, m) || !sameOptim(ro, o) {
			t.Fatalf("k=%d: restore differs after re-run", k)
		}
		if err := MaterializeWeights(base, "run/checkpoint-5", "mat.ltsf", 0); err != nil {
			t.Fatalf("k=%d: materialize after re-run: %v", k, err)
		}
		if got, _ := base.ReadFile("mat.ltsf"); !bytes.Equal(got, ltsf) {
			t.Fatalf("k=%d: materialized weights differ from the original container", k)
		}

		// Invariant 3: no unlisted shard-file residue survives convergence,
		// and the marker's listing matches the files on the backend.
		noContainers := func(base storage.Backend, how string) {
			marker, err := ReadCommitMarker(base, "run/checkpoint-5")
			if err != nil {
				t.Fatalf("k=%d: marker unreadable after %s: %v", k, how, err)
			}
			for rank := 0; rank < 2; rank++ {
				name := ShardFileName(rank)
				if _, listed := marker.Files[name]; listed {
					t.Fatalf("k=%d: %s still listed after %s", k, name, how)
				}
				if base.Exists("run/checkpoint-5/" + name) {
					t.Fatalf("k=%d: unlisted %s left on the backend after %s", k, name, how)
				}
			}
			if base.Exists("run/checkpoint-5/model.ltsf") {
				t.Fatalf("k=%d: model.ltsf survived %s", k, how)
			}
		}
		noContainers(base, "re-run")

		// Invariant 4: Repair alone converges too — the conversion is rolled
		// forward once it has reached the directory, and leaves the plain
		// tree untouched when it has not — and a following full GC leaves no
		// blob the doctor view calls unreferenced.
		base, m, o, _ = crash(k)
		reached := base.Exists("run/checkpoint-5/" + WeightManifestName)
		if _, err := ScanBlobs(base, "run"); err != nil {
			t.Fatalf("k=%d: the doctor's blob view fails on the crashed state: %v", k, err)
		}
		if _, err := ScanRefs(base, "run"); err != nil {
			t.Fatalf("k=%d: the doctor's ref view fails on the crashed state: %v", k, err)
		}
		dirs, err := Scan(base, "run")
		if err != nil || len(dirs) != 1 {
			t.Fatalf("k=%d: scan of the crashed state: %+v, %v", k, dirs, err)
		}
		want := StateCommitted
		if reached {
			want = StateConverting
		}
		if dirs[0].State != want {
			t.Fatalf("k=%d: crashed state scans as %v, want %v", k, dirs[0].State, want)
		}
		if d := treeDigest(t, base, "run/checkpoint-5"); reached && !seen[d] {
			seen[d] = true
			secondFaults(k)
		}
		if _, err := Repair(base, "run"); err != nil {
			t.Fatalf("k=%d: repair: %v", k, err)
		}
		if err := VerifyCommit(base, "run/checkpoint-5"); err != nil {
			t.Fatalf("k=%d: unverifiable after repair: %v", k, err)
		}
		if reached {
			if !IsDedup(base, "run/checkpoint-5") {
				t.Fatalf("k=%d: repair left the conversion unfinished", k)
			}
			noContainers(base, "repair")
			if dirs, _ := Scan(base, "run"); len(dirs) != 1 || dirs[0].State != StateCommitted {
				t.Fatalf("k=%d: scan after repair: %+v", k, dirs)
			}
		} else if d := treeDigest(t, base, "run/checkpoint-5"); d != plainDigest {
			t.Fatalf("k=%d: repair changed a directory the conversion never reached", k)
		}
		rm, ro, _, err = Restore(base, "run/checkpoint-5", tensor.BF16)
		if err != nil {
			t.Fatalf("k=%d: unrestorable after repair: %v", k, err)
		}
		if !model.Equal(rm, m) || !sameOptim(ro, o) {
			t.Fatalf("k=%d: restore differs after repair", k)
		}
		if _, err := GC(base, "run"); err != nil {
			t.Fatalf("k=%d: gc after repair: %v", k, err)
		}
		blobs, err := ScanBlobs(base, "run")
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range blobs {
			if s.State != BlobReferenced {
				t.Fatalf("k=%d: blob %s still %v after repair + gc", k, s.Path, s.State)
			}
		}
		if problems := refProblems(t, base, "run"); len(problems) != 0 {
			t.Fatalf("k=%d: ref-index problems after repair + gc: %+v", k, problems)
		}
	}
}
