package ckpt

// Regression coverage for gen-proof digest-cache scoping: LayerGens counters
// prove a layer unchanged only against the same live state's earlier capture
// at the same geometry. cacheKey scopes entries by (optimizer, model, objects
// root, world size, layer); these tests pin that a save at M after saves at N
// through the SAME saver re-captures everything at the new geometry, while a
// same-world save still reuses, and that another optimizer at the same
// generations reuses nothing.

import (
	"testing"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

func TestCaptureCacheNotReusedAcrossWorldSizes(t *testing.T) {
	m, o := buildOptim(t, modelcfg.Tiny(), 170)
	specFor := func(dir string, step, world int) SaveSpec {
		return SaveSpec{Dir: dir, Model: m, Optim: o, WorldSize: world, Strategy: "full",
			Dedup: true, LayerGens: o.LayerGens(),
			State: TrainerState{Step: step, Seed: 170}}
	}

	// Ground truth: fault-free synchronous saves of the same states.
	clean := storage.NewMem()
	syncFor := func(dir string, step, world int) SaveSpec {
		s := specFor(dir, step, world)
		s.LayerGens = nil
		return s
	}
	if err := Save(clean, syncFor("run/checkpoint-100", 100, 3)); err != nil {
		t.Fatal(err)
	}
	if err := Save(clean, syncFor("run/checkpoint-200", 200, 2)); err != nil {
		t.Fatal(err)
	}
	if err := Save(clean, syncFor("run/checkpoint-300", 300, 3)); err != nil {
		t.Fatal(err)
	}

	// One shared lazy saver — one digest cache — saves
	// at world 3, then (same unchanged LayerGens, as an elastic resume
	// carries them) at world 2, then at world 3 again.
	b := storage.NewMem()
	s := NewLazyAsyncSaver(b, 2, CaptureOptions{})
	for _, sv := range []struct {
		dir         string
		step, world int
	}{
		{"run/checkpoint-100", 100, 3},
		{"run/checkpoint-200", 200, 2},
		{"run/checkpoint-300", 300, 3},
	} {
		if err := s.Save(specFor(sv.dir, sv.step, sv.world)); err != nil {
			s.Wait()
			t.Fatalf("save %s: %v", sv.dir, err)
		}
		if err := s.WaitCaptured(); err != nil {
			s.Wait()
			t.Fatalf("capture %s: %v", sv.dir, err)
		}
		// Drain the publish too: reuse needs the prior save's blobs on
		// disk, so the reuse count is only deterministic save-by-save.
		if err := s.Flush(); err != nil {
			s.Wait()
			t.Fatalf("flush %s: %v", sv.dir, err)
		}
	}
	stats := s.CaptureStats()
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}

	// The world-2 save must not have reused any world-3 capture; only the
	// third save (back at world 3, generations unchanged) may reuse.
	layers := len(modelcfg.Tiny().AllLayers())
	if stats.LayersReused != int64(layers) {
		t.Fatalf("layers reused = %d, want exactly %d (third save only)", stats.LayersReused, layers)
	}

	// Every checkpoint is byte-identical to its synchronous native-world
	// counterpart — a stale cross-world reuse would corrupt the world-2
	// tree's shard manifests or blob references.
	for _, dir := range []string{"run/checkpoint-100", "run/checkpoint-200", "run/checkpoint-300"} {
		if treeDigest(t, b, dir) != treeDigest(t, clean, dir) {
			t.Fatalf("%s differs from the synchronous save at the same world size", dir)
		}
		if err := VerifyCommit(b, dir); err != nil {
			t.Fatalf("verify %s: %v", dir, err)
		}
	}

	// And the mixed-world sequence restores correctly at each step.
	for _, dir := range []string{"run/checkpoint-200", "run/checkpoint-300"} {
		rm, ro, _, err := Restore(b, dir, tensor.BF16)
		if err != nil {
			t.Fatalf("restore %s: %v", dir, err)
		}
		if !model.Equal(rm, m) || !sameOptim(ro, o) {
			t.Fatalf("%s does not restore to the live state", dir)
		}
	}
}

// TestCaptureCacheNotReusedAcrossOptimizers: two optimizers that both sit at
// generation 3, saved through one saver into one run root, share no
// generation proof — the second save hashes every layer of its own state and
// restores to it, not to the first optimizer's.
func TestCaptureCacheNotReusedAcrossOptimizers(t *testing.T) {
	b := storage.NewMem()
	s := NewLazyAsyncSaver(b, 2, CaptureOptions{})
	type state struct {
		m *model.Model
		o *optim.AdamW
	}
	var states []state
	for i, seed := range []uint64{1, 2} {
		m, o := buildOptim(t, modelcfg.Tiny(), seed)
		states = append(states, state{m, o})
		dir := DirName(i + 1)
		err := s.Save(SaveSpec{Dir: "run/" + dir, Model: m, Optim: o, WorldSize: 2, Strategy: "full",
			Dedup: true, LayerGens: o.LayerGens(), State: TrainerState{Step: i + 1, Seed: seed}})
		if err == nil {
			err = s.WaitCaptured()
		}
		if err == nil {
			err = s.Flush()
		}
		if err != nil {
			s.Wait()
			t.Fatalf("save %s: %v", dir, err)
		}
	}
	stats := s.CaptureStats()
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if stats.LayersReused != 0 {
		t.Fatalf("LayersReused = %d across two optimizers, want 0", stats.LayersReused)
	}
	for i, st := range states {
		dir := "run/" + DirName(i+1)
		_, ro, _, err := Restore(b, dir, tensor.BF16)
		if err != nil {
			t.Fatal(err)
		}
		if !sameOptim(ro, st.o) {
			t.Fatalf("%s does not restore to the optimizer saved there", dir)
		}
	}
}
