package tailor

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/recipe"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

// run simulates a training run: AdamW steps on random gradients with full
// checkpoints saved at the requested steps. It returns per-step snapshots of
// (model, optimizer) at each save point for ground-truth comparison.
type run struct {
	cfg    *modelcfg.Config
	b      storage.Backend
	models map[int]*model.Model
	optims map[int]*optim.AdamW
}

func newRun(t testing.TB, b storage.Backend, cfg *modelcfg.Config, ws int, saveSteps []int, partial map[int][]modelcfg.LayerRef) *run {
	t.Helper()
	return trainRun(t, b, cfg, ws, saveSteps, partial, false)
}

// newDedupRun is newRun's full saves, content-addressed: the same states
// bit for bit, their payloads blobs in the run root's store.
func newDedupRun(t testing.TB, b storage.Backend, cfg *modelcfg.Config, ws int, saveSteps []int) *run {
	t.Helper()
	return trainRun(t, b, cfg, ws, saveSteps, nil, true)
}

func trainRun(t testing.TB, b storage.Backend, cfg *modelcfg.Config, ws int, saveSteps []int, partial map[int][]modelcfg.LayerRef, dedup bool) *run {
	t.Helper()
	m, err := model.NewInitialized(cfg, tensor.BF16, 77)
	if err != nil {
		t.Fatal(err)
	}
	o, err := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	r := &run{cfg: cfg, b: b, models: map[int]*model.Model{}, optims: map[int]*optim.AdamW{}}
	rng := tensor.NewRNG(88)
	last := saveSteps[len(saveSteps)-1]
	next := 0
	for step := 1; step <= last; step++ {
		grads := optim.GradMap{}
		for _, ts := range m.Tensors() {
			g := make([]float32, ts.Len())
			for i := range g {
				g[i] = rng.NormFloat32() * 0.1
			}
			grads[ts.Name] = g
		}
		if err := o.Step(1e-3, grads); err != nil {
			t.Fatal(err)
		}
		if next < len(saveSteps) && step == saveSteps[next] {
			layers := partial[step] // nil = full
			err := ckpt.Save(b, ckpt.SaveSpec{
				Dir: "run/" + ckpt.DirName(step), Model: m, Optim: o,
				WorldSize: ws, Layers: layers, Strategy: "test", Dedup: dedup,
				State: ckpt.TrainerState{Step: step, LR: 1e-3, Loss: 2, Task: "sft", Seed: 77},
			})
			if err != nil {
				t.Fatal(err)
			}
			r.models[step] = m.Clone()
			r.optims[step] = o.Clone(r.models[step])
			next++
		}
	}
	return r
}

// assertLayerMatches verifies that merged's weights and optimizer state for
// every tensor of layer ref equal the snapshot from the given step.
func (r *run) assertLayerMatches(t *testing.T, merged *model.Model, mergedOpt *optim.AdamW, ref modelcfg.LayerRef, step int) {
	t.Helper()
	src := r.models[step]
	srcOpt := r.optims[step]
	for _, ts := range src.LayerTensors(ref) {
		got, err := merged.Tensor(ts.Name)
		if err != nil {
			t.Fatalf("merged missing %s: %v", ts.Name, err)
		}
		if !tensor.Equal(got, ts) {
			t.Fatalf("layer %s tensor %s weights differ from checkpoint-%d", ref, ts.Name, step)
		}
		am, ae, av, err := srcOpt.TensorState(ts.Name)
		if err != nil {
			t.Fatal(err)
		}
		bm, be, bv, err := mergedOpt.TensorState(ts.Name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range am {
			if am[i] != bm[i] || ae[i] != be[i] || av[i] != bv[i] {
				t.Fatalf("layer %s tensor %s optimizer state differs from checkpoint-%d at %d", ref, ts.Name, step, i)
			}
		}
	}
}

func TestParityMergeEndToEnd(t *testing.T) {
	b := storage.NewMem()
	cfg := modelcfg.Tiny()
	r := newRun(t, b, cfg, 4, []int{5, 10}, nil)

	rec := recipe.Parity("run/checkpoint-5", "run/checkpoint-10", cfg, "merged/checkpoint-10")
	stats, err := Merge(b, rec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CheckpointsUsed != 2 {
		t.Fatalf("checkpoints used = %d", stats.CheckpointsUsed)
	}
	// Straightforward: 2 sources × 4 ranks = 8 shard loads.
	if stats.ShardFileLoads != 8 {
		t.Fatalf("shard loads = %d, want 8", stats.ShardFileLoads)
	}

	m, o, c, err := ckpt.Restore(b, "merged/checkpoint-10", tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}
	if c.State.Step != 10 {
		t.Fatalf("configs step = %d, want 10 (copied from current)", c.State.Step)
	}
	for i := 0; i < cfg.NumLayers; i++ {
		step := 10
		if i%2 == 1 {
			step = 5
		}
		r.assertLayerMatches(t, m, o, modelcfg.Block(i), step)
	}
	r.assertLayerMatches(t, m, o, modelcfg.Embed, 5)
	r.assertLayerMatches(t, m, o, modelcfg.FinalNorm, 10)
	r.assertLayerMatches(t, m, o, modelcfg.LMHead, 10)
}

func TestSingleSourceMergeIsIdentity(t *testing.T) {
	b := storage.NewMem()
	cfg := modelcfg.Tiny()
	r := newRun(t, b, cfg, 2, []int{4}, nil)

	rec := &recipe.Recipe{
		MergeMethod: "passthrough", Base: "run/checkpoint-4",
		Output: "out", Optimizer: true,
	}
	if _, err := Merge(b, rec, Options{}); err != nil {
		t.Fatal(err)
	}
	m, o, _, err := ckpt.Restore(b, "out", tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}
	if !model.Equal(m, r.models[4]) {
		t.Fatal("identity merge changed weights")
	}
	for _, ref := range cfg.AllLayers() {
		r.assertLayerMatches(t, m, o, ref, 4)
	}
}

func TestMergeFromPartialCheckpoints(t *testing.T) {
	b := storage.NewMem()
	cfg := modelcfg.Tiny()
	// Alternating partial saves: step 5 holds odd layers + embed, step 10
	// holds even layers + norm + head.
	odd := []modelcfg.LayerRef{modelcfg.Block(1), modelcfg.Block(3), modelcfg.Embed}
	even := []modelcfg.LayerRef{modelcfg.Block(0), modelcfg.Block(2), modelcfg.FinalNorm, modelcfg.LMHead}
	r := newRun(t, b, cfg, 2, []int{5, 10}, map[int][]modelcfg.LayerRef{5: odd, 10: even})

	rec, err := recipe.FromManifests(b, "run", 0, cfg, "merged")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(b, rec, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	m, o, _, err := ckpt.Restore(b, "merged", tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range odd {
		r.assertLayerMatches(t, m, o, ref, 5)
	}
	for _, ref := range even {
		r.assertLayerMatches(t, m, o, ref, 10)
	}
}

func TestInterleavedMatchesStraightforward(t *testing.T) {
	b := storage.NewMem()
	cfg := modelcfg.Tiny()
	newRun(t, b, cfg, 2, []int{5, 10}, nil)
	rec := recipe.Parity("run/checkpoint-5", "run/checkpoint-10", cfg, "out-a")

	statsA, err := Merge(b, rec, Options{LoadOrder: Straightforward})
	if err != nil {
		t.Fatal(err)
	}
	recB := *rec
	recB.Output = "out-b"
	statsB, err := Merge(b, &recB, Options{LoadOrder: Interleaved})
	if err != nil {
		t.Fatal(err)
	}

	// Interleaved loads once per layer per rank: 7 mergeable layers × 2
	// ranks = 14; straightforward: 2 sources × 2 ranks = 4.
	if statsA.ShardFileLoads != 4 {
		t.Fatalf("straightforward loads = %d, want 4", statsA.ShardFileLoads)
	}
	if statsB.ShardFileLoads != int64(cfg.TotalMergeableLayers())*2 {
		t.Fatalf("interleaved loads = %d, want %d", statsB.ShardFileLoads, cfg.TotalMergeableLayers()*2)
	}

	ma, oa, _, err := ckpt.Restore(b, "out-a", tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}
	mb, ob, _, err := ckpt.Restore(b, "out-b", tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}
	if !model.Equal(ma, mb) {
		t.Fatal("load orders produced different weights")
	}
	for _, ts := range ma.Tensors() {
		am, ae, av, _ := oa.TensorState(ts.Name)
		bm, be, bv, _ := ob.TensorState(ts.Name)
		for i := range am {
			if am[i] != bm[i] || ae[i] != be[i] || av[i] != bv[i] {
				t.Fatalf("load orders differ at %s[%d]", ts.Name, i)
			}
		}
	}
}

func TestParallelWorkersMatchSerial(t *testing.T) {
	b := storage.NewMem()
	cfg := modelcfg.Tiny()
	newRun(t, b, cfg, 8, []int{5, 10}, nil)
	rec := recipe.Parity("run/checkpoint-5", "run/checkpoint-10", cfg, "out-serial")
	if _, err := Merge(b, rec, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	recP := *rec
	recP.Output = "out-par"
	if _, err := Merge(b, &recP, Options{Workers: 8}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		a, err := b.ReadFile("out-serial/" + ckpt.ShardFileName(r))
		if err != nil {
			t.Fatal(err)
		}
		bb, err := b.ReadFile("out-par/" + ckpt.ShardFileName(r))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(bb) {
			t.Fatalf("rank %d shard differs between serial and parallel", r)
		}
	}
}

func TestWeightsOnlyMerge(t *testing.T) {
	b := storage.NewMem()
	cfg := modelcfg.Tiny()
	newRun(t, b, cfg, 2, []int{5, 10}, nil)
	rec := recipe.Parity("run/checkpoint-5", "run/checkpoint-10", cfg, "out")
	rec.Optimizer = false
	stats, err := Merge(b, rec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShardFileLoads != 0 {
		t.Fatalf("weights-only merge loaded %d shards", stats.ShardFileLoads)
	}
	if b.Exists("out/zero") {
		t.Fatal("weights-only merge wrote optimizer shards")
	}
	// A weights-only "MergeKit-style" output cannot resume training.
	if _, _, _, err := ckpt.Restore(b, "out", tensor.BF16); err == nil {
		t.Fatal("weights-only output restored as resumable")
	}
}

func TestMergedCheckpointContinuesTraining(t *testing.T) {
	b := storage.NewMem()
	cfg := modelcfg.Tiny()
	newRun(t, b, cfg, 2, []int{5, 10}, nil)
	rec := recipe.Parity("run/checkpoint-5", "run/checkpoint-10", cfg, "merged")
	if _, err := Merge(b, rec, Options{}); err != nil {
		t.Fatal(err)
	}
	m, o, _, err := ckpt.Restore(b, "merged", tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}
	// The Frankenstein model must accept further optimization steps.
	rng := tensor.NewRNG(3)
	for step := 0; step < 3; step++ {
		grads := optim.GradMap{}
		for _, ts := range m.Tensors() {
			g := make([]float32, ts.Len())
			for i := range g {
				g[i] = rng.NormFloat32() * 0.1
			}
			grads[ts.Name] = g
		}
		if err := o.Step(1e-3, grads); err != nil {
			t.Fatal(err)
		}
	}
	if o.StepCount <= 10 {
		t.Fatalf("step count = %d, want > 10 (resumed)", o.StepCount)
	}
}

func TestPlanErrors(t *testing.T) {
	b := storage.NewMem()
	cfg := modelcfg.Tiny()
	newRun(t, b, cfg, 2, []int{5}, nil)

	// Missing source checkpoint.
	rec := &recipe.Recipe{Base: "run/checkpoint-999", Output: "o", Optimizer: true}
	if _, err := NewPlan(b, rec); err == nil {
		t.Error("missing source accepted")
	}

	// Partial source missing an assigned layer.
	b2 := storage.NewMem()
	newRun(t, b2, cfg, 2, []int{5}, map[int][]modelcfg.LayerRef{5: {modelcfg.Block(0)}})
	rec2 := &recipe.Recipe{Base: "run/checkpoint-5", Output: "o", Optimizer: true}
	if _, err := NewPlan(b2, rec2); err == nil || !strings.Contains(err.Error(), "does not contain") {
		t.Errorf("missing layer: %v", err)
	}

	// World-size mismatch across sources is admitted and routed through the
	// reshard transform: the plan records the mismatched source's native
	// world size and keeps the configs source's as the output.
	b3 := storage.NewMem()
	newRun(t, b3, cfg, 2, []int{5}, nil)
	m, _ := model.NewInitialized(cfg, tensor.BF16, 5)
	o, _ := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
	if err := ckpt.Save(b3, ckpt.SaveSpec{Dir: "run/checkpoint-9", Model: m, Optim: o,
		WorldSize: 4, State: ckpt.TrainerState{Step: 9}}); err != nil {
		t.Fatal(err)
	}
	rec3 := recipe.Parity("run/checkpoint-5", "run/checkpoint-9", cfg, "o")
	plan3, err := NewPlan(b3, rec3)
	if err != nil {
		t.Fatalf("ws mismatch no longer merges: %v", err)
	}
	if plan3.WorldSize != 4 || plan3.Resharded["run/checkpoint-5"] != 2 {
		t.Errorf("ws mismatch plan: world %d, resharded %v", plan3.WorldSize, plan3.Resharded)
	}

	// Two-group source cannot be layer-merged.
	b4 := storage.NewMem()
	o2, _ := optim.NewAdamW(m, optim.NewTwoGroupLayout(cfg), optim.DefaultHyper())
	if err := ckpt.Save(b4, ckpt.SaveSpec{Dir: "run/checkpoint-5", Model: m, Optim: o2,
		WorldSize: 2, State: ckpt.TrainerState{Step: 5}}); err != nil {
		t.Fatal(err)
	}
	rec4 := &recipe.Recipe{Base: "run/checkpoint-5", Output: "o", Optimizer: true}
	if _, err := NewPlan(b4, rec4); err == nil || !strings.Contains(err.Error(), "regroup") {
		t.Errorf("two-group source: %v", err)
	}

	// Architecture mismatch.
	b5 := storage.NewMem()
	newRun(t, b5, cfg, 2, []int{5}, nil)
	mq, _ := model.NewInitialized(modelcfg.TinyQwen(), tensor.BF16, 5)
	oq, _ := optim.NewAdamW(mq, optim.NewLayerwiseLayout(modelcfg.TinyQwen()), optim.DefaultHyper())
	if err := ckpt.Save(b5, ckpt.SaveSpec{Dir: "run/checkpoint-9", Model: mq, Optim: oq,
		WorldSize: 2, State: ckpt.TrainerState{Step: 9}}); err != nil {
		t.Fatal(err)
	}
	rec5 := recipe.Parity("run/checkpoint-5", "run/checkpoint-9", cfg, "o")
	if _, err := NewPlan(b5, rec5); err == nil {
		t.Error("arch mismatch accepted")
	}
}

func TestPlanDescribe(t *testing.T) {
	b := storage.NewMem()
	cfg := modelcfg.Tiny()
	newRun(t, b, cfg, 2, []int{5, 10}, nil)
	rec := recipe.Parity("run/checkpoint-5", "run/checkpoint-10", cfg, "out")
	p, err := NewPlan(b, rec)
	if err != nil {
		t.Fatal(err)
	}
	d := p.Describe()
	for _, want := range []string{"run/checkpoint-5", "run/checkpoint-10", "embed_tokens", "out", "world size 2"} {
		if !strings.Contains(d, want) {
			t.Errorf("describe missing %q:\n%s", want, d)
		}
	}
}

func TestMergeDTypeConversion(t *testing.T) {
	b := storage.NewMem()
	cfg := modelcfg.Tiny()
	newRun(t, b, cfg, 1, []int{3}, nil)
	rec := &recipe.Recipe{Base: "run/checkpoint-3", Output: "out", DType: "float32", Optimizer: true}
	if _, err := Merge(b, rec, Options{}); err != nil {
		t.Fatal(err)
	}
	c, err := ckpt.Open(b, "out")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := c.Weights().ReadTensor("model.norm.weight")
	if err != nil {
		t.Fatal(err)
	}
	if ts.DType != tensor.F32 {
		t.Fatalf("output dtype = %s", ts.DType)
	}
}

func TestMergeStatsTensorCount(t *testing.T) {
	b := storage.NewMem()
	cfg := modelcfg.Tiny()
	newRun(t, b, cfg, 1, []int{3}, nil)
	rec := &recipe.Recipe{Base: "run/checkpoint-3", Output: "out", Optimizer: true}
	stats, err := Merge(b, rec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TensorsRead != len(cfg.Tensors()) {
		t.Fatalf("tensors read = %d, want %d", stats.TensorsRead, len(cfg.Tensors()))
	}
	if stats.WallTime <= 0 {
		t.Fatal("wall time not measured")
	}
}

// TestMergeReshardedSources merges two checkpoints saved at different world
// sizes, as if the run had been elastically resized between them: the
// mismatched source — plain or content-addressed — has its groups spliced
// across the world-size change (OutputRank.Group, reshard's repartition)
// instead of the old "resharding is not supported" dead end, loading none of
// its shard files. Both load orders must agree, the output carries the
// configs source's world size, and every layer's weights and optimizer state
// match its source snapshot bit for bit. A corrupt payload of a spliced group
// fails the merge naming the group, and publishes nothing.
func TestMergeReshardedSources(t *testing.T) {
	for _, tc := range []struct {
		name  string
		dedup bool
	}{{"plain", false}, {"content-addressed", true}} {
		t.Run(tc.name, func(t *testing.T) {
			b := storage.NewMem()
			cfg := modelcfg.Tiny()
			r := trainRun(t, b, cfg, 3, []int{5, 10}, nil, tc.dedup)
			// Re-save the step-10 state at world size 5, simulating a resize.
			err := ckpt.Save(b, ckpt.SaveSpec{
				Dir: "wide/checkpoint-10", Model: r.models[10], Optim: r.optims[10],
				WorldSize: 5, Strategy: "test",
				State: ckpt.TrainerState{Step: 10, LR: 1e-3, Loss: 2, Task: "sft", Seed: 77},
			})
			if err != nil {
				t.Fatal(err)
			}

			rec := recipe.Parity("run/checkpoint-5", "wide/checkpoint-10", cfg, "merged/checkpoint-10")
			plan, err := NewPlan(b, rec)
			if err != nil {
				t.Fatal(err)
			}
			// Configs come from the wide checkpoint, so its world size (5)
			// wins and the narrow source reshards 3→5.
			if plan.WorldSize != 5 || plan.Resharded["run/checkpoint-5"] != 3 {
				t.Fatalf("plan: world %d, resharded %v", plan.WorldSize, plan.Resharded)
			}

			stats, err := Merge(b, rec, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			// Straightforward: the native source costs 1 load per output
			// rank; the mismatched one is spliced from its extents and
			// loads no file.
			if stats.ShardFileLoads != 5 {
				t.Fatalf("shard loads = %d, want 5", stats.ShardFileLoads)
			}

			m, o, c, err := ckpt.Restore(b, "merged/checkpoint-10", tensor.BF16)
			if err != nil {
				t.Fatal(err)
			}
			if c.State.WorldSize != 5 {
				t.Fatalf("merged world size = %d, want 5", c.State.WorldSize)
			}
			for ref, path := range plan.Assign {
				step := 10
				if path == "run/checkpoint-5" {
					step = 5
				}
				r.assertLayerMatches(t, m, o, ref, step)
			}

			// The interleaved order must produce the same merged state.
			rec.Output = "merged-il/checkpoint-10"
			if _, err := Merge(b, rec, Options{LoadOrder: Interleaved}); err != nil {
				t.Fatal(err)
			}
			m2, o2, _, err := ckpt.Restore(b, "merged-il/checkpoint-10", tensor.BF16)
			if err != nil {
				t.Fatal(err)
			}
			if !model.Equal(m, m2) {
				t.Fatal("load orders disagree on merged weights")
			}
			for ref := range plan.Assign {
				for _, ts := range m.LayerTensors(ref) {
					am, ae, av, _ := o.TensorState(ts.Name)
					bm, be, bv, err := o2.TensorState(ts.Name)
					if err != nil {
						t.Fatal(err)
					}
					for i := range am {
						if am[i] != bm[i] || ae[i] != be[i] || av[i] != bv[i] {
							t.Fatalf("load orders disagree on optimizer state of %s", ts.Name)
						}
					}
				}
			}

			// Corrupt the mismatched source's rank-1 payload of the last
			// layout group (block 3's, an odd layer the merge splices).
			last := plan.Layout.Groups[len(plan.Layout.Groups)-1]
			if plan.Assign[last.Layer] != "run/checkpoint-5" {
				t.Fatalf("fixture: group %d (%s) is not from the mismatched source", last.Index, last.Layer)
			}
			flipGroupByte(t, b, "run/checkpoint-5", 1, last.Index)
			rec.Output = "merged-bad/checkpoint-10"
			_, err = Merge(b, rec, Options{Workers: 2})
			if want := fmt.Sprintf("group %d", last.Index); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("merge over a corrupt spliced group: %v, want an error naming %s", err, want)
			}
			if b.Exists("merged-bad") {
				names, _ := b.List("merged-bad")
				t.Fatalf("a failed merge into a new run root left it behind (%v)", names)
			}
		})
	}
}

// flipGroupByte flips one payload byte of rank's stored group idx of the
// checkpoint at dir: in its LTOS container, or in its blob.
func flipGroupByte(t *testing.T, b storage.Backend, dir string, rank, idx int) {
	t.Helper()
	c, err := ckpt.Open(b, dir)
	if err != nil {
		t.Fatal(err)
	}
	name, pos := dir+"/"+ckpt.ShardFileName(rank), int64(-1)
	if c.ContentAddressed() {
		sm, err := ckpt.ReadShardManifest(b, dir+"/"+ckpt.ShardManifestName(rank))
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range sm.Groups {
			if g.Index == idx {
				name, pos = storage.NewBlobStore(b, ckpt.ObjectsRoot(dir)).Path(g.Digest), g.Size/2
			}
		}
	} else {
		groups, _, err := c.OptimExtents(rank)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range groups {
			if g.Index == idx {
				data, _ := b.ReadFile(name)
				// magic, little-endian header length, header, payload.
				pos = 12 + int64(binary.LittleEndian.Uint64(data[4:12])) + (g.Offsets[0]+g.Offsets[1])/2
			}
		}
	}
	data, err := b.ReadFile(name)
	if err != nil || pos < 0 {
		t.Fatalf("fixture: no group %d on rank %d of %s (%v)", idx, rank, dir, err)
	}
	data[pos] ^= 0x20
	if err := b.WriteFile(name, data); err != nil {
		t.Fatal(err)
	}
}
