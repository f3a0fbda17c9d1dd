package tailor

import (
	"bytes"
	"testing"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/recipe"
	"llmtailor/internal/reshard"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

// Restore returns the weights it decodes, not weights re-derived from the
// master, so every writer that keeps an optimizer must store each weight as
// its master's rounding in the stored dtype. For each writer's output, the
// restored model must be, bit for bit, what SyncModelFromMaster derives from
// the restored master.
func TestWritersKeepModelRounded(t *testing.T) {
	cfg := modelcfg.Tiny()
	b := storage.NewMem()
	r := newRun(t, b, cfg, 4, []int{5, 10}, nil)
	save := func(dir string, step, world int, dedup bool, codec string) error {
		m := r.models[step].Clone()
		return ckpt.Save(b, ckpt.SaveSpec{Dir: dir, Model: m, Optim: r.optims[step].Clone(m), WorldSize: world,
			Strategy: "test", Dedup: dedup, Codec: codec, State: ckpt.TrainerState{Step: step, Seed: 77}})
	}
	merge := func(rec *recipe.Recipe, opts Options) error {
		_, err := Merge(b, rec, opts)
		return err
	}
	parity := func(prev, cur, out string) *recipe.Recipe { return recipe.Parity(prev, cur, cfg, out) }
	for _, tc := range []struct {
		name  string
		dir   string
		dt    tensor.DType
		write func() error
	}{
		{"sync plain save", "run/checkpoint-10", tensor.BF16, func() error { return nil }},
		{"sync dedup raw save", "raw/checkpoint-10", tensor.BF16, func() error { return save("raw/checkpoint-10", 10, 4, true, "") }},
		{"sync dedup xor save", "xor/checkpoint-10", tensor.BF16, func() error {
			if err := save("xor/checkpoint-5", 5, 4, true, "xor"); err != nil {
				return err
			}
			return save("xor/checkpoint-10", 10, 4, true, "xor")
		}},
		{"lazy capture", "lazy/checkpoint-11", tensor.BF16, func() error { return lazySaves(b, r.models[10], r.optims[10]) }},
		{"plain passthrough merge", "merged", tensor.BF16, func() error {
			return merge(parity("run/checkpoint-5", "run/checkpoint-10", "merged"), Options{Workers: 2})
		}},
		{"dedup passthrough merge", "dd/merged", tensor.BF16, func() error {
			return merge(parity("run/checkpoint-5", "run/checkpoint-10", "dd/merged"), Options{Workers: 2, DedupOutput: true})
		}},
		{"cross-world merge", "cw/merged", tensor.BF16, func() error {
			if err := save("wide/checkpoint-10", 10, 5, false, ""); err != nil {
				return err
			}
			return merge(parity("run/checkpoint-5", "wide/checkpoint-10", "cw/merged"), Options{})
		}},
		{"reshard 4 to 3", "rs/checkpoint-10", tensor.BF16, func() error {
			_, err := reshard.Reshard(b, "run/checkpoint-10", "rs/checkpoint-10", 3, reshard.Options{})
			return err
		}},
		{"float32 merge keeping the optimizer", "f32", tensor.F32, func() error {
			return merge(&recipe.Recipe{Base: "run/checkpoint-10", Output: "f32", DType: "float32", Optimizer: true}, Options{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.write(); err != nil {
				t.Fatal(err)
			}
			m, o, _, err := ckpt.Restore(b, tc.dir, tc.dt)
			if err != nil {
				t.Fatal(err)
			}
			want := m.Clone()
			if err := o.Clone(want).SyncModelFromMaster(); err != nil {
				t.Fatal(err)
			}
			for i, got := range m.Tensors() {
				if !bytes.Equal(got.Encode(nil), want.Tensors()[i].Encode(nil)) {
					t.Errorf("%s: %s %s is not its master's rounding", tc.dir, got.DType, got.Name)
				}
			}
		})
	}
}

// lazySaves captures a state through one lazy saver twice, with one layer
// trained in between, so the second save reuses the other layers' bytes by
// their unchanged generation counters.
func lazySaves(b storage.Backend, m0 *model.Model, o0 *optim.AdamW) error {
	m := m0.Clone()
	o := o0.Clone(m)
	s := ckpt.NewLazyAsyncSaver(b, 1, ckpt.CaptureOptions{})
	save := func(step int) error {
		err := s.Save(ckpt.SaveSpec{Dir: "lazy/" + ckpt.DirName(step), Model: m, Optim: o, WorldSize: 4,
			Strategy: "test", Dedup: true, LayerGens: o.LayerGens(), State: ckpt.TrainerState{Step: step, Seed: 77}})
		if err == nil {
			err = s.WaitCaptured()
		}
		return err
	}
	err := save(10)
	if err == nil {
		grads := optim.GradMap{}
		for _, ts := range m.LayerTensors(modelcfg.Block(1)) {
			grads[ts.Name] = make([]float32, ts.Len())
			for i := range grads[ts.Name] {
				grads[ts.Name][i] = 0.01
			}
		}
		err = o.Step(1e-3, grads)
	}
	if err == nil {
		err = save(11)
	}
	if werr := s.Wait(); err == nil {
		err = werr
	}
	return err
}
