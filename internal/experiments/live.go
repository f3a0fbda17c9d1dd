package experiments

import (
	"fmt"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/recipe"
	"llmtailor/internal/report"
	"llmtailor/internal/storage"
	"llmtailor/internal/tailor"
	"llmtailor/internal/tensor"
)

// table7Live measures the *live* merge engine on the scaled substrate,
// charging simulated storage time at true-geometry byte volumes (the meter's
// ByteScale maps scaled bytes back to real checkpoint bytes). This validates
// the cost-model table's shape with actual engine executions: real shard
// files, real group copies, real load orders.
func table7Live(trueCfg *modelcfg.Config, worldSize int) (*report.Table, error) {
	simCfg := trueCfg.DefaultSimScale()
	mem := storage.NewMem()
	meter := storage.NewMeter(mem, costmodelProfile())
	meter.ByteScale = float64(trueCfg.ParamCount()) / float64(simCfg.ParamCount())

	// Build a lightly-trained state and write the source checkpoints:
	// two full checkpoints, 8 partial checkpoints covering the model, and
	// one-layer-per-checkpoint partials.
	m, err := model.NewInitialized(simCfg, tensor.BF16, 42)
	if err != nil {
		return nil, err
	}
	o, err := optim.NewAdamW(m, optim.NewLayerwiseLayout(simCfg), optim.DefaultHyper())
	if err != nil {
		return nil, err
	}
	save := func(dir string, step int, layers []modelcfg.LayerRef) error {
		return ckpt.Save(meter, ckpt.SaveSpec{
			Dir: dir, Model: m, Optim: o, WorldSize: worldSize, Layers: layers,
			Strategy: "bench", State: ckpt.TrainerState{Step: step, Seed: 42},
		})
	}
	if err := save("full/checkpoint-100", 100, nil); err != nil {
		return nil, err
	}
	if err := save("full/checkpoint-200", 200, nil); err != nil {
		return nil, err
	}
	all := simCfg.AllLayers()
	for i := 0; i < 8; i++ {
		lo, hi := i*len(all)/8, (i+1)*len(all)/8
		if err := save(fmt.Sprintf("part8/checkpoint-%d", 100+i), 100+i, all[lo:hi]); err != nil {
			return nil, err
		}
	}
	for i, ref := range all {
		if err := save(fmt.Sprintf("perlayer/checkpoint-%d", 100+i), 100+i, []modelcfg.LayerRef{ref}); err != nil {
			return nil, err
		}
	}

	t := report.New(
		fmt.Sprintf("Table 7 (live, scaled %s): merge engine measurements", trueCfg.Name),
		"CKPTs included", "Shard file loads", "Modelled time (s)")

	type phase struct {
		label string
		run   func() (*tailor.Stats, error)
	}
	halfRec := func(out string) *recipe.Recipe {
		return &recipe.Recipe{
			MergeMethod: "passthrough", Base: "full/checkpoint-200", Output: out,
			Optimizer: true,
			Slices: []recipe.Slice{{Sources: []recipe.Source{{
				Checkpoint: "full/checkpoint-100", LayerRange: [2]int{0, simCfg.NumLayers / 2},
			}}}},
		}
	}
	phases := []phase{
		{"Baseline: 1", func() (*tailor.Stats, error) {
			_, _, _, err := ckpt.Restore(meter, "full/checkpoint-200", tensor.BF16)
			return &tailor.Stats{ShardFileLoads: int64(worldSize)}, err
		}},
		{"2", func() (*tailor.Stats, error) {
			return tailor.Merge(meter, halfRec("out2"), tailor.Options{Workers: worldSize})
		}},
		{"parity (2)", func() (*tailor.Stats, error) {
			rec := recipe.Parity("full/checkpoint-100", "full/checkpoint-200", simCfg, "outp")
			return tailor.Merge(meter, rec, tailor.Options{Workers: worldSize, LoadOrder: tailor.Interleaved})
		}},
		{"8", func() (*tailor.Stats, error) {
			rec, err := recipe.FromManifests(meter, "part8", 0, simCfg, "out8")
			if err != nil {
				return nil, err
			}
			return tailor.Merge(meter, rec, tailor.Options{Workers: worldSize})
		}},
		{fmt.Sprintf("%d", simCfg.TotalMergeableLayers()), func() (*tailor.Stats, error) {
			rec, err := recipe.FromManifests(meter, "perlayer", 0, simCfg, "outL")
			if err != nil {
				return nil, err
			}
			return tailor.Merge(meter, rec, tailor.Options{Workers: worldSize})
		}},
	}
	for _, ph := range phases {
		meter.Reset()
		stats, err := ph.run()
		if err != nil {
			return nil, fmt.Errorf("experiments: table7 live %q: %w", ph.label, err)
		}
		s := meter.Stats()
		t.Add(ph.label, fmt.Sprintf("%d", stats.ShardFileLoads), report.Dur(s.SimTime))
	}
	t.Note("modelled time charges true-geometry bytes (ByteScale=%.0f) against the Lustre profile", meter.ByteScale)
	return t, nil
}

func costmodelProfile() storage.Profile {
	p := storage.Lustre()
	p.WriteBandwidth = 4.2e9
	return p
}
