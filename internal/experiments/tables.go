package experiments

import (
	"fmt"

	"llmtailor/internal/costmodel"
	"llmtailor/internal/evalbench"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/report"
	"llmtailor/internal/storage"
	"llmtailor/internal/strategy"
	"llmtailor/internal/train"
)

// lossTable renders a Table 1 / Table 4 style comparison.
func lossTable(title string, u *UseCase) *report.Table {
	t := report.New(title, "Model", "Final train loss", "Final eval loss")
	label := "Parity merge"
	if u.StrategyName != "parity" {
		label = "Filtered Layers"
	}
	if u.Qwen != nil {
		t.Add("Qwen2.5-7B (After SFT)", report.F(u.Qwen.OrigLoss, 2), report.F(u.Qwen.OrigEval, 2))
		t.Add(fmt.Sprintf("%s (start from %d)", label, u.Qwen.MergeAt),
			report.F(u.Qwen.MergedLoss, 2), report.F(u.Qwen.MergedEval, 2))
	}
	if u.Llama != nil {
		t.Add("Llama3.1-8B (After CPT)", report.F(u.Llama.OrigLoss, 2), report.F(u.Llama.OrigEval, 2))
		t.Add(fmt.Sprintf("%s (start from %d)", label, u.Llama.MergeAt),
			report.F(u.Llama.MergedLoss, 2), report.F(u.Llama.MergedEval, 2))
	}
	return t
}

// table1 is §5.2's loss comparison (paper: both rows identical at 1.58/1.60
// SFT and 1.58/1.58 CPT).
func table1(u *UseCase) *report.Table {
	t := lossTable("Table 1: training loss, original vs parity-merged resume", u)
	t.Note("paper: SFT 1.58/1.60 both rows; CPT 1.58/1.58 both rows")
	return t
}

// table4 is §5.3's loss comparison (paper: filtered rows 0.01-0.02 higher).
func table4(u *UseCase) *report.Table {
	t := lossTable("Table 4: training loss, original vs filter-merged resume", u)
	t.Note("paper: SFT 1.58/1.60 -> 1.60/1.62; CPT 1.58/1.58 -> 1.59/1.59")
	return t
}

// evalTable renders a Table 2 / Table 5 style benchmark grid.
func evalTable(title string, u *UseCase) *report.Table {
	cols := append([]string{"Task", "Model"}, evalbench.Names()...)
	t := report.New(title, cols...)
	addRows := func(task string, r *UseCaseResult, mergedLabel string) {
		orig := []string{task, displayName(r.ModelName)}
		merged := []string{task, mergedLabel}
		for _, n := range evalbench.Names() {
			orig = append(orig, report.F(r.OrigCard[n], 2))
			merged = append(merged, report.F(r.MergedCard[n], 2))
		}
		t.Add(orig...)
		t.Add(merged...)
	}
	if u.Qwen != nil {
		addRows("SFT", u.Qwen, fmt.Sprintf("%s-%d", u.StrategyName, u.Qwen.MergeAt))
	}
	if u.Llama != nil {
		addRows("CPT", u.Llama, fmt.Sprintf("%s-%d", u.StrategyName, u.Llama.MergeAt))
	}
	return t
}

// Table2 is use case 1's zero-shot benchmark grid.
func Table2(u *UseCase) *report.Table {
	t := evalTable("Table 2: zero-shot benchmarks, use case 1 (parity)", u)
	t.Note("paper: merged rows within ~2 points of originals on every benchmark")
	return t
}

// Table5 is use case 2's zero-shot benchmark grid.
func Table5(u *UseCase) *report.Table {
	t := evalTable("Table 5: zero-shot benchmarks, use case 2 (filter)", u)
	t.Note("paper: qwen filtered slightly lower, llama filtered slightly higher")
	return t
}

// overheadTable renders a Table 3 / Table 6 style storage/time comparison
// from the analytic cost model at true geometry.
func overheadTable(title string, strat strategy.Strategy, stratLabel string, notes []string) *report.Table {
	tb := costmodel.Paper()
	t := report.New(title, "Model", "Type", "Total CKPT size (G)", "Proportion of ckpt time (%)")
	add := func(cfg *modelcfg.Config, task train.Task, interval int) {
		full := tb.Overhead(cfg, task, strategy.Full{}, 16, interval)
		part := tb.Overhead(cfg, task, strat, 16, interval)
		name := displayName(cfg.Name)
		t.Add(name, "Total", report.F(full.TotalGB, 2), report.F(full.Proportion, 2))
		t.Add(name, stratLabel, report.F(part.TotalGB, 2), report.F(part.Proportion, 2))
	}
	add(modelcfg.Llama31_8B(), train.CPT(), 100)
	add(modelcfg.Qwen25_7B(), train.SFT(), 50)
	for _, n := range notes {
		t.Note("%s", n)
	}
	return t
}

func displayName(name string) string {
	switch name {
	case "llama3.1-8b":
		return "Llama3.1-8B"
	case "llama3.2-1b":
		return "Llama3-1B"
	case "qwen2.5-7b":
		return "Qwen2.5-7B"
	default:
		return name
	}
}

// table3 compares full vs parity checkpoints (§5.2).
func table3() *report.Table {
	return overheadTable("Table 3: complete vs parity partial checkpoints",
		strategy.Parity{}, "Parity",
		[]string{"paper: Llama 1799.52G/4.99% -> 899.76G/3.03%; Qwen 1811.52G/20.63% -> 905.76G/12.76%"})
}

// table6 compares full vs filtered checkpoints (§5.3).
func table6() *report.Table {
	return overheadTable("Table 6: complete vs filtered partial checkpoints",
		strategy.NewFilter(), "Filtered",
		[]string{"paper: Llama 1799.52G/4.99% -> 420G/1.66%; Qwen 1811.52G/20.63% -> 434.56G/7.26%"})
}

// table7 models checkpoint loading/merging time for different source
// checkpoint counts at true geometry (§5.4).
func table7() *report.Table {
	tb := costmodel.Paper()
	t := report.New("Table 7: loading time for different checkpoints (cost model)",
		"Model Name", "Checkpoint Size (G)", "Total layers", "CKPTs included", "Time (s)")
	for _, cfg := range []*modelcfg.Config{modelcfg.Llama32_1B(), modelcfg.Llama31_8B()} {
		size := report.F(modelcfg.GB(cfg.FullCkptBytes()), 2)
		layers := report.Int(cfg.TotalMergeableLayers())
		rows := []costmodel.MergeCostRow{
			tb.MergeCost(cfg, 1, false),
			tb.MergeCost(cfg, 2, false),
			tb.MergeCost(cfg, 2, true),
			tb.MergeCost(cfg, 8, false),
			tb.MergeCost(cfg, cfg.TotalMergeableLayers(), false),
		}
		for i, r := range rows {
			sz, ly := "", ""
			if i == 0 {
				sz, ly = size, layers
			}
			t.Add(displayName(cfg.Name), sz, ly, r.Label(), report.Dur(r.Time))
		}
	}
	t.Note("paper (1B): 0.80 / 117 / 233.6 / 60.4 / 62.5 s")
	t.Note("paper (8B): 16.8 / 332.4 / 1027.5 / 279.2 / 264.3 s")
	return t
}

// figure3 renders the optimizer regrouping transformation: a 16-layer model
// going from 2 to 35 parameter groups.
func figure3() (*report.Table, string, string) {
	cfg := modelcfg.Llama32_1B()
	cfg.TieWordEmbeddings = false // the paper's figure shows a separate lm_head
	before := optim.NewTwoGroupLayout(cfg)
	after := optim.NewLayerwiseLayout(cfg)
	t := report.New("Figure 3: optimizer parameter-group reconstruction",
		"Layout", "Groups", "Splittable by layer")
	t.Add("original (2-group)", report.Int(before.NumGroups()), "no")
	t.Add("layerwise (2L+x)", report.Int(after.NumGroups()), "yes")
	t.Note("paper: 16-layer, 2-group model becomes a 35-group model")
	return t, before.Describe(), after.Describe()
}

// LayerDrift reproduces the motivation (§1/§2): per-layer update norms over
// one checkpoint interval are strongly non-uniform.
func LayerDrift(scale Scale) (*report.Table, error) {
	trueCfg := modelcfg.Llama31_8B()
	simCfg := trueCfg.DefaultSimScale()
	b := storage.NewMem()
	tr, err := train.New(train.Config{
		Model: simCfg, Seed: 7, Task: train.CPT(),
		TotalSteps: scale.CPT.Interval, WarmupSteps: 2, BaseLR: 2e-3,
		CkptInterval: scale.CPT.Interval, WorldSize: 1, RunRoot: "drift",
	}, b)
	if err != nil {
		return nil, err
	}
	res, err := tr.Run()
	if err != nil {
		return nil, err
	}
	norms := res.Ckpts[0].UpdateNorms
	t := report.New("Motivation: per-layer update L2 over one checkpoint interval",
		"Layer", "Update L2")
	for _, ref := range simCfg.AllLayers() {
		t.Add(ref.String(), report.F(norms[ref], 4))
	}
	t.Note("first/last transformer layers and lm_head move most; middle layers move least")
	return t, nil
}
