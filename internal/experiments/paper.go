package experiments

import (
	"fmt"
	"strings"

	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/report"
)

// Output is one rendered table or figure of the paper.
type Output struct {
	Name    string
	Content string
}

// Paper renders the experiments want selects, in this order: figure1
// figure2 figure3 table1 table2 table3 table4 table5 table6 table7
// table7live (one output per model) layerdrift. uc1 and uc2 are the
// use-case replays Tables 1–2 and 4–5 read; a nil one that a selected table
// needs is run at scale.
func Paper(scale Scale, want func(name string) bool, uc1, uc2 *UseCase) ([]Output, error) {
	var err error
	if uc1 == nil && (want("table1") || want("table2")) {
		if uc1, err = RunUseCase1(scale); err != nil {
			return nil, err
		}
	}
	if uc2 == nil && (want("table4") || want("table5")) {
		if uc2, err = RunUseCase2(scale); err != nil {
			return nil, err
		}
	}

	var out []Output
	table := func(name string, t *report.Table) { out = append(out, Output{name, t.Render()}) }
	if want("figure1") {
		out = append(out, Output{"figure1", figure1()})
	}
	if want("figure2") {
		out = append(out, Output{"figure2", figure2()})
	}
	if want("figure3") {
		tb, before, after := figure3()
		out = append(out, Output{"figure3", tb.Render() + "\nBEFORE:\n" + before + "\nAFTER:\n" + after})
	}
	if want("table1") {
		table("table1", table1(uc1))
	}
	if want("table2") {
		table("table2", Table2(uc1))
	}
	if want("table3") {
		table("table3", table3())
	}
	if want("table4") {
		table("table4", table4(uc2))
	}
	if want("table5") {
		table("table5", Table5(uc2))
	}
	if want("table6") {
		table("table6", table6())
	}
	if want("table7") {
		table("table7", table7())
	}
	if want("table7live") {
		for _, cfg := range []*modelcfg.Config{modelcfg.Llama32_1B(), modelcfg.Llama31_8B()} {
			tb, err := table7Live(cfg, scale.WorldSize)
			if err != nil {
				return nil, err
			}
			table("table7live-"+cfg.Name, tb)
		}
	}
	if want("layerdrift") {
		tb, err := LayerDrift(scale)
		if err != nil {
			return nil, err
		}
		table("layerdrift", tb)
	}
	return out, nil
}

// figure1 renders the Llama-3.1-8B layer anatomy (the paper's Figure 1).
func figure1() string {
	cfg := modelcfg.Llama31_8B()
	t := report.New("Figure 1: layer-wise structure of "+cfg.Name,
		"Layer", "Tensors", "Params")
	for _, ref := range cfg.AllLayers() {
		var n int
		for _, s := range cfg.Tensors() {
			if s.Layer == ref {
				n++
			}
		}
		t.Add(ref.String(), report.Int(n), fmt.Sprintf("%d", cfg.LayerParamCount(ref)))
	}
	t.Note("total params: %d (%.2fB)", cfg.ParamCount(), float64(cfg.ParamCount())/1e9)
	return t.Render()
}

// figure2 renders the AdamW optimizer anatomy (the paper's Figure 2).
func figure2() string {
	cfg := modelcfg.Llama31_8B()
	layout := optim.NewTwoGroupLayout(cfg)
	var b strings.Builder
	b.WriteString("== Figure 2: AdamW optimizer layout (classic 2-group) ==\n")
	b.WriteString(layout.Describe())
	b.WriteString("\nper parameter group state (FP32, flattened):\n")
	b.WriteString("  master weights + exp_avg + exp_avg_sq = 12 bytes/param\n")
	b.WriteString("  + BF16 model weights 2 bytes/param => checkpoint ≈ 7x model size\n")
	return b.String()
}
