package evalbench

import (
	"math"
	"reflect"
	"testing"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/tensor"
)

func qwenSim(t *testing.T, seed uint64) *model.Model {
	t.Helper()
	m, err := model.NewInitialized(modelcfg.Qwen25_7B().DefaultSimScale(), tensor.BF16, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSuiteMatchesPaperBenchmarks(t *testing.T) {
	names := Names()
	want := []string{"MMLU", "MMLU_med", "MedMCQA", "MedQA", "PubMedQA"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

func TestFullProgressScoresNearPaperBase(t *testing.T) {
	m := qwenSim(t, 1)
	card := Evaluate(m, 1.0)
	// At progress 1 the expected score is the paper's original-model value;
	// noise is bounded by a few std.
	wants := map[string]float64{
		"MMLU": 73.14, "MMLU_med": 89.00, "MedMCQA": 60.75,
		"MedQA": 64.02, "PubMedQA": 75.20,
	}
	for _, b := range benchmarks() {
		got := card[b.Name]
		if math.Abs(got-wants[b.Name]) > 4*b.NoiseStd {
			t.Errorf("%s = %.2f, want ≈ %.2f", b.Name, got, wants[b.Name])
		}
	}
}

func TestLowerProgressScoresLower(t *testing.T) {
	m := qwenSim(t, 2)
	full := Evaluate(m, 1.0)
	half := Evaluate(m, 0.5)
	// Same weights → same noise draw, so the degrade term must dominate.
	for _, b := range benchmarks() {
		if half[b.Name] >= full[b.Name] {
			t.Errorf("%s: progress 0.5 score %.2f >= progress 1.0 score %.2f", b.Name, half[b.Name], full[b.Name])
		}
	}
}

func TestIdenticalWeightsScoreIdentically(t *testing.T) {
	a := qwenSim(t, 3)
	b := qwenSim(t, 3)
	ca, cb := Evaluate(a, 0.9), Evaluate(b, 0.9)
	if !reflect.DeepEqual(ca, cb) {
		t.Fatal("identical weights scored differently")
	}
}

func TestDifferentWeightsScoreDifferently(t *testing.T) {
	a := qwenSim(t, 4)
	b := qwenSim(t, 5)
	ca, cb := Evaluate(a, 0.9), Evaluate(b, 0.9)
	if reflect.DeepEqual(ca, cb) {
		t.Fatal("different weights drew identical noise")
	}
}

func TestScoresClamped(t *testing.T) {
	m := qwenSim(t, 6)
	card := Evaluate(m, -5) // clamps to 0
	for name, v := range card {
		if v < 0 || v > 100 {
			t.Errorf("%s = %v out of [0, 100]", name, v)
		}
	}
}

func TestFamilyStripsSimSuffix(t *testing.T) {
	if family("qwen2.5-7b-sim") != "qwen2.5-7b" {
		t.Fatal("family mapping")
	}
	if family("llama3.1-8b") != "llama3.1-8b" {
		t.Fatal("family identity")
	}
}

func TestUnknownFamilyUsesDefault(t *testing.T) {
	m, _ := model.NewInitialized(modelcfg.Tiny(), tensor.BF16, 7)
	card := Evaluate(m, 1.0)
	for _, b := range benchmarks() {
		if math.Abs(card[b.Name]-b.DefaultBase) > 4*b.NoiseStd {
			t.Errorf("%s = %.2f, want ≈ default %.2f", b.Name, card[b.Name], b.DefaultBase)
		}
	}
}

func TestDescribeOrder(t *testing.T) {
	m := qwenSim(t, 8)
	d := Evaluate(m, 1).Describe()
	if d == "" || d[:5] != "MMLU=" {
		t.Fatalf("describe = %q", d)
	}
}
