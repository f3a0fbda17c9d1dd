// Package evalbench is the stand-in for lm-evaluation-harness: five
// synthetic zero-shot benchmarks (the paper's Table 2/5 set) whose scores
// are deterministic functions of the evaluated model's actual state.
//
// A score decomposes as
//
//	score = base(model family, benchmark)
//	      − degrade(benchmark) × (1 − taskProgress)
//	      + noise(benchmark) × η(weights)
//
// where taskProgress is the trainer's learned-fraction signal (distance of
// the true weights to the task optimum) and η is a standard normal drawn
// from a hash of the exact weight bytes. A merged checkpoint that genuinely
// lost progress therefore scores measurably lower, while checkpoints with
// bit-identical weights score identically — exactly the sensitivity the
// paper's quality evaluation relies on.
package evalbench

import (
	"fmt"
	"strings"

	"llmtailor/internal/model"
	"llmtailor/internal/tensor"
)

// benchmark describes one synthetic zero-shot benchmark.
type benchmark struct {
	// Name matches the paper's tables: MMLU, MMLU_med, MedMCQA, MedQA,
	// PubMedQA.
	Name string
	// Base maps model family to the fully-trained score (calibrated to the
	// paper's original-model rows).
	Base map[string]float64
	// DefaultBase applies to unknown families.
	DefaultBase float64
	// Degrade is the score lost at zero task progress.
	Degrade float64
	// NoiseStd is the per-evaluation noise scale in score points.
	NoiseStd float64
}

// benchmarks returns the paper's five-benchmark suite. Base scores are the
// paper's Table 2/5 "original model" rows.
func benchmarks() []benchmark {
	return []benchmark{
		{
			Name: "MMLU",
			Base: map[string]float64{
				"qwen2.5-7b": 73.14, "llama3.1-8b": 60.00, "llama3.2-1b": 45.0,
			},
			DefaultBase: 50, Degrade: 6, NoiseStd: 0.9,
		},
		{
			Name: "MMLU_med",
			Base: map[string]float64{
				"qwen2.5-7b": 89.00, "llama3.1-8b": 75.00, "llama3.2-1b": 52.0,
			},
			DefaultBase: 55, Degrade: 9, NoiseStd: 2.0,
		},
		{
			Name: "MedMCQA",
			Base: map[string]float64{
				"qwen2.5-7b": 60.75, "llama3.1-8b": 53.10, "llama3.2-1b": 38.0,
			},
			DefaultBase: 40, Degrade: 7, NoiseStd: 0.5,
		},
		{
			Name: "MedQA",
			Base: map[string]float64{
				"qwen2.5-7b": 64.02, "llama3.1-8b": 55.15, "llama3.2-1b": 36.0,
			},
			DefaultBase: 40, Degrade: 8, NoiseStd: 0.7,
		},
		{
			Name: "PubMedQA",
			Base: map[string]float64{
				"qwen2.5-7b": 75.20, "llama3.1-8b": 77.20, "llama3.2-1b": 60.0,
			},
			DefaultBase: 60, Degrade: 6, NoiseStd: 0.8,
		},
	}
}

// family maps a (possibly "-sim"-suffixed) model name to its base-score
// family.
func family(modelName string) string {
	return strings.TrimSuffix(modelName, "-sim")
}

// Scorecard holds one evaluation's per-benchmark scores.
type Scorecard map[string]float64

// Names returns the benchmark names in canonical (paper table) order.
func Names() []string {
	bs := benchmarks()
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	return out
}

// weightsHash digests the exact weight bytes of the model into a noise seed.
func weightsHash(m *model.Model) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for _, t := range m.Tensors() {
		h ^= uint64(t.Checksum())
		h *= 0x100000001b3
	}
	return h
}

// Evaluate scores a model at the given task progress (0..1).
func Evaluate(m *model.Model, taskProgress float64) Scorecard {
	if taskProgress < 0 {
		taskProgress = 0
	}
	if taskProgress > 1 {
		taskProgress = 1
	}
	fam := family(m.Config.Name)
	seed := weightsHash(m)
	card := Scorecard{}
	for _, b := range benchmarks() {
		base, ok := b.Base[fam]
		if !ok {
			base = b.DefaultBase
		}
		rng := tensor.NewNamedRNG(seed, "bench:"+b.Name)
		score := base - b.Degrade*(1-taskProgress) + b.NoiseStd*rng.NormFloat64()
		if score < 0 {
			score = 0
		}
		if score > 100 {
			score = 100
		}
		card[b.Name] = score
	}
	return card
}

// Describe renders a scorecard as "name=score" pairs in table order.
func (s Scorecard) Describe() string {
	var parts []string
	for _, n := range Names() {
		if v, ok := s[n]; ok {
			parts = append(parts, fmt.Sprintf("%s=%.2f", n, v))
		}
	}
	return strings.Join(parts, " ")
}
