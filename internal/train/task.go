// Package train implements the simulated LLM post-training substrate. There
// is no text or GPU here — instead the trainer runs a *real* AdamW
// optimization of a synthetic layered objective engineered to exhibit the
// three properties the paper's experiments depend on:
//
//  1. Layer-wise non-uniform updates: each layer has a "speed" (gradient
//     signal strength vs a fixed noise floor), U-shaped over depth as the
//     paper's motivation literature reports (first and last layers change
//     most). Adam's SNR-dependent effective step size turns this into
//     genuinely different per-layer convergence rates.
//  2. Loss that responds mechanistically to merged checkpoints: each tensor
//     drifts toward a hidden task optimum; a merged checkpoint whose layers
//     are stale genuinely sits further from the optimum, producing a loss
//     transient that re-converges (parity) or leaves a small residual when
//     the cosine-decayed learning rate is too low to recover (filter).
//  3. Bit-exact resume: gradients at step k are a deterministic function of
//     (seed, step, weights), so restoring a complete checkpoint reproduces
//     the uninterrupted trajectory exactly.
package train

import (
	"fmt"
	"math"

	"llmtailor/internal/modelcfg"
)

// Task describes a post-training workload profile (the paper's CPT and SFT
// configurations, §5.1).
type Task struct {
	// Name is "cpt" or "sft".
	Name string
	// MicroBatch and GradAccum give the per-rank batch geometry.
	MicroBatch, GradAccum int
	// SeqLen is the training sequence length.
	SeqLen int
	// LossFloor is the asymptotic loss the run converges toward.
	LossFloor float64
	// InitLoss is the loss at initialisation (before any training).
	InitLoss float64
	// EvalGap is the offset of eval loss above train loss at convergence.
	EvalGap float64
	// GradNoise is the absolute std of per-element gradient noise; the
	// signal-to-noise ratio against per-layer signal strengths produces
	// non-uniform layer convergence.
	GradNoise float64
}

// CPT returns the continual-pre-training profile (PubMed-Summarization:
// micro-batch 4, grad-accum 2, checkpoint every 100 steps in the paper).
func CPT() Task {
	return Task{
		Name: "cpt", MicroBatch: 4, GradAccum: 2, SeqLen: 2048,
		LossFloor: 1.56, InitLoss: 2.65, EvalGap: 0.00, GradNoise: 0.012,
	}
}

// SFT returns the supervised-fine-tuning profile (MedQA: micro-batch 2,
// grad-accum 2, checkpoint every 50 steps in the paper).
func SFT() Task {
	return Task{
		Name: "sft", MicroBatch: 2, GradAccum: 2, SeqLen: 2048,
		LossFloor: 1.555, InitLoss: 2.8, EvalGap: 0.02, GradNoise: 0.015,
	}
}

// TaskByName resolves "cpt" or "sft".
func TaskByName(name string) (Task, error) {
	switch name {
	case "cpt":
		return CPT(), nil
	case "sft":
		return SFT(), nil
	default:
		return Task{}, fmt.Errorf("train: unknown task %q (want cpt or sft)", name)
	}
}

// TokensPerStep returns the global tokens consumed per optimizer step for a
// given world size — used by the cost model's step-time estimate.
func (t Task) TokensPerStep(worldSize int) int64 {
	return int64(t.MicroBatch) * int64(t.GradAccum) * int64(t.SeqLen) * int64(worldSize)
}

// layerSpeed returns the gradient signal strength of a layer: a U-shaped
// profile over transformer depth (strong head/tail, weak middle) plus fixed
// values for the auxiliary layers. Values are in (0, 1.5].
func layerSpeed(ref modelcfg.LayerRef, numLayers int) float64 {
	switch ref.Kind {
	case modelcfg.KindEmbed:
		return 0.9
	case modelcfg.KindFinalNorm:
		return 1.0
	case modelcfg.KindLMHead:
		return 1.2
	}
	// U-shape: depth position in [0, 1]; speed high at 0 and 1, low mid.
	if numLayers <= 1 {
		return 1.0
	}
	x := float64(ref.Index) / float64(numLayers-1)
	u := 4 * (x - 0.5) * (x - 0.5) // 1 at ends, 0 at centre
	return 0.30 + 1.0*u            // [0.30, 1.30]
}

// lrSchedule is linear warmup followed by cosine decay to MinFactor×base.
type lrSchedule struct {
	BaseLR      float64
	WarmupSteps int
	TotalSteps  int
	// MinFactor is the floor as a fraction of BaseLR at the end of decay.
	MinFactor float64
}

// At returns the learning rate for (1-based) optimizer step.
func (s lrSchedule) At(step int) float64 {
	if step < 1 {
		step = 1
	}
	if s.WarmupSteps > 0 && step <= s.WarmupSteps {
		return s.BaseLR * float64(step) / float64(s.WarmupSteps)
	}
	if s.TotalSteps <= s.WarmupSteps {
		return s.BaseLR
	}
	progress := float64(step-s.WarmupSteps) / float64(s.TotalSteps-s.WarmupSteps)
	if progress > 1 {
		progress = 1
	}
	cos := 0.5 * (1 + math.Cos(math.Pi*progress))
	return s.BaseLR * (s.MinFactor + (1-s.MinFactor)*cos)
}
