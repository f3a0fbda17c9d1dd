package train

import (
	"fmt"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/tensor"
)

// objective is the synthetic layered training objective: every tensor has a
// hidden task optimum; loss is an affine function of the mean squared
// residual, and gradients are per-layer-scaled residuals plus seeded noise.
type objective struct {
	cfg  *modelcfg.Config
	task Task
	seed uint64

	// targets and evalTargets are the per-tensor optima (train and held-out).
	targets     map[string][]float32
	evalTargets map[string][]float32
	// speeds holds the per-tensor gradient signal strength.
	speeds map[string]float64
	// amp calibrates loss = floor + amp × meanSquaredResidual so that the
	// freshly initialised model scores exactly task.InitLoss.
	amp        float64
	totalElems float64
}

// taskSeed mixes the run seed with the task name so CPT and SFT runs see
// different optima under the same seed.
func taskSeed(seed uint64, task Task) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(task.Name); i++ {
		h ^= uint64(task.Name[i])
		h *= 1099511628211
	}
	return seed ^ h
}

// newObjective builds the objective for a config/task/seed triple. The
// calibration model must be the *initial* model of the run (reconstructable
// from the seed at resume time).
func newObjective(cfg *modelcfg.Config, task Task, seed uint64, initial *model.Model) (*objective, error) {
	o := &objective{
		cfg: cfg, task: task, seed: seed,
		targets:     map[string][]float32{},
		evalTargets: map[string][]float32{},
		speeds:      map[string]float64{},
	}
	ts := taskSeed(seed, task)
	for _, spec := range cfg.Tensors() {
		n := int(spec.NumElems())
		rng := tensor.NewNamedRNG(ts, "target:"+spec.Name)
		tgt := make([]float32, n)
		for i := range tgt {
			tgt[i] = rng.NormFloat32() * 0.02
		}
		o.targets[spec.Name] = tgt

		erng := tensor.NewNamedRNG(ts, "eval-target:"+spec.Name)
		etgt := make([]float32, n)
		for i := range etgt {
			etgt[i] = tgt[i] + erng.NormFloat32()*0.004
		}
		o.evalTargets[spec.Name] = etgt
		o.speeds[spec.Name] = layerSpeed(spec.Layer, cfg.NumLayers)
		o.totalElems += float64(n)
	}

	mse0 := o.meanSquaredResidual(initial, o.targets)
	if mse0 <= 0 {
		return nil, fmt.Errorf("train: degenerate initial residual %v", mse0)
	}
	o.amp = (task.InitLoss - task.LossFloor) / mse0
	return o, nil
}

func (o *objective) meanSquaredResidual(m *model.Model, targets map[string][]float32) float64 {
	var sum float64
	for _, t := range m.Tensors() {
		tgt := targets[t.Name]
		for i := 0; i < t.Len(); i++ {
			d := float64(t.At(i)) - float64(tgt[i])
			sum += d * d
		}
	}
	return sum / o.totalElems
}

// Loss returns the training loss of the current weights.
func (o *objective) Loss(m *model.Model) float64 {
	return o.task.LossFloor + o.amp*o.meanSquaredResidual(m, o.targets)
}

// EvalLoss returns the held-out loss.
func (o *objective) EvalLoss(m *model.Model) float64 {
	return o.task.LossFloor + o.task.EvalGap + o.amp*o.meanSquaredResidual(m, o.evalTargets)
}

// Gradients produces the step-k gradient for every tensor: per-layer-scaled
// residual plus noise seeded by (seed, step, tensor), making the gradient a
// pure function of (weights, step) — the property that yields bit-exact
// resume from complete checkpoints.
func (o *objective) Gradients(m *model.Model, step int) optim.GradMap {
	grads := optim.GradMap{}
	ts := taskSeed(o.seed, o.task)
	for _, t := range m.Tensors() {
		tgt := o.targets[t.Name]
		speed := float32(o.speeds[t.Name])
		rng := tensor.NewNamedRNG(ts^uint64(step)*0x9E3779B97F4A7C15, "grad:"+t.Name)
		noise := float32(o.task.GradNoise)
		g := make([]float32, t.Len())
		for i := range g {
			g[i] = speed*(t.At(i)-tgt[i]) + noise*rng.NormFloat32()
		}
		grads[t.Name] = g
	}
	return grads
}

// TaskProgress returns 1 − residual/initialResidual clamped to [0, 1]: a
// scalar "how much of the task has been learned" signal the synthetic
// benchmark evaluator consumes.
func (o *objective) TaskProgress(m *model.Model, initial *model.Model) float64 {
	mse0 := o.meanSquaredResidual(initial, o.targets)
	mse := o.meanSquaredResidual(m, o.targets)
	p := 1 - mse/mse0
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}
