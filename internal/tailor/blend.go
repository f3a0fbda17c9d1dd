package tailor

import (
	"fmt"
	"math"
	"time"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/recipe"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

// mergeBlend executes the whole-model blend methods (linear, slerp). These
// reproduce MergeKit's model-soup style merging: weights only — the output
// carries no optimizer shards and therefore cannot resume training, the
// exact limitation the paper's §3 identifies and passthrough+tailor removes.
// Every output tensor is computed: the write stage blends Options.Workers
// tensors side by side and streams them into the output in order.
func mergeBlend(b storage.Backend, r *recipe.Recipe, opts Options) (*Stats, error) {
	start := time.Now()
	sources := make([]*ckpt.Checkpoint, len(r.Models))
	for i, m := range r.Models {
		c, err := ckpt.Open(b, m.Checkpoint)
		if err != nil {
			return nil, fmt.Errorf("tailor: open blend source %s: %w", m.Checkpoint, err)
		}
		if !c.Manifest.Complete {
			return nil, fmt.Errorf("tailor: blend source %s is a partial checkpoint", m.Checkpoint)
		}
		sources[i] = c
	}
	stats := &Stats{CheckpointsUsed: len(sources)}
	cfg := sources[0].Config
	for i := 1; i < len(sources); i++ {
		if err := sameArch(cfg, sources[i].Config); err != nil {
			return nil, fmt.Errorf("tailor: blend source %s: %w", r.Models[i].Checkpoint, err)
		}
	}
	outDType, err := outputDType(r.DType)
	if err != nil {
		return nil, err
	}

	out := ckpt.NewOutput(cfg.Name)
	weights := r.NormalizedWeights()
	for _, spec := range cfg.Tensors() {
		for _, src := range sources {
			n, _ := src.Weights().PayloadSize(spec.Name)
			stats.BytesRead += n
		}
		stats.TensorsRead += len(sources)
		out.ComputeTensor(spec.Name, outDType, spec.Shape, blendCost(sources, spec, outDType), func() (*tensor.Tensor, error) {
			inputs := make([][]float32, len(sources))
			for i, src := range sources {
				t, err := src.Weights().ReadTensor(spec.Name)
				if err != nil {
					return nil, fmt.Errorf("tailor: blend read %s from %s: %w", spec.Name, r.Models[i].Checkpoint, err)
				}
				inputs[i] = t.Float32s()
			}
			var blended []float32
			if r.MergeMethod == "linear" {
				blended = linearBlend(inputs, weights)
			} else {
				blended = slerpBlend(inputs[0], inputs[1], r.T)
			}
			t := tensor.New(spec.Name, outDType, spec.Shape...)
			t.CopyFromF32(blended)
			return t, nil
		})
	}

	// Configs from the first model (or configs_from); weights-only manifest.
	cfgSrc := r.ConfigsSource()
	if cfgSrc == "" {
		cfgSrc = r.Models[0].Checkpoint
	}
	man := ckpt.Manifest{
		Step:     maxStep(sources),
		Strategy: r.MergeMethod + "-merge-weights-only",
		Complete: true,
	}
	// A weights-only output cannot resume training, so latest stays put.
	if err := commit(b, out, cfg, r.Output, cfgSrc, man, false, opts, stats); err != nil {
		return nil, err
	}
	stats.WallTime = time.Since(start)
	return stats, nil
}

// blendCost estimates a blend job's in-flight bytes: every source tensor is
// expanded to float32 for the arithmetic, plus the blended output.
func blendCost(sources []*ckpt.Checkpoint, spec modelcfg.TensorSpec, outDType tensor.DType) int64 {
	f32Bytes := spec.NumElems() * 4
	var cost int64
	for _, src := range sources {
		if n, ok := src.Weights().PayloadSize(spec.Name); ok {
			cost += n + f32Bytes // stored payload plus its float32 expansion
		} else {
			cost += f32Bytes
		}
	}
	return cost + spec.NumElems()*int64(outDType.Size())
}

func maxStep(sources []*ckpt.Checkpoint) int {
	max := 0
	for _, c := range sources {
		if c.State.Step > max {
			max = c.State.Step
		}
	}
	return max
}

// linearBlend computes the convex combination Σ w_i x_i elementwise.
func linearBlend(inputs [][]float32, weights []float64) []float32 {
	out := make([]float32, len(inputs[0]))
	for i, in := range inputs {
		w := float32(weights[i])
		for j, v := range in {
			out[j] += w * v
		}
	}
	return out
}

// slerpBlend spherically interpolates between two flat vectors at parameter
// t ∈ [0, 1], treating each tensor as a single high-dimensional direction
// (MergeKit's per-tensor SLERP). Nearly collinear or degenerate inputs fall
// back to linear interpolation.
func slerpBlend(a, b []float32, t float64) []float32 {
	na := math.Sqrt(tensor.SumSq(a))
	nb := math.Sqrt(tensor.SumSq(b))
	out := make([]float32, len(a))
	if na == 0 || nb == 0 {
		for i := range out {
			out[i] = float32((1-t)*float64(a[i]) + t*float64(b[i]))
		}
		return out
	}
	cos := tensor.Dot(a, b) / (na * nb)
	if cos > 1 {
		cos = 1
	} else if cos < -1 {
		cos = -1
	}
	theta := math.Acos(cos)
	if theta < 1e-6 || math.Sin(theta) < 1e-6 {
		for i := range out {
			out[i] = float32((1-t)*float64(a[i]) + t*float64(b[i]))
		}
		return out
	}
	s := math.Sin(theta)
	wa := math.Sin((1-t)*theta) / s
	wb := math.Sin(t*theta) / s
	for i := range out {
		out[i] = float32(wa*float64(a[i]) + wb*float64(b[i]))
	}
	return out
}
