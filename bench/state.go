package main

import (
	"bytes"
	"fmt"
	"unsafe"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/tensor"
)

// Model geometries. The full scale is the issue's 18-layer, 32.2 MB state;
// the object-store workload runs the 8.1 MB DefaultSimScale because its
// cost is requests × latency, not bytes. Quick mode swaps both for Tiny.
func fullScale() *modelcfg.Config { return modelcfg.Llama32_1B().Scaled(128, 256, 512) }
func simScale() *modelcfg.Config  { return modelcfg.Llama32_1B().DefaultSimScale() }

const learningRate = 1e-3

// trainState is the live training state a workload checkpoints: BF16
// weights plus a layerwise AdamW, advanced by real optimizer steps on
// seeded synthetic gradients so LayerGens move the way training moves them.
type trainState struct {
	cfg  *modelcfg.Config
	m    *model.Model
	o    *optim.AdamW
	seed uint64
	rng  *tensor.RNG
	// grads holds one reusable gradient buffer per tensor name.
	grads map[string][]float32
}

func newTrainState(cfg *modelcfg.Config, seed uint64) (*trainState, error) {
	m, err := model.NewInitialized(cfg, tensor.BF16, seed)
	if err != nil {
		return nil, err
	}
	o, err := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
	if err != nil {
		return nil, err
	}
	s := &trainState{cfg: cfg, m: m, o: o, seed: seed,
		rng: tensor.NewNamedRNG(seed, "bench-gradients"), grads: map[string][]float32{}}
	for _, t := range m.Tensors() {
		s.grads[t.Name] = make([]float32, t.Len())
	}
	// One step over every layer before anything is saved: a freshly built
	// optimizer holds all-zero moments, which no checkpoint of a run in
	// progress does and which the plane codec would shrink to nothing.
	if err := s.step(cfg.AllLayers()); err != nil {
		return nil, err
	}
	return s, nil
}

func layerSet(layers []modelcfg.LayerRef) map[modelcfg.LayerRef]bool {
	in := make(map[modelcfg.LayerRef]bool, len(layers))
	for _, l := range layers {
		in[l] = true
	}
	return in
}

// step applies one AdamW update with fresh gradients for the tensors of
// the given layers; every other tensor gets no gradient and stays frozen.
func (s *trainState) step(layers []modelcfg.LayerRef) error {
	in := layerSet(layers)
	gm := optim.GradMap{}
	for i, spec := range s.m.Specs() {
		if !in[spec.Layer] {
			continue
		}
		g := s.grads[s.m.Tensors()[i].Name]
		fillGradient(g, s.rng)
		gm[spec.Name] = g
	}
	return s.o.Step(learningRate, gm)
}

// fillGradient writes uniform values in [-1, 1): two per generator draw,
// which keeps a dense step's gradient synthesis far below the step itself.
func fillGradient(g []float32, rng *tensor.RNG) {
	const scale = 1.0 / (1 << 23)
	for i := 0; i < len(g); i += 2 {
		u := rng.Uint64()
		g[i] = float32(int32(u>>40)-(1<<23)) * scale
		if i+1 < len(g) {
			g[i+1] = float32(int32(u>>8&0xffffff)-(1<<23)) * scale
		}
	}
}

// layerBytes is the logical checkpoint size of the given layers: weight
// payloads plus the three FP32 optimizer vectors of their groups.
func (s *trainState) layerBytes(layers []modelcfg.LayerRef) int64 {
	in := layerSet(layers)
	var n int64
	for i, spec := range s.m.Specs() {
		if in[spec.Layer] {
			n += s.m.Tensors()[i].Bytes()
		}
	}
	for _, g := range s.o.Layout.Groups {
		if in[g.Layer] {
			n += 12 * g.Numel
		}
	}
	return n
}

func (s *trainState) fullBytes() int64 { return s.layerBytes(s.cfg.AllLayers()) }

// clone deep-copies model and optimizer (the gradient RNG is shared).
func (s *trainState) clone() *trainState {
	m := s.m.Clone()
	return &trainState{cfg: s.cfg, m: m, o: s.o.Clone(m), seed: s.seed, rng: s.rng, grads: s.grads}
}

// copyLayers overwrites the given layers of dst with src's: the shadow a
// run of partial checkpoints represents.
func copyLayers(dst, src *trainState, layers []modelcfg.LayerRef) error {
	in := layerSet(layers)
	for i, spec := range src.m.Specs() {
		if in[spec.Layer] {
			if err := dst.m.SetTensor(spec.Name, src.m.Tensors()[i]); err != nil {
				return err
			}
		}
	}
	for gi, g := range src.o.Layout.Groups {
		if in[g.Layer] {
			dst.o.States[gi] = src.o.States[gi].Clone()
		}
	}
	return nil
}

func f32Bytes(v []float32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)
}

// diffState compares a restored model/optimizer with the expected state bit
// for bit and names the first difference.
func diffState(want *trainState, m *model.Model, o *optim.AdamW, wantStep int) error {
	if !model.Equal(want.m, m) {
		for i, t := range want.m.Tensors() {
			if i >= len(m.Tensors()) || !tensor.Equal(t, m.Tensors()[i]) {
				return fmt.Errorf("restored tensor %s differs from the live state", t.Name)
			}
		}
		return fmt.Errorf("restored model has %d tensors, want %d", len(m.Tensors()), len(want.m.Tensors()))
	}
	if len(o.States) != len(want.o.States) {
		return fmt.Errorf("restored optimizer has %d groups, want %d", len(o.States), len(want.o.States))
	}
	for gi, ws := range want.o.States {
		gs := o.States[gi]
		if !bytes.Equal(f32Bytes(ws.Master), f32Bytes(gs.Master)) ||
			!bytes.Equal(f32Bytes(ws.ExpAvg), f32Bytes(gs.ExpAvg)) ||
			!bytes.Equal(f32Bytes(ws.ExpAvgSq), f32Bytes(gs.ExpAvgSq)) {
			return fmt.Errorf("restored optimizer group %d differs from the live state", gi)
		}
	}
	if o.StepCount != wantStep {
		return fmt.Errorf("restored optimizer step %d, want %d", o.StepCount, wantStep)
	}
	return nil
}
