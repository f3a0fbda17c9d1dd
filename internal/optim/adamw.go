package optim

import (
	"fmt"
	"math"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
)

// Hyper holds AdamW hyperparameters. WeightDecay applies only to decay
// groups; no-decay groups always use zero (paper §2.2).
type Hyper struct {
	Beta1       float64 `json:"beta1"`
	Beta2       float64 `json:"beta2"`
	Eps         float64 `json:"eps"`
	WeightDecay float64 `json:"weight_decay"`
}

// DefaultHyper mirrors the HuggingFace/DeepSpeed AdamW defaults.
func DefaultHyper() Hyper {
	return Hyper{Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: 0.1}
}

// GroupState is the FP32 mixed-precision state of one parameter group, laid
// out exactly as the optimizer shard files store it: a flat master-weight
// vector plus the two Adam moment vectors (paper Figure 2).
type GroupState struct {
	Master   []float32
	ExpAvg   []float32
	ExpAvgSq []float32
}

// NewGroupState allocates zeroed state for n elements.
func NewGroupState(n int64) *GroupState {
	return &GroupState{
		Master:   make([]float32, n),
		ExpAvg:   make([]float32, n),
		ExpAvgSq: make([]float32, n),
	}
}

// Clone deep-copies the state.
func (s *GroupState) Clone() *GroupState {
	return &GroupState{
		Master:   append([]float32(nil), s.Master...),
		ExpAvg:   append([]float32(nil), s.ExpAvg...),
		ExpAvgSq: append([]float32(nil), s.ExpAvgSq...),
	}
}

// Numel returns the group's element count.
func (s *GroupState) Numel() int64 { return int64(len(s.Master)) }

// Gradients supplies per-tensor gradients to a step. Implementations return
// a flat FP32 gradient of the tensor's element count.
type Gradients interface {
	Grad(name string) []float32
}

// GradMap is a map-backed Gradients.
type GradMap map[string][]float32

// Grad returns the gradient stored for name, or nil.
func (g GradMap) Grad(name string) []float32 { return g[name] }

// AdamW is a mixed-precision AdamW optimizer over an explicit group layout.
// Model tensors stay in their training dtype (BF16); the optimizer keeps
// FP32 master weights and moments per group and writes rounded copies back
// to the model after each step — replicating the state anatomy whose
// checkpoint footprint the paper analyses (14 bytes/param).
type AdamW struct {
	Model  *model.Model
	Layout *Layout
	Hyper  Hyper

	// StepCount is the number of completed optimizer steps (Adam "t").
	StepCount int

	// States holds one GroupState per layout group, same order.
	States []*GroupState

	// Gens counts state mutations per group, same order as States: Step
	// bumps a group's counter when any of its tensors received a gradient,
	// and SyncModelFromMaster bumps every group (model tensors are
	// rewritten). Lazy checkpoint capture compares these counters against
	// the ones recorded at this optimizer's previous save to prove a layer's
	// bytes unchanged without hashing them; the record is keyed by instance,
	// so a resumed optimizer (counters at 0) proves nothing until saved. Nil
	// on hand-built optimizers; bumping allocates lazily.
	Gens []int64
}

// NewAdamW builds an optimizer whose master weights are upcast from the
// model's current tensors.
func NewAdamW(m *model.Model, layout *Layout, h Hyper) (*AdamW, error) {
	states := make([]*GroupState, len(layout.Groups))
	for gi, g := range layout.Groups {
		states[gi] = NewGroupState(g.Numel)
	}
	o, err := ResumeAdamW(m, layout, h, states, 0)
	if err != nil {
		return nil, err
	}
	for gi, g := range layout.Groups {
		var off int64
		for _, name := range g.Names {
			t, err := m.Tensor(name)
			if err != nil {
				return nil, err
			}
			copy(states[gi].Master[off:off+int64(t.Len())], t.Float32s())
			off += int64(t.Len())
		}
	}
	return o, nil
}

// ResumeAdamW builds an optimizer over states as they are — one per layout
// group, each at the group's numel — after step completed steps: how a
// restored checkpoint's state is adopted without a copy.
func ResumeAdamW(m *model.Model, layout *Layout, h Hyper, states []*GroupState, step int) (*AdamW, error) {
	if err := layout.Validate(m.Config); err != nil {
		return nil, err
	}
	if len(states) != len(layout.Groups) {
		return nil, fmt.Errorf("optim: %d group states for %d groups", len(states), len(layout.Groups))
	}
	for gi, g := range layout.Groups {
		if st := states[gi]; st.Numel() != g.Numel || int64(len(st.ExpAvg)) != g.Numel || int64(len(st.ExpAvgSq)) != g.Numel {
			return nil, fmt.Errorf("optim: group %d state holds %d elements, want %d", g.Index, st.Numel(), g.Numel)
		}
	}
	return &AdamW{Model: m, Layout: layout, Hyper: h, StepCount: step, States: states,
		Gens: make([]int64, len(layout.Groups))}, nil
}

// Step applies one AdamW update with the given learning rate. Tensors whose
// gradient is nil are skipped (their state does not advance), which the
// trainer uses to freeze layers in ablations.
func (o *AdamW) Step(lr float64, grads Gradients) error {
	o.StepCount++
	t := float64(o.StepCount)
	bc1 := 1 - math.Pow(o.Hyper.Beta1, t)
	bc2 := 1 - math.Pow(o.Hyper.Beta2, t)

	for gi, g := range o.Layout.Groups {
		st := o.States[gi]
		wd := o.Hyper.WeightDecay
		if g.NoDecay {
			wd = 0
		}
		var off int64
		touched := false
		for _, name := range g.Names {
			mt, err := o.Model.Tensor(name)
			if err != nil {
				return err
			}
			n := int64(mt.Len())
			grad := grads.Grad(name)
			if grad == nil {
				off += n
				continue
			}
			if int64(len(grad)) != n {
				return fmt.Errorf("optim: grad for %s has %d elements, want %d", name, len(grad), n)
			}
			o.updateSegment(st, off, grad, lr, wd, bc1, bc2)
			// Write the rounded master back into the model tensor.
			mt.CopyFromF32(st.Master[off : off+n])
			off += n
			touched = true
		}
		if touched {
			o.bumpGen(gi)
		}
	}
	return nil
}

// bumpGen advances one group's mutation counter, allocating the slice on
// first use for hand-built optimizers.
func (o *AdamW) bumpGen(gi int) {
	if o.Gens == nil {
		o.Gens = make([]int64, len(o.Layout.Groups))
	}
	o.Gens[gi]++
}

// updateSegment applies the AdamW recurrence to one tensor's segment of a
// group's flat state.
func (o *AdamW) updateSegment(st *GroupState, off int64, grad []float32, lr, wd, bc1, bc2 float64) {
	b1, b2 := o.Hyper.Beta1, o.Hyper.Beta2
	eps := o.Hyper.Eps
	for i, gv := range grad {
		j := off + int64(i)
		g := float64(gv)
		m := b1*float64(st.ExpAvg[j]) + (1-b1)*g
		v := b2*float64(st.ExpAvgSq[j]) + (1-b2)*g*g
		st.ExpAvg[j] = float32(m)
		st.ExpAvgSq[j] = float32(v)
		mhat := m / bc1
		vhat := v / bc2
		w := float64(st.Master[j])
		w -= lr * (mhat/(math.Sqrt(vhat)+eps) + wd*w)
		st.Master[j] = float32(w)
	}
}

// SyncModelFromMaster overwrites every model tensor with its rounded master
// weights, for code that edits master weights directly (test fixtures).
// Restore does not call it: every checkpoint stores its weights so already.
func (o *AdamW) SyncModelFromMaster() error {
	for gi, g := range o.Layout.Groups {
		st := o.States[gi]
		var off int64
		for _, name := range g.Names {
			mt, err := o.Model.Tensor(name)
			if err != nil {
				return err
			}
			n := int64(mt.Len())
			mt.CopyFromF32(st.Master[off : off+n])
			off += n
		}
		// The model tensors were rewritten, so any gen-based unchanged
		// proof for this group no longer holds.
		o.bumpGen(gi)
	}
	return nil
}

// LayerGens folds the per-group mutation counters into one monotonic
// counter per owning layer (the sum of its groups' counters — a layer's
// value moves iff any of its groups moved). Groups without a layer (the
// two-group layout) are omitted; a nil Gens slice yields nil, which lazy
// capture treats as "no unchanged-layer proofs available".
func (o *AdamW) LayerGens() map[modelcfg.LayerRef]int64 {
	if o.Gens == nil {
		return nil
	}
	out := map[modelcfg.LayerRef]int64{}
	for gi, g := range o.Layout.Groups {
		if g.HasLayer {
			out[g.Layer] += o.Gens[gi]
		}
	}
	return out
}

// TensorState returns copies of the (master, expAvg, expAvgSq) slices for a
// single named tensor, resolved through the layout's segment index.
func (o *AdamW) TensorState(name string) (master, expAvg, expAvgSq []float32, err error) {
	seg, err := o.Layout.SegmentOf(name)
	if err != nil {
		return nil, nil, nil, err
	}
	st := o.States[seg.Group]
	cp := func(src []float32) []float32 {
		return append([]float32(nil), src[seg.Offset:seg.Offset+seg.Len]...)
	}
	return cp(st.Master), cp(st.ExpAvg), cp(st.ExpAvgSq), nil
}

// Clone deep-copies the optimizer, attaching it to the given model clone.
func (o *AdamW) Clone(m *model.Model) *AdamW {
	c := &AdamW{Model: m, Layout: o.Layout, Hyper: o.Hyper, StepCount: o.StepCount}
	c.States = make([]*GroupState, len(o.States))
	for i, s := range o.States {
		c.States[i] = s.Clone()
	}
	if o.Gens != nil {
		c.Gens = append([]int64(nil), o.Gens...)
	}
	return c
}
