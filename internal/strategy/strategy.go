// Package strategy implements partial-checkpoint policies: which layers get
// saved at each checkpoint event. The paper evaluates two rule-based
// policies — parity (§5.2) and filtering by layer importance (§5.3) — and
// motivates dynamic policies driven by observed update magnitudes as future
// work; DeltaTopK implements that extension.
package strategy

import (
	"fmt"
	"sort"

	"llmtailor/internal/modelcfg"
)

// Context carries the information available to a policy at one checkpoint
// event.
type Context struct {
	// SaveIndex is the 0-based index of this checkpoint event.
	SaveIndex int
	// Step is the global training step being checkpointed.
	Step int
	// Config is the model geometry.
	Config *modelcfg.Config
	// UpdateNorms holds the per-layer L2 norm of weight change since the
	// previous checkpoint event; nil when telemetry is unavailable.
	UpdateNorms map[modelcfg.LayerRef]float64
}

// Strategy selects the layers to save at a checkpoint event. Returning nil
// means "all layers" (a full checkpoint).
type Strategy interface {
	// Name identifies the policy in manifests and reports.
	Name() string
	// Layers picks the layer subset for this event (nil = full).
	Layers(ctx Context) []modelcfg.LayerRef
}

// Full checkpoints every layer every time — the baseline the paper compares
// against (the transformers library default).
type Full struct{}

// Name implements Strategy.
func (Full) Name() string { return "full" }

// Layers implements Strategy.
func (Full) Layers(Context) []modelcfg.LayerRef { return nil }

// Parity alternates between two halves (§5.2): even checkpoint events save
// the even transformer layers plus final_norm and lm_head; odd events save
// the odd layers plus embed_tokens. Any two consecutive checkpoints together
// cover the whole model, so a parity merge of the latest two reconstructs a
// complete state while each checkpoint stores roughly half the bytes.
type Parity struct{}

// Name implements Strategy.
func (Parity) Name() string { return "parity" }

// Layers implements Strategy.
func (Parity) Layers(ctx Context) []modelcfg.LayerRef {
	cfg := ctx.Config
	var out []modelcfg.LayerRef
	if ctx.SaveIndex%2 == 0 {
		for i := 0; i < cfg.NumLayers; i += 2 {
			out = append(out, modelcfg.Block(i))
		}
		out = append(out, modelcfg.FinalNorm)
		if !cfg.TieWordEmbeddings {
			out = append(out, modelcfg.LMHead)
		}
	} else {
		for i := 1; i < cfg.NumLayers; i += 2 {
			out = append(out, modelcfg.Block(i))
		}
		out = append(out, modelcfg.Embed)
	}
	return out
}

// Filter implements §5.3: the first FirstK and last LastK transformer layers
// (the ones prior work finds most influential) are saved at every event,
// along with the tiny final norm. Every SparseEvery-th event additionally
// saves an alternating half of the middle layers plus the large embedding
// and lm_head, so every layer still gets checkpointed periodically.
type Filter struct {
	// FirstK and LastK bound the always-saved head/tail layers (paper: 2).
	FirstK, LastK int
	// SparseEvery is the period of middle-layer saves (paper: 5).
	SparseEvery int

	sparseCount int
}

// NewFilter returns the paper's configuration (first 2, last 2, every 5).
func NewFilter() *Filter { return &Filter{FirstK: 2, LastK: 2, SparseEvery: 5} }

// Name implements Strategy.
func (f *Filter) Name() string { return "filter" }

// Layers implements Strategy.
func (f *Filter) Layers(ctx Context) []modelcfg.LayerRef {
	cfg := ctx.Config
	L := cfg.NumLayers
	var out []modelcfg.LayerRef
	for i := 0; i < f.FirstK && i < L; i++ {
		out = append(out, modelcfg.Block(i))
	}
	for i := L - f.LastK; i < L; i++ {
		if i >= f.FirstK {
			out = append(out, modelcfg.Block(i))
		}
	}
	out = append(out, modelcfg.FinalNorm)

	if f.SparseEvery > 0 && ctx.SaveIndex%f.SparseEvery == 0 {
		half := f.sparseCount % 2
		f.sparseCount++
		mid := 0
		for i := f.FirstK; i < L-f.LastK; i++ {
			if mid%2 == half {
				out = append(out, modelcfg.Block(i))
			}
			mid++
		}
		out = append(out, modelcfg.Embed)
		if !cfg.TieWordEmbeddings {
			out = append(out, modelcfg.LMHead)
		}
	}
	return out
}

// DeltaTopK is the dynamic policy the paper's conclusion anticipates: save
// the layers whose weights moved the most since the last checkpoint (top
// Fraction by update norm), plus any layer that has gone unsaved for
// MaxStale events (so recovery staleness is bounded). Without telemetry it
// degrades to a full checkpoint.
type DeltaTopK struct {
	// Fraction of layers (by count) to save each event, in (0, 1].
	Fraction float64
	// MaxStale forces a save of any layer unsaved for this many events.
	MaxStale int

	lastSaved map[modelcfg.LayerRef]int
}

// NewDeltaTopK returns a policy saving the top fraction of movers with a
// staleness bound.
func NewDeltaTopK(fraction float64, maxStale int) *DeltaTopK {
	return &DeltaTopK{Fraction: fraction, MaxStale: maxStale, lastSaved: map[modelcfg.LayerRef]int{}}
}

// Name implements Strategy.
func (d *DeltaTopK) Name() string { return fmt.Sprintf("delta-top%.0f%%", d.Fraction*100) }

// Layers implements Strategy.
func (d *DeltaTopK) Layers(ctx Context) []modelcfg.LayerRef {
	all := ctx.Config.AllLayers()
	if ctx.UpdateNorms == nil {
		for _, ref := range all {
			d.lastSaved[ref] = ctx.SaveIndex
		}
		return nil
	}
	k := int(float64(len(all))*d.Fraction + 0.999)
	if k < 1 {
		k = 1
	}
	if k > len(all) {
		k = len(all)
	}
	ranked := append([]modelcfg.LayerRef(nil), all...)
	sort.SliceStable(ranked, func(i, j int) bool {
		return ctx.UpdateNorms[ranked[i]] > ctx.UpdateNorms[ranked[j]]
	})
	chosen := map[modelcfg.LayerRef]bool{}
	for _, ref := range ranked[:k] {
		chosen[ref] = true
	}
	// Staleness bound.
	if d.MaxStale > 0 {
		for _, ref := range all {
			last, ok := d.lastSaved[ref]
			if !ok {
				last = -1
			}
			if ctx.SaveIndex-last >= d.MaxStale {
				chosen[ref] = true
			}
		}
	}
	var out []modelcfg.LayerRef
	for _, ref := range all { // canonical order
		if chosen[ref] {
			out = append(out, ref)
			d.lastSaved[ref] = ctx.SaveIndex
		}
	}
	return out
}

// ByName constructs the named built-in strategy.
func ByName(name string) (Strategy, error) {
	switch name {
	case "full":
		return Full{}, nil
	case "parity":
		return Parity{}, nil
	case "filter":
		return NewFilter(), nil
	case "delta-topk":
		return NewDeltaTopK(0.5, 6), nil
	default:
		return nil, fmt.Errorf("strategy: unknown strategy %q (known: full, parity, filter, delta-topk)", name)
	}
}
