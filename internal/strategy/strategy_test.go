package strategy

import (
	"testing"

	"llmtailor/internal/modelcfg"
)

func refs(out []modelcfg.LayerRef) map[modelcfg.LayerRef]bool {
	m := map[modelcfg.LayerRef]bool{}
	for _, r := range out {
		m[r] = true
	}
	return m
}

func TestFullReturnsNil(t *testing.T) {
	if (Full{}).Layers(Context{Config: modelcfg.Tiny()}) != nil {
		t.Fatal("full strategy should return nil")
	}
	if (Full{}).Name() != "full" {
		t.Fatal("name")
	}
}

func TestParityAlternatesAndCovers(t *testing.T) {
	cfg := modelcfg.Tiny()
	p := Parity{}
	even := refs(p.Layers(Context{SaveIndex: 0, Config: cfg}))
	odd := refs(p.Layers(Context{SaveIndex: 1, Config: cfg}))

	if !even[modelcfg.Block(0)] || !even[modelcfg.Block(2)] || even[modelcfg.Block(1)] {
		t.Fatalf("even set wrong: %v", even)
	}
	if !odd[modelcfg.Block(1)] || !odd[modelcfg.Block(3)] || odd[modelcfg.Block(0)] {
		t.Fatalf("odd set wrong: %v", odd)
	}
	if !even[modelcfg.LMHead] || !even[modelcfg.FinalNorm] || !odd[modelcfg.Embed] {
		t.Fatalf("aux routing wrong: even=%v odd=%v", even, odd)
	}
	// Two consecutive checkpoints must cover every mergeable layer exactly once.
	for _, ref := range cfg.AllLayers() {
		if even[ref] == odd[ref] {
			t.Errorf("layer %s covered %v/%v by the two parity sets", ref, even[ref], odd[ref])
		}
	}
}

func TestParityTiedModel(t *testing.T) {
	cfg := modelcfg.TinyTied()
	even := refs((Parity{}).Layers(Context{SaveIndex: 0, Config: cfg}))
	if even[modelcfg.LMHead] {
		t.Fatal("tied model saved lm_head")
	}
}

// Parity checkpoints must store about half the bytes of a full checkpoint.
func TestParityBytesRoughlyHalf(t *testing.T) {
	cfg := modelcfg.Llama31_8B()
	p := Parity{}
	full := cfg.FullCkptBytes()
	a := cfg.PartialCkptBytes(p.Layers(Context{SaveIndex: 0, Config: cfg}))
	b := cfg.PartialCkptBytes(p.Layers(Context{SaveIndex: 1, Config: cfg}))
	if a+b != full {
		t.Fatalf("parity halves don't sum to full: %d + %d != %d", a, b, full)
	}
	ratio := float64(a) / float64(full)
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("even half = %.2f of full", ratio)
	}
}

func TestFilterAlwaysSavesHeadTail(t *testing.T) {
	cfg := modelcfg.Llama31_8B()
	f := NewFilter()
	for idx := 0; idx < 12; idx++ {
		set := refs(f.Layers(Context{SaveIndex: idx, Config: cfg}))
		for _, i := range []int{0, 1, 30, 31} {
			if !set[modelcfg.Block(i)] {
				t.Fatalf("event %d: block %d not saved", idx, i)
			}
		}
		if !set[modelcfg.FinalNorm] {
			t.Fatalf("event %d: final norm missing", idx)
		}
		sparse := idx%5 == 0
		if set[modelcfg.Embed] != sparse {
			t.Fatalf("event %d: embed saved=%v, want %v", idx, set[modelcfg.Embed], sparse)
		}
	}
}

func TestFilterMiddleHalvesAlternate(t *testing.T) {
	cfg := modelcfg.Tiny() // FirstK=2, LastK=2 leaves no middle on 4 layers
	f := &Filter{FirstK: 1, LastK: 1, SparseEvery: 2}
	s0 := refs(f.Layers(Context{SaveIndex: 0, Config: cfg}))
	s2 := refs(f.Layers(Context{SaveIndex: 2, Config: cfg}))
	// Middle layers are 1 and 2; sparse events alternate halves.
	if s0[modelcfg.Block(1)] == s0[modelcfg.Block(2)] {
		t.Fatalf("sparse event 0 should take one middle half: %v", s0)
	}
	if s0[modelcfg.Block(1)] == s2[modelcfg.Block(1)] {
		t.Fatal("consecutive sparse events took the same half")
	}
}

// Every layer must be saved at least once over a full filter cycle, or
// recovery would be impossible.
func TestFilterEventuallyCoversEverything(t *testing.T) {
	cfg := modelcfg.Llama31_8B()
	f := NewFilter()
	covered := map[modelcfg.LayerRef]bool{}
	for idx := 0; idx < 10; idx++ {
		for _, ref := range f.Layers(Context{SaveIndex: idx, Config: cfg}) {
			covered[ref] = true
		}
	}
	for _, ref := range cfg.AllLayers() {
		if !covered[ref] {
			t.Errorf("layer %s never saved in 10 events", ref)
		}
	}
}

// Filter must reproduce the paper's ≈4.3× storage reduction on Llama-3.1-8B
// (Table 6: 1799.52 GB full vs 420 GB filtered over 16 checkpoints).
func TestFilterStorageReductionMatchesTable6(t *testing.T) {
	cfg := modelcfg.Llama31_8B()
	f := NewFilter()
	var partial, full int64
	for idx := 0; idx < 16; idx++ {
		set := f.Layers(Context{SaveIndex: idx, Config: cfg})
		partial += cfg.PartialCkptBytes(set)
		full += cfg.FullCkptBytes()
	}
	reduction := float64(full) / float64(partial)
	if reduction < 3.6 || reduction > 5.2 {
		t.Fatalf("filter reduction = %.2fx, paper reports ≈4.3x", reduction)
	}
}

func TestDeltaTopKSelectsMovers(t *testing.T) {
	cfg := modelcfg.Tiny()
	d := NewDeltaTopK(0.3, 100)
	norms := map[modelcfg.LayerRef]float64{}
	for i, ref := range cfg.AllLayers() {
		norms[ref] = float64(i) // later layers move more
	}
	set := refs(d.Layers(Context{SaveIndex: 0, Config: cfg, UpdateNorms: norms}))
	// Top 30% of 7 layers = 3 layers: the three with the largest norms.
	all := cfg.AllLayers()
	for _, ref := range all[len(all)-3:] {
		if !set[ref] {
			t.Errorf("top mover %s not saved (set=%v)", ref, set)
		}
	}
	if len(set) != 3 {
		t.Fatalf("saved %d layers, want 3", len(set))
	}
}

func TestDeltaTopKStalenessBound(t *testing.T) {
	cfg := modelcfg.Tiny()
	d := NewDeltaTopK(0.2, 3)
	norms := map[modelcfg.LayerRef]float64{}
	for _, ref := range cfg.AllLayers() {
		norms[ref] = 0
	}
	norms[modelcfg.Block(0)] = 100 // only block 0 ever moves
	saved := map[modelcfg.LayerRef][]int{}
	for idx := 0; idx < 12; idx++ {
		for _, ref := range d.Layers(Context{SaveIndex: idx, Config: cfg, UpdateNorms: norms}) {
			saved[ref] = append(saved[ref], idx)
		}
	}
	for _, ref := range cfg.AllLayers() {
		events := saved[ref]
		if len(events) == 0 {
			t.Fatalf("layer %s never saved despite staleness bound", ref)
		}
		prev := -1
		for _, e := range events {
			if prev >= 0 && e-prev > 3 {
				t.Fatalf("layer %s gap %d exceeds MaxStale", ref, e-prev)
			}
			prev = e
		}
	}
}

func TestDeltaTopKWithoutTelemetryIsFull(t *testing.T) {
	d := NewDeltaTopK(0.5, 4)
	if d.Layers(Context{SaveIndex: 0, Config: modelcfg.Tiny()}) != nil {
		t.Fatal("no-telemetry fallback should be full checkpoint")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"full", "parity", "filter", "delta-topk"} {
		s, err := ByName(name)
		if err != nil || s == nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("magic"); err == nil {
		t.Error("unknown strategy accepted")
	}
}
