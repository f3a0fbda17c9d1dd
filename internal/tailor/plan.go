// Package tailor is the paper's primary contribution: the engine that
// assembles a fully resumable "Frankenstein" checkpoint by selecting layers
// — weights *and* optimizer state — from multiple source checkpoints
// according to a YAML recipe (§4).
//
// The merge proceeds in four phases mirroring §4.1–§4.4, the last three
// as feeders of ckpt's write stage (ckpt.Output), which writes the output:
//
//  1. Plan: open every source checkpoint, verify architectural
//     compatibility, world sizes, layerwise optimizer layouts and layer
//     availability (via partial manifests).
//  2. Weights: each tensor from its assigned source — by reference (LTSF
//     extent or blob, replayed through its check), or read lazily and
//     converted — into one consolidated output weights file.
//  3. Optimizer: for every rank, each layer's groups by their fixed layout
//     indices — by reference from a content-addressed source or a whole
//     passthrough's one source, spliced from the stored extents of a source
//     saved at another world size, otherwise from source shard files loaded
//     whole (optimizer state cannot be lazily loaded). Ranks are written by
//     a bounded worker pool (the Go analogue of the paper's
//     ProcessPoolExecutor).
//  4. Configs: copy config.json/trainer_state.json from the designated
//     source and emit a complete manifest.
package tailor

import (
	"fmt"
	"sort"
	"strings"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/recipe"
	"llmtailor/internal/storage"
)

// Plan is a validated, executable merge plan.
type Plan struct {
	Recipe *recipe.Recipe
	Config *modelcfg.Config
	// Assign maps every mergeable layer to its source checkpoint path.
	Assign map[modelcfg.LayerRef]string
	// Sources holds the opened checkpoints by path.
	Sources map[string]*ckpt.Checkpoint
	// WorldSize is the output rank count: the world size of the configs
	// source. Sources saved at a different world size are admitted (see
	// Resharded).
	WorldSize int
	// Resharded maps each source whose native world size differs from
	// WorldSize to that native size. The merge splices these sources' groups
	// across the world-size change from their stored extents
	// (ckpt.OutputRank.Group, the repartition `llmtailor reshard` runs),
	// loading none of their shard files.
	Resharded map[string]int
	// Layout is the layerwise group layout shared by all sources.
	Layout *optim.Layout
}

// NewPlan opens sources and validates the recipe against them.
func NewPlan(b storage.Backend, r *recipe.Recipe) (*Plan, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{Recipe: r, Sources: map[string]*ckpt.Checkpoint{}}

	for _, path := range r.Checkpoints() {
		c, err := ckpt.Open(b, path)
		if err != nil {
			return nil, fmt.Errorf("tailor: open source %s: %w", path, err)
		}
		p.Sources[path] = c
	}

	// Architectural compatibility: every source must describe the same
	// model geometry.
	base := p.Sources[r.ConfigsSource()]
	if base == nil {
		// ConfigsSource defaults to Base; with no Base, fall back to the
		// first source in sorted order.
		base = p.Sources[r.Checkpoints()[0]]
	}
	p.Config = base.Config
	for path, c := range p.Sources {
		if err := sameArch(p.Config, c.Config); err != nil {
			return nil, fmt.Errorf("tailor: source %s: %w", path, err)
		}
	}

	assign, err := r.Assignments(p.Config)
	if err != nil {
		return nil, err
	}
	p.Assign = assign

	// Layer availability: each assigned layer must exist in its source's
	// manifest (partial checkpoints list what they hold).
	for ref, path := range assign {
		if !p.Sources[path].Manifest.HasLayer(ref) {
			return nil, fmt.Errorf("tailor: source %s does not contain layer %s (partial checkpoint?)", path, ref)
		}
	}

	if r.Optimizer {
		// The output inherits the configs source's world size; any source
		// saved at a different world size is recorded for splicing rather
		// than rejected (`llmtailor reshard` runs the same repartition as a
		// standalone transform).
		ws := base.WorldSize()
		if ws <= 0 {
			return nil, fmt.Errorf("tailor: configs source has invalid world size %d — reshard it first with `llmtailor reshard`", ws)
		}
		p.Resharded = map[string]int{}
		for path, c := range p.Sources {
			if c.WorldSize() <= 0 {
				return nil, fmt.Errorf("tailor: source %s has invalid world size %d", path, c.WorldSize())
			}
			if c.WorldSize() != ws {
				p.Resharded[path] = c.WorldSize()
			}
			if c.State.Layout != optim.Layerwise.String() {
				return nil, fmt.Errorf("tailor: source %s uses a %s optimizer layout; regroup before training to enable layer merging (§4.1)", path, c.State.Layout)
			}
		}
		p.WorldSize = ws
		p.Layout = optim.NewLayerwiseLayout(p.Config)
	}
	return p, nil
}

// sameArch verifies two configs describe interchangeable checkpoints.
func sameArch(a, b *modelcfg.Config) error {
	switch {
	case a.Name != b.Name:
		return fmt.Errorf("model %q != %q", b.Name, a.Name)
	case a.HiddenSize != b.HiddenSize, a.IntermediateSize != b.IntermediateSize,
		a.NumLayers != b.NumLayers, a.NumHeads != b.NumHeads,
		a.NumKVHeads != b.NumKVHeads, a.VocabSize != b.VocabSize,
		a.TieWordEmbeddings != b.TieWordEmbeddings, a.AttentionBias != b.AttentionBias:
		return fmt.Errorf("architecture mismatch with %q", a.Name)
	}
	return nil
}

// LayersBySource inverts the assignment map: checkpoint path -> sorted layer
// names.
func (p *Plan) LayersBySource() map[string][]string {
	out := map[string][]string{}
	for ref, path := range p.Assign {
		out[path] = append(out[path], ref.String())
	}
	for _, layers := range out {
		sort.Strings(layers)
	}
	return out
}

// Describe renders a human-readable dry-run summary.
func (p *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "merge plan for %s (%d transformer layers, %d mergeable)\n",
		p.Config.Name, p.Config.NumLayers, p.Config.TotalMergeableLayers())
	fmt.Fprintf(&b, "output: %s\n", p.Recipe.Output)
	if p.Recipe.Optimizer {
		fmt.Fprintf(&b, "optimizer: merged (%d groups, world size %d)\n", p.Layout.NumGroups(), p.WorldSize)
		for _, path := range p.Recipe.Checkpoints() {
			if native, ok := p.Resharded[path]; ok {
				fmt.Fprintf(&b, "  reshard: %s from world size %d to %d\n", path, native, p.WorldSize)
			}
		}
	} else {
		b.WriteString("optimizer: NOT merged (weights-only output cannot resume training)\n")
	}
	fmt.Fprintf(&b, "configs from: %s\n", p.Recipe.ConfigsSource())
	bySrc := p.LayersBySource()
	paths := make([]string, 0, len(bySrc))
	for path := range bySrc {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		fmt.Fprintf(&b, "  %-32s -> %s\n", path, strings.Join(bySrc[path], ", "))
	}
	return b.String()
}
