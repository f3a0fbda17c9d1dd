// Checkpoint directories: what a save writes (SaveSpec, the save plan, the
// trailer files), what Open and Restore read back, and the run root's
// resolution surface — the latest pointer, List, Latest and ResumeOrder. The
// last three are views over the run catalog (catalog.go); only a good
// pointer is resolved without a listing.
package ckpt

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/parallel"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
	"llmtailor/internal/zero"
)

// TrainerState mirrors HuggingFace's trainer_state.json: everything needed
// to resume the run at the right point (paper §4.4).
type TrainerState struct {
	Step        int         `json:"global_step"`
	LR          float64     `json:"learning_rate"`
	Loss        float64     `json:"loss"`
	EvalLoss    float64     `json:"eval_loss"`
	Task        string      `json:"task"`
	Seed        uint64      `json:"seed"`
	WorldSize   int         `json:"world_size"`
	Layout      string      `json:"optimizer_layout"`
	Hyper       optim.Hyper `json:"optimizer_hyper"`
	TotalSteps  int         `json:"total_steps"`
	WarmupSteps int         `json:"warmup_steps"`
	BaseLR      float64     `json:"base_lr"`
	// LossHistory keeps the most recent per-step losses for diagnostics.
	LossHistory []float64 `json:"loss_history,omitempty"`
}

// Manifest records what a (possibly partial) checkpoint contains, matching
// the JSON file the paper's artifact produces in task T1.
type Manifest struct {
	Step int `json:"step"`
	// Strategy names the partial-checkpoint policy ("full", "parity", ...).
	Strategy string `json:"strategy"`
	// Layers lists the saved mergeable layers ("layer.0", "embed_tokens"...)
	// in canonical order.
	Layers []string `json:"layers"`
	// Complete is true when every model layer is present.
	Complete bool `json:"complete"`
	// Dedup is true when the checkpoint is content-addressed: payloads
	// live as blobs in the run root's objects/ store, referenced by
	// manifests instead of LTSF/LTOS containers.
	Dedup bool `json:"dedup,omitempty"`
	// RefGen is the ref-index generation this checkpoint's save journaled
	// (dedup checkpoints only; 0 on pre-ref-index checkpoints). It binds
	// the published directory to exactly one record under objects/refs/,
	// which is what lets a generational GC prove an older record for the
	// same directory name superseded.
	RefGen int64 `json:"ref_gen,omitempty"`
}

// HasLayer reports whether the manifest includes the given layer.
func (m *Manifest) HasLayer(ref modelcfg.LayerRef) bool {
	want := ref.String()
	for _, l := range m.Layers {
		if l == want {
			return true
		}
	}
	return false
}

// DirName returns the conventional checkpoint directory name for a step.
func DirName(step int) string { return fmt.Sprintf("checkpoint-%d", step) }

// SaveSpec describes one checkpoint write.
type SaveSpec struct {
	// Dir is the checkpoint directory (e.g. "checkpoint-100").
	Dir string
	// Model and Optim supply the state to snapshot. Optim's layout must be
	// layerwise for partial saves (a two-group layout cannot split layers).
	Model *model.Model
	Optim *optim.AdamW
	// WorldSize is the number of simulated ranks to shard optimizer state
	// across.
	WorldSize int
	// Layers selects which mergeable layers to save; nil means all.
	Layers []modelcfg.LayerRef
	// Strategy is recorded in the manifest.
	Strategy string
	// State is written to trainer_state.json.
	State TrainerState
	// Dedup selects the content-addressed save path: payloads are stored
	// once per content digest in the run root's objects/ store, and the
	// checkpoint directory holds manifests referencing them. Unchanged
	// layers between saves cost zero payload bytes.
	Dedup bool
	// Codec selects how dedup payload blobs are stored: "" or "raw" keeps
	// the pre-codec byte-for-byte blobs, "plane" byte-plane-codes every
	// blob standalone, "xor" (or "xor-parent") additionally deltas changed
	// payloads against the previous checkpoint's blob for the same slot.
	// Whatever is requested, blobs that would not shrink are stored raw and
	// manifests record the actual codec — restore is always byte-identical.
	Codec string
	// LayerGens carries the optimizer's per-layer mutation counters
	// (optim.AdamW.LayerGens) at save time. Lazy capture uses them to prove
	// a layer unchanged since the previous save and skip hashing it
	// entirely; nil disables the proof (capture still dedups by digest).
	// The synchronous Save path ignores the field.
	LayerGens map[modelcfg.LayerRef]int64
}

// savePlan is the validated, enumerated shape of one checkpoint save: which
// live weight tensors and optimizer groups the layer selection includes,
// plus every header scalar the write needs, snapshotted at plan time.
// Building a plan moves no payload bytes — the lazy capture path relies on
// that to keep the foreground Save call O(metadata).
type savePlan struct {
	cfg    *modelcfg.Config
	layers []modelcfg.LayerRef
	// weights lists the included live tensors in model spec order;
	// weightLayers is parallel (each tensor's owning layer).
	weights      []*tensor.Tensor
	weightLayers []modelcfg.LayerRef
	// metas, states and parts are parallel: the included groups' LTOS
	// metadata (offsets unset), their live state and its partition over the
	// world, in layout order. Each state's three vectors are its meta's Numel
	// long (buildSavePlan checks), which is what lets a feeder encode rank
	// shards straight off them (savePlan.encodeGroup).
	metas  []ShardGroupMeta
	states []*optim.GroupState
	parts  []zero.Partition
	// groupLayers is parallel to metas; hasLayer[i] is false for two-group
	// layouts.
	groupLayers []modelcfg.LayerRef
	hasLayer    []bool

	worldSize  int
	stepCount  int
	layoutKind optim.LayoutKind
	hyper      optim.Hyper
	complete   bool
}

// buildSavePlan validates a spec and enumerates what it saves. It reads
// only metadata (names, shapes, counters) from the live model and
// optimizer, never payload bytes. The optimizer must be the model config's:
// a layout over other tensors, or a group state of another length, is
// refused here, before anything touches the backend.
func buildSavePlan(spec *SaveSpec) (*savePlan, error) {
	if spec.Model == nil || spec.Model.Config == nil || spec.Optim == nil || spec.Optim.Layout == nil {
		return nil, fmt.Errorf("ckpt: save %s: spec needs a model with a config and an optimizer with a layout", spec.Dir)
	}
	cfg := spec.Model.Config
	layers := spec.Layers
	if layers == nil {
		layers = cfg.AllLayers()
	}
	if spec.WorldSize <= 0 {
		return nil, fmt.Errorf("ckpt: world size %d", spec.WorldSize)
	}
	inSet := map[modelcfg.LayerRef]bool{}
	for _, ref := range layers {
		inSet[ref] = true
	}
	if cfg.TieWordEmbeddings && inSet[modelcfg.LMHead] {
		return nil, fmt.Errorf("ckpt: model %s ties embeddings; lm_head is not a separate layer", cfg.Name)
	}
	o := spec.Optim
	if err := checkOptim(cfg, o); err != nil {
		return nil, fmt.Errorf("ckpt: save %s: optimizer does not match model %s: %w", spec.Dir, cfg.Name, err)
	}
	p := &savePlan{
		cfg: cfg, layers: layers, worldSize: spec.WorldSize,
		stepCount: o.StepCount, layoutKind: o.Layout.Kind, hyper: o.Hyper,
		complete: len(layers) == len(cfg.AllLayers()),
	}
	for gi, g := range o.Layout.Groups {
		include := true
		if g.HasLayer {
			include = inSet[g.Layer]
		} else if len(layers) != len(cfg.AllLayers()) {
			return nil, fmt.Errorf("ckpt: partial save requires a layerwise optimizer layout (got %s)", o.Layout.Kind)
		}
		if include {
			part, err := zero.NewPartition(g.Numel, spec.WorldSize)
			if err != nil {
				return nil, err
			}
			p.parts = append(p.parts, part)
			p.metas = append(p.metas, metaForGroup(g))
			p.states = append(p.states, o.States[gi])
			p.groupLayers = append(p.groupLayers, g.Layer)
			p.hasLayer = append(p.hasLayer, g.HasLayer)
		}
	}
	for i, s := range spec.Model.Specs() {
		if inSet[s.Layer] {
			p.weights = append(p.weights, spec.Model.Tensors()[i])
			p.weightLayers = append(p.weightLayers, s.Layer)
		}
	}
	return p, nil
}

// checkOptim checks that an optimizer's layout groups cfg's tensors and that
// every group's state holds exactly the group's elements.
func checkOptim(cfg *modelcfg.Config, o *optim.AdamW) error {
	if err := o.Layout.Validate(cfg); err != nil {
		return err
	}
	if len(o.States) != len(o.Layout.Groups) {
		return fmt.Errorf("%d group states for %d layout groups", len(o.States), len(o.Layout.Groups))
	}
	numel := map[string]int64{}
	for _, s := range cfg.Tensors() {
		numel[s.Name] = s.NumElems()
	}
	for gi, g := range o.Layout.Groups {
		var want int64
		for _, name := range g.Names {
			want += numel[name]
		}
		st := o.States[gi]
		switch {
		case g.Numel != want:
			return fmt.Errorf("group %d: layout numel %d, tensors hold %d", g.Index, g.Numel, want)
		case st == nil:
			return fmt.Errorf("group %d: no state", g.Index)
		case int64(len(st.Master)) != want || int64(len(st.ExpAvg)) != want || int64(len(st.ExpAvgSq)) != want:
			return fmt.Errorf("group %d: state holds %d/%d/%d elements, want %d",
				g.Index, len(st.Master), len(st.ExpAvg), len(st.ExpAvgSq), want)
		}
	}
	return nil
}

// encodeGroup is the encoder of rank r's shard of the plan's gi-th group:
// the rank's range of the live state, then its zero padding — the bytes of
// zero.ShardGroup's shard, with no shard copied.
func (p *savePlan) encodeGroup(gi, r int) func(w io.Writer, buf []byte) (int64, error) {
	st := p.states[gi]
	lo, hi := p.parts[gi].Range(r)
	return func(w io.Writer, buf []byte) (int64, error) { return encodeGroupRange(w, buf, st, lo, hi) }
}

// Save writes a checkpoint directory: consolidated weights, per-rank
// optimizer shards, config, trainer state and manifest. The write is
// crash-consistent: every file is staged into `<dir>.tmp`, sealed with a
// COMMITTED marker (per-file sizes and CRCs) and published with one atomic
// rename before the run-root "latest" pointer moves. A crash at any point
// leaves the previous checkpoint intact and resolvable.
func Save(b storage.Backend, spec SaveSpec) error {
	// Validate the spec before anything touches the backend, so spec errors
	// never leave a staging directory behind.
	plan, err := buildSavePlan(&spec)
	if err != nil {
		return err
	}
	// The synchronous feeder: every payload is an encoder straight over the
	// live state — a tensor's own bytes, a rank's range of a group's vectors
	// (only saved layers' tensors and groups). A plain save encodes each once,
	// into the container writer; a dedup save hashes them all first, as many
	// at once as there are cores, then the write stage re-encodes only the
	// blobs the store lacks. Nothing is copied out of the live state first:
	// the caller does not mutate it until Save returns.
	set := plan.newPayloadSet()
	for i, t := range plan.weights {
		set.weights[i].write = withChunkBuf(t.EncodeTo)
	}
	for r := range set.ranks {
		for gi := range set.ranks[r].groups {
			set.ranks[r].groups[gi].write = withChunkBuf(plan.encodeGroup(gi, r))
		}
	}
	return commitSave(b, &spec, plan, set, nil)
}

// chunkBufs recycles the encoders' scratch chunks: the publish loop replays
// several payloads of one save at once, and each replay needs its own.
var chunkBufs = sync.Pool{New: func() any {
	buf := make([]byte, storage.ChunkOrDefault(0))
	return &buf
}}

// withChunkBuf turns an encoder that needs a scratch chunk into a payload
// write function holding a pooled one for the duration of each replay.
func withChunkBuf(encode func(w io.Writer, buf []byte) (int64, error)) func(io.Writer) (int64, error) {
	return func(w io.Writer) (int64, error) {
		buf := chunkBufs.Get().(*[]byte)
		defer chunkBufs.Put(buf)
		return encode(w, *buf)
	}
}

// saveTrailer is the trailer every saved checkpoint ends with: config,
// trainer state and manifest.
func saveTrailer(spec *SaveSpec, plan *savePlan) (*Trailer, error) {
	cfg, err := marshalJSON("config.json", plan.cfg)
	if err != nil {
		return nil, err
	}
	st := spec.State
	st.WorldSize = plan.worldSize
	st.Layout = plan.layoutKind.String()
	st.Hyper = plan.hyper
	state, err := marshalJSON("trainer_state.json", &st)
	if err != nil {
		return nil, err
	}
	man := Manifest{Step: st.Step, Strategy: spec.Strategy, Complete: plan.complete}
	for _, ref := range plan.layers {
		man.Layers = append(man.Layers, ref.String())
	}
	sort.Strings(man.Layers)
	return &Trailer{Config: cfg, State: state, Manifest: man, Step: st.Step}, nil
}

// latestPointer returns where a run root's "latest" pointer lives: beside its
// checkpoint directories. The backend root is the run root of a
// single-segment dir ("merged"), so its pointer is the root-level "latest"
// file — a deliberate, documented edge case: Latest(b, "") resolves it.
func latestPointer(runRoot string) string {
	if runRoot == "" {
		return "latest"
	}
	return runRoot + "/latest"
}

// readLatestPointer reads the pointer and returns the directory it names.
func readLatestPointer(b storage.Backend, runRoot string) (string, error) {
	data, err := b.ReadFile(latestPointer(runRoot))
	if err != nil {
		return "", err
	}
	name := strings.TrimSpace(string(data))
	switch {
	case name == "":
		return "", fmt.Errorf("ckpt: empty latest pointer under %q", runRoot)
	case runRoot == "":
		return name, nil
	}
	return runRoot + "/" + name, nil
}

// writeLatestPointer refreshes the run root's "latest" pointer to name the
// given checkpoint directory, so resume tooling finds it. The update is one
// storage.PublishFile: a crash mid-update leaves the previous pointer
// intact, never a truncated one.
func writeLatestPointer(b storage.Backend, dir string) error {
	p := latestPointer(runRootOf(dir))
	return storage.PublishFile(b, p+stagingSuffix, p, []byte(RefKey(dir)))
}

// publishJSON is writeJSON through storage.PublishFile (staged as name.tmp),
// returning the bytes written.
func publishJSON(b storage.Backend, name string, v any) ([]byte, error) {
	data, err := marshalJSON(name, v)
	if err != nil {
		return nil, err
	}
	return data, storage.PublishFile(b, name+stagingSuffix, name, data)
}

func writeJSON(b storage.Backend, name string, v any) error {
	data, err := marshalJSON(name, v)
	if err != nil {
		return err
	}
	return b.WriteFile(name, data)
}

// EncodeJSON is the encoding of every JSON file a checkpoint holds: what a
// feeder rewriting a trailer file encodes it with.
func EncodeJSON(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func marshalJSON(name string, v any) ([]byte, error) {
	data, err := EncodeJSON(v)
	if err != nil {
		return nil, fmt.Errorf("ckpt: marshal %s: %w", name, err)
	}
	return data, nil
}

func readJSON(b storage.Backend, name string, v any) error {
	data, err := b.ReadFile(name)
	if err != nil {
		return err
	}
	return decodeJSON(name, data, v)
}

func decodeJSON(name string, data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("ckpt: decode %s: %w", name, err)
	}
	return nil
}

// ReadManifest reads just a checkpoint's manifest.json, without touching
// weights or shards — recipe auto-generation scans many checkpoints this way.
func ReadManifest(b storage.Backend, dir string) (Manifest, error) {
	var man Manifest
	if err := readJSON(b, dir+"/manifest.json", &man); err != nil {
		return Manifest{}, err
	}
	return man, nil
}

// Checkpoint is an open handle to a checkpoint directory. Opening reads only
// the small JSON files and the weight header (or manifest); tensor and shard
// payloads are fetched on demand.
type Checkpoint struct {
	Backend storage.Backend
	Dir     string

	Config   *modelcfg.Config
	State    TrainerState
	Manifest Manifest

	src     *source
	weights *Weights
	ranks   rankCheck

	layoutOnce sync.Once
	layout     *optim.Layout
	layoutErr  error
}

// Open validates and indexes a checkpoint directory, plain or dedup. The
// three JSON documents are fetched side by side with the weights' listing
// (openSource) — one round trip's wait on a remote store — and judged in
// their fixed order. A content-addressed checkpoint's store reads its shard
// map on first use: a load fetches it beside the rank manifests (loadSet).
func Open(b storage.Backend, dir string) (*Checkpoint, error) {
	c := &Checkpoint{Backend: b, Dir: dir, Config: &modelcfg.Config{}}
	docs := []struct {
		name string
		into any
	}{{"config.json", c.Config}, {"trainer_state.json", &c.State}, {"manifest.json", &c.Manifest}}
	data, errs := make([][]byte, len(docs)), make([]error, len(docs)+1)
	_ = parallel.ForEach(storage.RequestWidth, len(docs)+1, func(i int) error {
		if i == len(docs) {
			c.src, c.weights, errs[i] = openSource(b, dir, true)
		} else {
			data[i], errs[i] = b.ReadFile(dir + "/" + docs[i].name)
		}
		return nil
	})
	for i, d := range docs {
		err := errs[i]
		if err == nil {
			err = decodeJSON(dir+"/"+d.name, data[i], d.into)
		}
		if err == nil && i == 0 {
			err = c.Config.Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("ckpt: open %s: %w", dir, err)
		}
	}
	if err := errs[len(docs)]; err != nil {
		return nil, fmt.Errorf("ckpt: open %s: %w", dir, err)
	}
	return c, nil
}

// Weights exposes the lazy weight reader.
func (c *Checkpoint) Weights() *Weights { return c.weights }

// ContentAddressed reports whether the checkpoint's payloads are blobs
// (read.go decideLayout), not container extents.
func (c *Checkpoint) ContentAddressed() bool { return c.src.blobs }

// WorldSize returns the rank count recorded at save time.
func (c *Checkpoint) WorldSize() int { return c.State.WorldSize }

// Layout rebuilds the optimizer layout the trainer state records from the
// checkpoint's config, once per handle: Restore, the rank check (checkRank)
// and every other caller share the one layout, which none of them modifies.
func (c *Checkpoint) Layout() (*optim.Layout, error) {
	c.layoutOnce.Do(func() {
		kind, err := optim.ParseLayoutKind(c.State.Layout)
		switch {
		case err != nil:
			c.layoutErr = err
		case kind == optim.Layerwise:
			c.layout = optim.NewLayerwiseLayout(c.Config)
		default:
			c.layout = optim.NewTwoGroupLayout(c.Config)
		}
	})
	return c.layout, c.layoutErr
}

// Latest resolves the run root's "latest" pointer to a checkpoint dir
// path. Only committed checkpoints are ever returned: when the pointer
// dangles, or its target fails the commit check (a crash window, external
// mutilation), Latest falls back to the newest committed checkpoint under
// the run root instead of handing resume tooling a torn directory. A good
// pointer costs one marker read and no listing.
func Latest(b storage.Backend, runRoot string) (string, error) {
	dir, err := readLatestPointer(b, runRoot)
	if err != nil {
		err = fmt.Errorf("ckpt: no latest pointer under %q: %w", runRoot, err)
	} else if err = CheckCommit(b, dir); err == nil {
		return dir, nil
	} else {
		err = fmt.Errorf("ckpt: latest pointer target unusable: %w", err)
	}
	// Fall back to the newest committed checkpoint.
	if dirs, lerr := List(b, runRoot); lerr == nil && len(dirs) > 0 {
		return dirs[len(dirs)-1], nil
	}
	return "", fmt.Errorf("ckpt: no committed checkpoint under %q: %w", runRoot, err)
}

// List returns the committed `checkpoint-<step>` directory paths under a run
// root, sorted by step number. Uncommitted directories — torn checkpoints,
// abandoned `.tmp` staging trees, quarantined ones — are skipped, so every
// returned path is safe to Open.
func List(b storage.Backend, runRoot string) ([]string, error) {
	c, err := openPresentCatalog(b, runRoot)
	if err != nil {
		return nil, err
	}
	return c.committed(), nil
}

// ResumeOrder lists what a resume under the run root may start from, in the
// order to try: the committed checkpoints newest first, preceded by the
// latest pointer's target when that is a committed directory List does not
// cover (a single-segment output such as a root-level "merged").
func ResumeOrder(b storage.Backend, runRoot string) ([]string, error) {
	c, err := openPresentCatalog(b, runRoot)
	if err != nil {
		return nil, err
	}
	dirs := c.committed()
	if latest := c.latest(); latest != "" && !slices.Contains(dirs, latest) {
		dirs = append(dirs, latest)
	}
	slices.Reverse(dirs)
	return dirs, nil
}

// Restore rebuilds a model and optimizer from a *complete* checkpoint. The
// checkpoint must contain every layer (merged "Frankenstein" checkpoints
// qualify; raw partial checkpoints do not). The model is the weights as
// stored: every writer stores each as its master's rounding, Verify checks it.
func Restore(b storage.Backend, dir string, dtype tensor.DType) (*model.Model, *optim.AdamW, *Checkpoint, error) {
	c, err := Open(b, dir)
	if err != nil {
		return nil, nil, nil, err
	}
	if !c.Manifest.Complete {
		return nil, nil, nil, fmt.Errorf("ckpt: %s is a partial checkpoint (%d layers); merge it first", dir, len(c.Manifest.Layers))
	}
	m, err := model.New(c.Config, dtype)
	if err != nil {
		return nil, nil, nil, err
	}
	layout, err := c.Layout()
	if err != nil {
		return nil, nil, nil, err
	}
	// Every weight decodes straight into the model's own tensor and every
	// rank's groups into their slices of the one state each group gets, all
	// through the one load driver; every rank is checked against the layout
	// (checkRank) — all the layout's groups, each where its index says, before
	// a byte of it is placed, and every rank at one optimizer step.
	states := make([]*optim.GroupState, layout.NumGroups())
	for i, g := range layout.Groups {
		states[i] = optim.NewGroupState(g.Numel)
	}
	step, err := c.loadState(m.Tensor, states)
	if err != nil {
		return nil, nil, nil, err
	}
	o, err := optim.ResumeAdamW(m, layout, c.State.Hyper, states, step)
	if err != nil {
		return nil, nil, nil, err
	}
	return m, o, c, nil
}
