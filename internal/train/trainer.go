package train

import (
	"fmt"
	"math"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/strategy"
	"llmtailor/internal/tensor"
)

// Config parameterises a simulated training run.
type Config struct {
	// Model is the (scaled) geometry to train.
	Model *modelcfg.Config
	// Seed drives initialisation, task optima and gradient noise.
	Seed uint64
	// Task selects the workload profile (CPT or SFT).
	Task Task
	// TotalSteps is the full run length; WarmupSteps and BaseLR set the
	// warmup+cosine schedule.
	TotalSteps  int
	WarmupSteps int
	BaseLR      float64
	// CkptInterval is the checkpoint period in steps (paper: 100 CPT, 50 SFT).
	CkptInterval int
	// Strategy picks layers per checkpoint event; nil means Full.
	Strategy strategy.Strategy
	// WorldSize is the simulated rank count for optimizer sharding.
	WorldSize int
	// RunRoot is the checkpoint directory prefix (e.g. "runs/sft").
	RunRoot string
	// FailAt, when > 0, aborts the run right after the given step without
	// saving — a simulated crash between checkpoints.
	FailAt int
	// EvalEvery computes eval loss each N steps (0 = only at checkpoints
	// and the final step).
	EvalEvery int
	// LazyCapture overlaps checkpoint writes with training (an
	// AsyncSaver), composing partial checkpointing with CheckFreq/
	// DataStates-style I/O overlap as the paper's related-work section
	// anticipates. Capture is DataStates-LLM-style and layer-wise: each
	// layer is streamed out of the live optimizer by background workers,
	// overlapped with the next step's gradient computation, and — combined
	// with DedupCkpt — unchanged layers are recognized by digest (or by the
	// optimizer's mutation counters) before a single byte is copied. The
	// checkpoint stall is O(changed layers) rather than O(model size).
	LazyCapture bool
	// DedupCkpt stores checkpoints content-addressed: payloads land once
	// per content digest in the run root's objects/ store and unchanged
	// layers between saves cost zero payload bytes. Resume is transparent
	// (ResumeLatest reads either layout) and bit-identical to plain saves.
	DedupCkpt bool
	// KeepLast, when > 0, retires all but the newest KeepLast committed
	// checkpoints after every checkpoint event (ckpt.Retain): the dropped
	// directories' ref-index generations are retired and the blobs whose
	// youngest reference died with them are swept generationally, so a
	// long run's storage footprint stays O(KeepLast), not O(steps).
	KeepLast int
	// CkptCodec selects the blob compression codec for dedup saves:
	// "" or "raw" stores payload bytes verbatim, "plane" byte-plane-splits
	// and run-length codes each blob, "xor"/"xor-parent" additionally
	// deltas changed layers against the previous checkpoint's blob for the
	// same slot. Requires DedupCkpt; restores stay byte-identical.
	CkptCodec string
}

func (c *Config) validate() error {
	switch {
	case c.Model == nil:
		return fmt.Errorf("train: nil model config")
	case c.TotalSteps <= 0:
		return fmt.Errorf("train: total steps %d", c.TotalSteps)
	case c.CkptInterval <= 0:
		return fmt.Errorf("train: checkpoint interval %d", c.CkptInterval)
	case c.WorldSize <= 0:
		return fmt.Errorf("train: world size %d", c.WorldSize)
	case c.BaseLR <= 0:
		return fmt.Errorf("train: base lr %v", c.BaseLR)
	case c.RunRoot == "":
		return fmt.Errorf("train: empty run root")
	case c.CkptCodec != "" && c.CkptCodec != "raw" && !c.DedupCkpt:
		return fmt.Errorf("train: ckpt codec %q requires dedup checkpoints", c.CkptCodec)
	}
	return c.Model.Validate()
}

// StepStat records one step of the loss trajectory.
type StepStat struct {
	Step int
	Loss float64
	LR   float64
}

// CkptEvent records one checkpoint save.
type CkptEvent struct {
	Step int
	Dir  string
	// Layers lists saved layers (canonical order); empty means full.
	Layers []string
	// Partial is true when a strict subset was saved.
	Partial bool
	// TrueBytes is the checkpoint's analytic size at the model's true
	// geometry (what the paper's size tables report).
	TrueBytes int64
	// UpdateNorms is the per-layer weight movement since the previous
	// event (telemetry feeding dynamic strategies and the motivation
	// experiment).
	UpdateNorms map[modelcfg.LayerRef]float64
	// Retired lists checkpoint directories the retention policy
	// (Config.KeepLast) dropped at this event.
	Retired []string
	// BlobBytesFreed totals the blob bytes the retention sweep reclaimed.
	BlobBytesFreed int64
}

// Result summarises a run.
type Result struct {
	FinalStep     int
	FinalLoss     float64
	FinalEvalLoss float64
	History       []StepStat
	Ckpts         []CkptEvent
	// Capture reports the async saver's capture accounting (zero value
	// unless Config.LazyCapture was set).
	Capture ckpt.CaptureStats
	// Failed is true when the run stopped at FailAt.
	Failed bool
}

// Trainer drives the simulated optimization.
type Trainer struct {
	Cfg   Config
	Model *model.Model
	Optim *optim.AdamW

	backend   storage.Backend
	objective *objective
	// trueCfg is the unscaled geometry used for analytic byte accounting;
	// it defaults to the training geometry itself.
	trueCfg *modelcfg.Config

	step      int
	saveIndex int
	// prevSnapshot holds per-tensor weights at the previous checkpoint
	// event for update-norm telemetry.
	prevSnapshot map[string][]float32
	// saver is the background writer when Cfg.LazyCapture is set.
	saver *ckpt.AsyncSaver
}

// New builds a fresh trainer (step 0, random init from seed).
func New(cfg Config, b storage.Backend) (*Trainer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m, err := model.NewInitialized(cfg.Model, tensor.BF16, cfg.Seed)
	if err != nil {
		return nil, err
	}
	o, err := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg.Model), optim.DefaultHyper())
	if err != nil {
		return nil, err
	}
	obj, err := newObjective(cfg.Model, cfg.Task, cfg.Seed, m)
	if err != nil {
		return nil, err
	}
	t := &Trainer{Cfg: cfg, Model: m, Optim: o, backend: b, objective: obj, trueCfg: cfg.Model}
	t.snapshot()
	return t, nil
}

// Resume builds a trainer from a complete (possibly merged) checkpoint and
// continues the run described by cfg. The checkpoint's step becomes the
// current step; seeds must match for the objective to be the original one.
//
// Resume is elastic: cfg.WorldSize is the *target* world size, and a
// checkpoint saved at a different world size reshards transparently —
// ckpt.Restore gathers all source ranks into the full optimizer state, so
// the old partition disappears at restore time and every save after resume
// shards at cfg.WorldSize. (To repartition a committed checkpoint without
// resuming it, use `llmtailor reshard` / internal/reshard, which produces
// the byte-identical checkpoint a native save at the target size writes.)
func Resume(cfg Config, b storage.Backend, dir string) (*Trainer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m, o, c, err := ckpt.Restore(b, dir, tensor.BF16)
	if err != nil {
		return nil, err
	}
	if c.State.Seed != 0 && c.State.Seed != cfg.Seed {
		return nil, fmt.Errorf("train: checkpoint seed %d != config seed %d", c.State.Seed, cfg.Seed)
	}
	if err := sameGeometry(cfg.Model, c.Config); err != nil {
		return nil, err
	}
	// Reconstruct the deterministic initial model to recalibrate the
	// objective exactly as the original run did.
	initial, err := model.NewInitialized(cfg.Model, tensor.BF16, cfg.Seed)
	if err != nil {
		return nil, err
	}
	obj, err := newObjective(cfg.Model, cfg.Task, cfg.Seed, initial)
	if err != nil {
		return nil, err
	}
	t := &Trainer{
		Cfg: cfg, Model: m, Optim: o, backend: b, objective: obj,
		trueCfg: cfg.Model, step: c.State.Step,
		saveIndex: c.State.Step / cfg.CkptInterval,
	}
	t.snapshot()
	return t, nil
}

// ResumeLatest resumes from the newest committed checkpoint under the run
// root, walking backwards through older committed checkpoints when the
// newest is unusable (e.g. a partial checkpoint that needs a merge). Torn
// and in-flight checkpoint directories are never considered —
// ckpt.ResumeOrder only surfaces directories whose commit marker checks —
// so a run that crashed mid-save resumes from the last durable state.
func ResumeLatest(cfg Config, b storage.Backend, runRoot string) (*Trainer, error) {
	dirs, err := ckpt.ResumeOrder(b, runRoot)
	if err != nil {
		return nil, fmt.Errorf("train: resume latest under %q: %w", runRoot, err)
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("train: no committed checkpoint under %q", runRoot)
	}
	var lastErr error
	for _, dir := range dirs {
		t, err := Resume(cfg, b, dir)
		if err == nil {
			return t, nil
		}
		lastErr = fmt.Errorf("train: resume %s: %w", dir, err)
	}
	return nil, lastErr
}

func sameGeometry(a, b *modelcfg.Config) error {
	if a.Name != b.Name || a.NumLayers != b.NumLayers || a.HiddenSize != b.HiddenSize ||
		a.VocabSize != b.VocabSize || a.TieWordEmbeddings != b.TieWordEmbeddings {
		return fmt.Errorf("train: checkpoint geometry %s does not match config %s", b.Name, a.Name)
	}
	return nil
}

// SetTrueConfig installs an unscaled geometry for analytic byte accounting
// in checkpoint events (the live run trains the scaled model while tables
// report true sizes).
func (t *Trainer) SetTrueConfig(cfg *modelcfg.Config) { t.trueCfg = cfg }

// Step returns the current global step.
func (t *Trainer) Step() int { return t.step }

// Loss returns the current training loss.
func (t *Trainer) Loss() float64 { return t.objective.Loss(t.Model) }

// EvalLoss returns the current held-out loss.
func (t *Trainer) EvalLoss() float64 { return t.objective.EvalLoss(t.Model) }

// TaskProgress exposes the objective's learned-fraction signal for the
// synthetic benchmark evaluator.
func (t *Trainer) TaskProgress() float64 {
	initial, err := model.NewInitialized(t.Cfg.Model, tensor.BF16, t.Cfg.Seed)
	if err != nil {
		return 0
	}
	return t.objective.TaskProgress(t.Model, initial)
}

func (t *Trainer) schedule() lrSchedule {
	return lrSchedule{
		BaseLR: t.Cfg.BaseLR, WarmupSteps: t.Cfg.WarmupSteps,
		TotalSteps: t.Cfg.TotalSteps, MinFactor: 0.05,
	}
}

// snapshot records current per-tensor weights for update-norm telemetry.
func (t *Trainer) snapshot() {
	t.prevSnapshot = map[string][]float32{}
	for _, ts := range t.Model.Tensors() {
		t.prevSnapshot[ts.Name] = ts.Float32s()
	}
}

// updateNorms computes the per-layer L2 movement since the last snapshot.
func (t *Trainer) updateNorms() map[modelcfg.LayerRef]float64 {
	out := map[modelcfg.LayerRef]float64{}
	for _, spec := range t.Model.Specs() {
		ts, _ := t.Model.Tensor(spec.Name)
		prev := t.prevSnapshot[spec.Name]
		var sum float64
		for i := 0; i < ts.Len(); i++ {
			d := float64(ts.At(i)) - float64(prev[i])
			sum += d * d
		}
		out[spec.Layer] += sum
	}
	for ref, v := range out {
		out[ref] = math.Sqrt(v)
	}
	return out
}

// Run advances the trainer to TotalSteps (or FailAt) with checkpointing.
func (t *Trainer) Run() (*Result, error) {
	res := &Result{}
	sched := t.schedule()
	strat := t.Cfg.Strategy
	if strat == nil {
		strat = strategy.Full{}
	}

	for t.step < t.Cfg.TotalSteps {
		t.step++
		lr := sched.At(t.step)
		grads := t.objective.Gradients(t.Model, t.step)
		// Lazy capture overlapped with the (read-only) gradient computation
		// above; the optimizer step below mutates the live state, so this is
		// the latest point to reclaim it. The stall is only whatever capture
		// has not finished by now — O(changed layers) in steady state.
		if t.saver != nil {
			if err := t.saver.WaitCaptured(); err != nil {
				t.saver.Wait()
				return nil, err
			}
		}
		if err := t.Optim.Step(lr, grads); err != nil {
			return nil, err
		}
		loss := t.objective.Loss(t.Model)
		res.History = append(res.History, StepStat{Step: t.step, Loss: loss, LR: lr})

		if t.step%t.Cfg.CkptInterval == 0 {
			ev, err := t.checkpoint(strat, loss)
			if err != nil {
				return nil, err
			}
			res.Ckpts = append(res.Ckpts, ev)
		}
		if t.Cfg.FailAt > 0 && t.step >= t.Cfg.FailAt {
			res.Failed = true
			break
		}
	}
	// Drain pending async writes; a real crash would lose in-flight
	// checkpoints, but completing them is equivalent to "the write
	// finished just before the failure" and keeps runs deterministic.
	if t.saver != nil {
		res.Capture = t.saver.CaptureStats()
		if err := t.saver.Wait(); err != nil {
			return nil, err
		}
		t.saver = nil
	}
	res.FinalStep = t.step
	res.FinalLoss = t.objective.Loss(t.Model)
	res.FinalEvalLoss = t.objective.EvalLoss(t.Model)
	return res, nil
}

// checkpoint executes one checkpoint event under the strategy.
func (t *Trainer) checkpoint(strat strategy.Strategy, loss float64) (CkptEvent, error) {
	norms := t.updateNorms()
	layers := strat.Layers(strategy.Context{
		SaveIndex:   t.saveIndex,
		Step:        t.step,
		Config:      t.Cfg.Model,
		UpdateNorms: norms,
	})
	dir := t.Cfg.RunRoot + "/" + ckpt.DirName(t.step)
	state := ckpt.TrainerState{
		Step: t.step, LR: t.schedule().At(t.step), Loss: loss,
		EvalLoss: t.objective.EvalLoss(t.Model),
		Task:     t.Cfg.Task.Name, Seed: t.Cfg.Seed,
		TotalSteps: t.Cfg.TotalSteps, WarmupSteps: t.Cfg.WarmupSteps,
		BaseLR: t.Cfg.BaseLR,
	}
	spec := ckpt.SaveSpec{
		Dir: dir, Model: t.Model, Optim: t.Optim,
		WorldSize: t.Cfg.WorldSize, Layers: layers,
		Strategy: strat.Name(), State: state,
		Dedup: t.Cfg.DedupCkpt,
		Codec: t.Cfg.CkptCodec,
	}
	var err error
	if t.Cfg.LazyCapture {
		if t.saver == nil {
			t.saver = ckpt.NewLazyAsyncSaver(t.backend, 2, ckpt.CaptureOptions{})
		}
		// The optimizer's mutation counters let capture prove a layer
		// untouched since the previous save without hashing it.
		spec.LayerGens = t.Optim.LayerGens()
		err = t.saver.Save(spec)
	} else {
		err = ckpt.Save(t.backend, spec)
	}
	if err != nil {
		return CkptEvent{}, err
	}

	ev := CkptEvent{Step: t.step, Dir: dir, Partial: layers != nil, UpdateNorms: norms}
	if t.Cfg.KeepLast > 0 {
		// Retention only ever touches committed checkpoints; an async save
		// still in flight is invisible to List, its journal record pins the
		// blobs it publishes, and the sweep's two-phase trash/recheck
		// protocol (storage.BlobStore.Sweep) protects even blobs the save
		// merely reuses — so running right after the save enqueue is safe.
		rep, err := ckpt.Retain(t.backend, t.Cfg.RunRoot, t.Cfg.KeepLast, false)
		if err != nil {
			return CkptEvent{}, fmt.Errorf("train: retention after step %d: %w", t.step, err)
		}
		ev.Retired = rep.Removed
		ev.BlobBytesFreed = rep.BytesFreed
	}
	saved := layers
	if saved == nil {
		saved = t.Cfg.Model.AllLayers()
	}
	for _, ref := range saved {
		ev.Layers = append(ev.Layers, ref.String())
	}
	// Analytic size at true geometry: map saved layers onto trueCfg.
	var trueLayers []modelcfg.LayerRef
	for _, ref := range saved {
		trueLayers = append(trueLayers, ref)
	}
	ev.TrueBytes = t.trueCfg.PartialCkptBytes(trueLayers)

	t.saveIndex++
	t.snapshot()
	return ev, nil
}
