package main

import (
	"fmt"
	"time"

	"llmtailor"
	"llmtailor/internal/ckpt"
	"llmtailor/internal/hub"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

const (
	linearWorld  = 2
	keepLast     = 3
	warmupCycles = 3

	objStoreLatency   = 200 * time.Microsecond
	objStoreBandwidth = 256 << 20
)

// linearSpec describes the three save → retain → recover workloads; they
// differ in change-set, save path and backend, not in cycle shape.
type linearSpec struct {
	backend string // "os", "mem" or "objstore"
	small   bool   // 8.1 MB DefaultSimScale instead of the 32.2 MB state
	dense   bool   // every layer changes; otherwise one of two hot layers
	dedup   bool
	codec   string
	lazy    bool
	hub     bool
}

var linearSpecs = map[string]linearSpec{
	"dense_plain_os":       {backend: "os", dense: true},
	"sparse_xor_mem":       {backend: "mem", dedup: true, codec: "xor", hub: true},
	"sparse_lazy_objstore": {backend: "objstore", small: true, dedup: true, lazy: true},
}

// linear is one running instance of a linearSpec.
type linear struct {
	spec    linearSpec
	h       *harness
	st      *trainState
	runRoot string
	step    int
	lastDir string // newest committed checkpoint
	hot     []modelcfg.LayerRef
	saver   *ckpt.AsyncSaver
	lastCap ckpt.CaptureStats
	crashPicker
	cleanup func()
}

// crashPicker draws the seed-chosen crash points.
type crashPicker struct {
	rng *tensor.RNG
	// faultPoints is the fault-point count of one steady-state save, the
	// range crash points are drawn from.
	faultPoints int
}

func newCrashPicker(seed uint64) crashPicker {
	return crashPicker{rng: tensor.NewNamedRNG(seed, "bench-crash-points")}
}

// crashPoint returns the fault point to arm and whether the write it hits
// lands torn.
func (c *crashPicker) crashPoint() (k int, torn bool) {
	k = 1
	if c.faultPoints > 1 {
		k = 1 + c.rng.Intn(c.faultPoints)
	}
	return k, c.rng.Intn(2) == 1
}

// openBackend opens a workload's real backend. Quick mode drops the object
// store's latency: it smoke-tests the protocol, not the time.
func openBackend(kind string, opts options) (storage.Backend, func(), error) {
	switch kind {
	case "os":
		dir, err := scratchDir(opts.scratch)
		if err != nil {
			return nil, nil, err
		}
		b, err := storage.NewOS(dir)
		return b, func() { removeAll(dir) }, err
	case "mem":
		return storage.NewMem(), func() {}, nil
	case "objstore":
		s := storage.NewObjStore()
		if !opts.quick {
			s.SetLatency(objStoreLatency, objStoreBandwidth)
		}
		return s, func() {}, nil
	}
	return nil, nil, fmt.Errorf("unknown backend %q", kind)
}

func newLinear(spec linearSpec, opts options) (*linear, error) {
	real, cleanup, err := openBackend(spec.backend, opts)
	if err != nil {
		return nil, err
	}
	cfg := fullScale()
	if spec.small {
		cfg = simScale()
	}
	if opts.quick {
		cfg = modelcfg.Tiny()
	}
	st, err := newTrainState(cfg, opts.seed)
	if err != nil {
		cleanup()
		return nil, err
	}
	w := &linear{spec: spec, h: newHarness(real, opts.trace), st: st, runRoot: "run",
		crashPicker: newCrashPicker(opts.seed), cleanup: cleanup}
	w.hot = pickHotLayers(cfg, opts.seed)
	b := w.h.backend()
	if spec.hub {
		w.runRoot = "runs/main"
		if err := w.attachHub(b); err != nil {
			cleanup()
			return nil, err
		}
	}
	if spec.lazy {
		w.saver = ckpt.NewLazyAsyncSaver(b, 1, ckpt.CaptureOptions{Workers: workers()})
	}
	return w, nil
}

// pickHotLayers chooses the two transformer blocks a sparse workload
// trains. Blocks are all the same size, so the choice moves which bytes
// change and never how many.
func pickHotLayers(cfg *modelcfg.Config, seed uint64) []modelcfg.LayerRef {
	rng := tensor.NewNamedRNG(seed, "bench-hot-layers")
	a := rng.Intn(cfg.NumLayers)
	b := (a + 1 + rng.Intn(cfg.NumLayers-1)) % cfg.NumLayers
	return []modelcfg.LayerRef{modelcfg.Block(a), modelcfg.Block(b)}
}

// attachHub builds the 4-shard hub, an idle peer run holding the step-0
// base, and attaches the measured run.
func (w *linear) attachHub(b storage.Backend) error {
	if err := hub.Init(b, "hub", hub.Options{Shards: 4}); err != nil {
		return err
	}
	if err := hub.Attach(b, "hub", "runs/peer", "peer"); err != nil {
		return err
	}
	if err := ckpt.Save(b, w.saveSpec("runs/peer/checkpoint-0", 0)); err != nil {
		return err
	}
	t0 := time.Now()
	if err := hub.Attach(b, "hub", w.runRoot, "main"); err != nil {
		return err
	}
	w.h.once["hub.attach_ms"] = nsToMs(int64(time.Since(t0)))
	return nil
}

func (w *linear) saveSpec(dir string, step int) ckpt.SaveSpec {
	spec := ckpt.SaveSpec{
		Dir: dir, Model: w.st.m, Optim: w.st.o, WorldSize: linearWorld, Strategy: "full",
		Dedup: w.spec.dedup, Codec: w.spec.codec,
		State: ckpt.TrainerState{Step: step, Seed: w.st.seed, LR: learningRate, BaseLR: learningRate},
	}
	if w.spec.lazy {
		spec.LayerGens = w.st.o.LayerGens()
	}
	return spec
}

func (w *linear) changeSet(i int) []modelcfg.LayerRef {
	if w.spec.dense {
		return w.st.cfg.AllLayers()
	}
	return []modelcfg.LayerRef{w.hot[i%len(w.hot)]}
}

func (w *linear) harness() *harness { return w.h }

// period: each hot block's xor chain grows by one every len(hot) cycles and
// re-bases after DefaultCodecRebase links, so the xor workload repeats every
// len(hot) × (DefaultCodecRebase + 1) cycles. Without chains every cycle is
// alike.
func (w *linear) period() int {
	if w.spec.codec != "xor" {
		return 1
	}
	return len(w.hot) * (ckpt.DefaultCodecRebase + 1)
}

func (w *linear) dir(step int) string { return w.runRoot + "/" + ckpt.DirName(step) }

// runCycle is one closed-loop cycle: train step, save, retain, recover
// through a fresh handle, then compare the recovered state with the live
// one. Only save, retain and recover are timed.
func (w *linear) runCycle(i int) {
	h, b := w.h, w.h.backend()
	full := w.st.fullBytes()

	t0 := time.Now()
	if err := w.st.step(w.changeSet(i)); err != nil {
		h.fail(err)
	}
	h.add("optim.step_ms", nsToMs(int64(time.Since(t0))))

	w.step++
	dir := w.dir(w.step)
	var stallNs int64
	save := h.timed("save", phaseSave, full, func() error {
		if !w.spec.lazy {
			return ckpt.Save(b, w.saveSpec(dir, w.step))
		}
		start := time.Now()
		if err := w.saver.Save(w.saveSpec(dir, w.step)); err != nil {
			return err
		}
		if err := w.saver.WaitCaptured(); err != nil {
			return err
		}
		stallNs = int64(time.Since(start))
		return w.saver.Flush()
	})
	if !w.spec.lazy {
		stallNs = save.wallNs
	}
	if save.err == nil {
		w.lastDir = dir
	}
	h.add("save_ms", save.ms())
	h.add("save_ref_ms", save.refMs)
	h.add("stall_ms", nsToMs(stallNs))
	h.add("stall_ref_ms", nsToMs(stallNs)*ratio(save.refMs, save.ms()))
	h.add("save_alloc_mb", float64(save.allocBytes)/mb)
	h.add("save_allocs", float64(save.allocObjects))
	if w.spec.lazy {
		w.addCaptureSamples()
	}

	var rep *ckpt.RetainReport
	maint := h.timed("retain", phaseOther, 0, func() error {
		var err error
		rep, err = ckpt.Retain(b, w.runRoot, keepLast, false)
		return err
	})
	h.add("maint_ref_ms", maint.refMs)
	h.add("retain_ms", maint.ms())
	if rep != nil {
		h.add("gc_examined", float64(rep.Examined))
		h.add("gc_reclaimed", float64(len(rep.RemovedBlobs)))
	}

	var sampler *heapSampler
	if h.tracing {
		sampler = startHeapSampler()
	}
	var got string
	var restored *trainState
	rec := h.timed("recover", phaseRecover, full, func() error {
		run := llmtailor.NewStore(b).Run(w.runRoot)
		latest, err := run.Latest()
		if err != nil {
			return err
		}
		got = latest
		m, o, _, err := ckpt.Restore(b, latest, tensor.BF16)
		if err != nil {
			return err
		}
		restored = &trainState{m: m, o: o}
		return nil
	})
	if sampler != nil {
		h.add("restore_peak_heap_mb", float64(sampler.finish())/mb)
	}
	h.add("recover_ms", rec.ms())
	h.add("recover_ref_ms", rec.refMs)
	h.add("restore_alloc_mb", float64(rec.allocBytes)/mb)

	if rec.err == nil {
		var err error
		if got != dir {
			err = fmt.Errorf("latest resolved to %s, want %s", got, dir)
		} else {
			err = diffState(w.st, restored.m, restored.o, w.st.o.StepCount)
		}
		h.check("bit identity", err)
	}

	if h.tracing {
		w.tracedExtras(dir)
	}
	h.endCycle(full)
}

// addCaptureSamples turns the lazy engine's cumulative counters into
// per-save samples.
func (w *linear) addCaptureSamples() {
	cs := w.saver.CaptureStats()
	prev := w.lastCap
	w.lastCap = cs
	w.h.add("capture_hashed_mb", float64(cs.BytesHashed-prev.BytesHashed)/mb)
	w.h.add("capture_spooled_mb", float64(cs.BytesSpooled-prev.BytesSpooled)/mb)
	w.h.add("capture_layers_reused", float64(cs.LayersReused-prev.LayersReused))
	w.h.once["ckpt.capture_spool_peak_mb"] = float64(cs.SpoolPeakBytes) / mb
}

// tracedExtras are the per-cycle probes only the traced pass makes. They
// run outside every timed call, against the tracer, so they show in the
// trace but never in an end-to-end number.
func (w *linear) tracedExtras(dir string) {
	h := w.h
	probeOpen(h, dir)
	if !w.spec.dedup {
		return
	}
	cs, err := ckpt.ReadCodecStats(h.real, dir)
	if err != nil {
		h.fail(err)
		return
	}
	var entries int
	for _, n := range cs.Entries {
		entries += n
	}
	h.add("manifest_entries", float64(entries))
	h.add("codec_stored_over_raw", ratio(float64(cs.StoredBytes), float64(cs.RawBytes)))
	h.add("codec_xor_entry_frac", ratio(float64(cs.Entries["xor-parent"]), float64(entries)))
	h.add("codec_deepest_chain", float64(cs.DeepestChain))
}

// crashCheck advances the state, repeats the save through a fault injector
// armed at fault point k (0 = unarmed: set-up's pass that only counts the
// save's fault points), and requires recovery to return a committed state — the
// previous or the new one, never a hybrid — and Repair to leave the run
// scanning clean. When recovery returns the previous state the step is
// rolled back, so the run continues from the state that is committed.
func (w *linear) crashCheck(i int, k int, torn bool) {
	h := w.h
	prev := w.st.clone()
	if err := w.st.step(w.changeSet(i)); err != nil {
		h.fail(err)
		return
	}
	w.step++
	dir := w.dir(w.step)
	fault := storage.NewFault(h.backend())
	fault.SetTorn(torn)
	fault.FailAt(k)
	var saveErr error
	if w.spec.lazy {
		s := ckpt.NewLazyAsyncSaver(fault, 1, ckpt.CaptureOptions{Workers: workers()})
		saveErr = s.Save(w.saveSpec(dir, w.step))
		if err := s.Wait(); saveErr == nil {
			saveErr = err
		}
	} else {
		saveErr = ckpt.Save(fault, w.saveSpec(dir, w.step))
	}
	if k == 0 {
		// Counting pass of set-up: the save is an ordinary one.
		w.faultPoints = int(fault.Ops())
		if saveErr != nil {
			h.fail(saveErr)
		}
		w.lastDir = dir
		return
	}
	if saveErr != nil && !storage.IsInjected(saveErr) {
		h.check("crash check save", saveErr)
		return
	}
	gotNew, err := w.verifyCrashRecovery(prev, dir, saveErr != nil)
	h.check("crash check", err)
	if gotNew {
		w.lastDir = dir
	} else {
		w.st = prev
	}
}

// verifyCrashRecovery recovers after the (possibly died) save of dir and
// reports whether the new checkpoint is what recovery returned. A save that
// died after its commit point but before the pointer moved may legally
// surface either checkpoint: latest must name the new directory and restore
// the new state, or name the previous one and restore the previous state.
// Anything else is a hybrid.
func (w *linear) verifyCrashRecovery(prev *trainState, dir string, died bool) (gotNew bool, err error) {
	b := w.h.backend()
	run := llmtailor.NewStore(b).Run(w.runRoot)
	latest, err := run.Latest()
	if err != nil {
		return false, err
	}
	want := w.st
	switch {
	case latest == dir:
		gotNew = true
	case died && latest == w.lastDir:
		want = prev
	default:
		return false, fmt.Errorf("after the crash latest resolved to %s, want %s or %s", latest, w.lastDir, dir)
	}
	m, o, _, err := ckpt.Restore(b, latest, tensor.BF16)
	if err != nil {
		return gotNew, err
	}
	if err := diffState(want, m, o, want.o.StepCount); err != nil {
		return gotNew, fmt.Errorf("hybrid checkpoint: %w", err)
	}
	return gotNew, repairAndScan(run)
}

// repairAndScan runs Repair, requires every scan view to come back clean,
// then full-GCs so the dead save's blobs do not drift space_amp upwards.
func repairAndScan(run *llmtailor.Run) error {
	if _, err := run.Repair(); err != nil {
		return err
	}
	if err := scanClean(run); err != nil {
		return err
	}
	_, err := run.GC(llmtailor.GCOptions{Full: true})
	return err
}

func scanClean(run *llmtailor.Run) error {
	rep, err := run.Scan(llmtailor.ScanOptions{Blobs: true, Refs: true, Codecs: true})
	if err != nil {
		return err
	}
	for _, d := range rep.Dirs {
		if d.State != ckpt.StateCommitted {
			return fmt.Errorf("scan after repair: %s is %s", d.Path, d.State)
		}
	}
	for _, bl := range rep.Blobs {
		if bl.State != ckpt.BlobReferenced && bl.State != ckpt.BlobUnreferenced {
			return fmt.Errorf("scan after repair: blob entry %s is %s", bl.Path, bl.State)
		}
	}
	for _, r := range rep.Refs {
		if r.State != ckpt.RefOK {
			return fmt.Errorf("scan after repair: ref record %s is %s", r.Path, r.State)
		}
	}
	for _, c := range rep.Codecs {
		if len(c.MissingParents) > 0 {
			return fmt.Errorf("scan after repair: %s misses xor parents %v", c.Dir, c.MissingParents)
		}
	}
	return nil
}

// settle runs after warm-up: one unarmed pass of the crash check counts a
// steady-state save's fault points, and a retain restores the keep-last
// window that extra checkpoint widened.
func (w *linear) settle() {
	w.crashCheck(0, 0, false)
	if _, err := ckpt.Retain(w.h.backend(), w.runRoot, keepLast, false); err != nil {
		w.h.fail(err)
	}
}

func (w *linear) close() {
	if w.saver != nil {
		if err := w.saver.Wait(); err != nil {
			w.h.fail(err)
		}
	}
	w.cleanup()
}
