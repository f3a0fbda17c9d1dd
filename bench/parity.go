package main

import (
	"fmt"
	"time"

	"llmtailor"
	"llmtailor/internal/ckpt"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/recipe"
	"llmtailor/internal/reshard"
	"llmtailor/internal/storage"
	"llmtailor/internal/strategy"
	"llmtailor/internal/tailor"
	"llmtailor/internal/tensor"
)

const (
	parityWorld    = 4
	parityReshard  = 3
	parityKeepLast = 2
	parityRun      = "run"
	parityMerged   = "merged"
	parityReshards = "resharded"
)

// parity is the paper's use case 1 as a workload: partial parity saves,
// recovery by merging the newest two, and an elastic reshard of the merged
// checkpoint.
type parity struct {
	h  *harness
	st *trainState
	// shadow is the state the committed partial checkpoints represent
	// together: each layer as of the last save that included it.
	shadow      *trainState
	step        int
	saveIndex   int
	lastMerged  string
	lastReshard string
	crashPicker
	cleanup func()
}

func newParity(opts options) (*parity, error) {
	real, cleanup, err := openBackend("os", opts)
	if err != nil {
		return nil, err
	}
	cfg := fullScale()
	if opts.quick {
		cfg = modelcfg.Tiny()
	}
	st, err := newTrainState(cfg, opts.seed)
	if err != nil {
		cleanup()
		return nil, err
	}
	return &parity{h: newHarness(real, opts.trace), st: st, shadow: st.clone(),
		crashPicker: newCrashPicker(opts.seed), cleanup: cleanup}, nil
}

func (w *parity) harness() *harness { return w.h }
func (w *parity) period() int       { return 1 }

func (w *parity) saveSpec(dir string, layers []modelcfg.LayerRef) ckpt.SaveSpec {
	return ckpt.SaveSpec{
		Dir: dir, Model: w.st.m, Optim: w.st.o, WorldSize: parityWorld, Layers: layers,
		Strategy: strategy.Parity{}.Name(),
		State:    ckpt.TrainerState{Step: w.step, Seed: w.st.seed, LR: learningRate, BaseLR: learningRate},
	}
}

func (w *parity) nextLayers() []modelcfg.LayerRef {
	return strategy.Parity{}.Layers(strategy.Context{SaveIndex: w.saveIndex, Step: w.step, Config: w.st.cfg})
}

func (w *parity) mergeOptions() tailor.Options {
	return tailor.Options{Workers: workers(), MaxInFlight: maxInFlight}
}

// runCycle is two partial saves (a train step before each), recovery of a
// complete state by FromManifests → Merge → Restore, a 4→3 reshard of the
// merged checkpoint, and retention on all three roots.
func (w *parity) runCycle(i int) {
	h, b := w.h, w.h.backend()
	full := w.st.fullBytes()

	for half := 0; half < 2; half++ {
		t0 := time.Now()
		if err := w.st.step(w.st.cfg.AllLayers()); err != nil {
			h.fail(err)
		}
		h.add("optim.step_ms", nsToMs(int64(time.Since(t0))))
		w.step++
		layers := w.nextLayers()
		dir := parityRun + "/" + ckpt.DirName(w.step)
		save := h.timed("save", phaseSave, w.st.layerBytes(layers), func() error {
			return ckpt.Save(b, w.saveSpec(dir, layers))
		})
		h.add("save_ms", save.ms())
		h.add("save_ref_ms", save.refMs)
		h.add("stall_ms", save.ms())
		h.add("stall_ref_ms", save.refMs)
		h.add("save_alloc_mb", float64(save.allocBytes)/mb)
		h.add("save_allocs", float64(save.allocObjects))
		if save.err == nil {
			w.saveIndex++
			if err := copyLayers(w.shadow, w.st, layers); err != nil {
				h.fail(err)
			}
		}
	}

	merged := parityMerged + "/" + ckpt.DirName(w.step)
	var sampler *heapSampler
	if h.tracing {
		sampler = startHeapSampler()
	}
	restored, recoverMs, recoverRefMs := w.recover(merged, full, true)
	if sampler != nil {
		h.add("restore_peak_heap_mb", float64(sampler.finish())/mb)
	}
	if restored != nil {
		w.lastMerged = merged
		h.check("bit identity", diffState(w.shadow, restored.m, restored.o, w.st.o.StepCount))
	}

	resharded := parityReshards + "/" + ckpt.DirName(w.step)
	var stats *reshard.Stats
	rsh := h.timed("reshard", phaseOther, full, func() error {
		var err error
		stats, err = reshard.Reshard(b, merged, resharded, parityReshard,
			reshard.Options{Workers: workers(), MaxInFlight: maxInFlight, NoLatest: true})
		return err
	})
	h.add("reshard_ms", rsh.ms())
	h.add("reshard_alloc_mb", float64(rsh.allocBytes)/mb)
	if stats != nil {
		w.lastReshard = resharded
		shards := stats.ShardsCarried + stats.ShardsSpliced + stats.ShardsZeroed
		h.add("reshard_spliced_frac", ratio(float64(stats.ShardsSpliced), float64(shards)))
		h.add("reshard_peak_inflight_mb", float64(stats.PeakInFlightBytes)/mb)
	}

	var maintRefMs float64
	for _, root := range []string{parityRun, parityMerged, parityReshards} {
		var rep *ckpt.RetainReport
		m := h.timed("retain", phaseOther, 0, func() error {
			var err error
			rep, err = ckpt.Retain(b, root, parityKeepLast, false)
			return err
		})
		maintRefMs += m.refMs
		h.add("retain_ms", m.ms())
		if rep != nil {
			h.add("gc_examined", float64(rep.Examined))
			h.add("gc_reclaimed", float64(len(rep.RemovedBlobs)))
		}
	}
	h.add("maint_ref_ms", maintRefMs)
	h.add("recover_ms", recoverMs)
	h.add("recover_ref_ms", recoverRefMs)

	if h.tracing {
		probeOpen(h, merged)
	}
	h.endCycle(full)
}

// recover rebuilds a complete state from the committed partial checkpoints
// into the merged directory and restores it, returning the state and the
// summed time of the four calls, in wall and in reference milliseconds.
// measured selects the timed path the cycle uses; the crash check runs the
// same calls untimed.
func (w *parity) recover(merged string, full int64, measured bool) (st *trainState, ms, refMs float64) {
	h, b := w.h, w.h.backend()
	var rec *recipe.Recipe
	var plan *tailor.Plan
	var stats *tailor.Stats
	var out *trainState
	steps := []struct {
		span    string
		ph      phase
		logical int64
		fn      func() error
	}{
		{"from_manifests", phaseRecoverAux, 0, func() (err error) {
			rec, err = recipe.FromManifests(b, parityRun, 0, w.st.cfg, merged)
			return err
		}},
		{"plan", phaseRecoverAux, 0, func() (err error) {
			plan, err = tailor.NewPlan(b, rec)
			return err
		}},
		{"merge", phaseRecoverAux, full, func() (err error) {
			stats, err = tailor.Execute(b, plan, w.mergeOptions())
			return err
		}},
		{"recover", phaseRecover, full, func() error {
			m, o, _, err := ckpt.Restore(b, merged, tensor.BF16)
			if err == nil {
				out = &trainState{m: m, o: o}
			}
			return err
		}},
	}
	spanMs := map[string]float64{}
	var mergeAlloc uint64
	for _, s := range steps {
		if !measured {
			if err := s.fn(); err != nil {
				h.check("crash check "+s.span, err)
				return nil, 0, 0
			}
			continue
		}
		cs := h.timed(s.span, s.ph, s.logical, s.fn)
		if cs.err != nil {
			return nil, 0, 0
		}
		spanMs[s.span] = cs.ms()
		ms += cs.ms()
		refMs += cs.refMs
		if s.span == "plan" || s.span == "merge" {
			mergeAlloc += cs.allocBytes
		}
		if s.span == "recover" {
			h.add("restore_alloc_mb", float64(cs.allocBytes)/mb)
		}
	}
	if measured {
		h.add("from_manifests_ms", spanMs["from_manifests"])
		h.add("plan_ms", spanMs["plan"])
		h.add("merge_ms", spanMs["plan"]+spanMs["merge"])
		h.add("restore_ms", spanMs["recover"])
		h.add("merge_alloc_mb", float64(mergeAlloc)/mb)
		h.add("merge_raw_copy_frac", ratio(float64(stats.BytesRawCopied), float64(stats.BytesRead)))
		h.add("merge_read_amp", ratio(float64(stats.BytesRead), float64(full)))
		h.add("merge_shard_file_loads", float64(stats.ShardFileLoads))
		h.add("merge_peak_inflight_mb", float64(stats.PeakInFlightBytes)/mb)
	}
	return out, ms, refMs
}

// crashCheck repeats the next partial save through a fault injector. A
// save that died uncommitted must leave the committed set, and so the merged
// recovery, exactly as it was; the resharded checkpoint is restored and
// compared on these cycles too.
func (w *parity) crashCheck(i int, k int, torn bool) {
	h := w.h
	if k > 0 && w.lastReshard != "" {
		m, o, _, err := ckpt.Restore(h.backend(), w.lastReshard, tensor.BF16)
		if err == nil {
			err = diffState(w.shadow, m, o, w.st.o.StepCount)
		}
		h.check("resharded bit identity", err)
	}
	prev := w.st.clone()
	if err := w.st.step(w.st.cfg.AllLayers()); err != nil {
		h.fail(err)
		return
	}
	w.step++
	layers := w.nextLayers()
	fault := storage.NewFault(h.backend())
	fault.SetTorn(torn)
	fault.FailAt(k)
	dir := parityRun + "/" + ckpt.DirName(w.step)
	saveErr := ckpt.Save(fault, w.saveSpec(dir, layers))
	if k == 0 {
		w.faultPoints = int(fault.Ops())
	}
	if saveErr != nil && !storage.IsInjected(saveErr) {
		h.check("crash check save", saveErr)
		return
	}
	// A save that died after its publishing rename is committed all the
	// same; recovery merges whatever is committed, so that decides which of
	// the two legal states it must return.
	if saveErr == nil || ckpt.CheckCommit(h.backend(), dir) == nil {
		w.saveIndex++
		if err := copyLayers(w.shadow, w.st, layers); err != nil {
			h.fail(err)
		}
	} else {
		w.st = prev
	}
	if k == 0 {
		return // set-up's counting pass: an ordinary save, nothing to recover from
	}
	merged := parityMerged + "/" + ckpt.DirName(w.step)
	restored, _, _ := w.recover(merged, 0, false)
	if restored == nil {
		return
	}
	err := diffState(w.shadow, restored.m, restored.o, w.st.o.StepCount)
	if err != nil {
		err = fmt.Errorf("hybrid checkpoint: %w", err)
	} else {
		run := llmtailor.NewStore(h.backend()).Run(parityRun)
		if _, err = run.Repair(); err == nil {
			err = scanClean(run)
		}
	}
	h.check("crash check", err)
}

// settle counts a partial save's fault points with one unarmed pass of the
// crash check and retires the checkpoint that extra save pushed out.
func (w *parity) settle() {
	w.crashCheck(0, 0, false)
	if _, err := ckpt.Retain(w.h.backend(), parityRun, parityKeepLast, false); err != nil {
		w.h.fail(err)
	}
}

func (w *parity) close() { w.cleanup() }
