package main

import (
	"fmt"
	"time"

	"llmtailor"
	"llmtailor/internal/ckpt"
	"llmtailor/internal/hub"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/tailor"
	"llmtailor/internal/train"
)

// finishSpec tells finishRun where a workload keeps what the once-per-run
// probes need.
type finishSpec struct {
	runRoot     string // the run whose store is scanned and collected
	resumeRoot  string // a root of complete checkpoints for ResumeLatest
	completeDir string // one complete committed checkpoint for Verify
	world       int
	dedup       bool
	xor         bool
	hubRoot     string // "" when the run is not attached
	peerRoot    string
	microLayer  modelcfg.LayerRef
	// restoreMs is the traced pass's median restore, the base
	// train.resume_overhead_ms is taken against.
	restoreMs float64
}

// probeOpen is the traced pass's per-cycle probe of what a reader pays
// before the first payload byte: Open plus VerifyCommit. It runs outside
// every timed call, so it shows in the trace and in ckpt.open_ms_p50 and
// never in an end-to-end number.
func probeOpen(h *harness, dir string) {
	open := h.probe("open", func() error {
		if _, err := ckpt.Open(h.backend(), dir); err != nil {
			return err
		}
		return ckpt.VerifyCommit(h.backend(), dir)
	})
	h.add("open_ms", open.ms())
}

func timeCall(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return nsToMs(int64(time.Since(t0))), err
}

// finishRun makes the once-per-run measurements of the traced pass: the
// operator-facing calls no cycle makes (scan, full GC, verify, resume, hub
// stat and GC) and the lower-layer micro measurements.
func finishRun(h *harness, st *trainState, f finishSpec) {
	b := h.backend()
	run := llmtailor.NewStore(b).Run(f.runRoot)
	once := func(name string, fn func() error) {
		ms, err := timeCall(fn)
		if err != nil {
			h.fail(fmt.Errorf("%s: %w", name, err))
			return
		}
		h.once[name] = ms
	}
	once("ckpt.scan_ms", func() error {
		_, err := run.Scan(llmtailor.ScanOptions{Blobs: true, Refs: true, Codecs: true})
		return err
	})
	once("ckpt.full_gc_ms", func() error {
		_, err := ckpt.GC(b, f.runRoot)
		return err
	})
	once("tailor.verify_ms", func() error {
		rep, err := tailor.Verify(b, f.completeDir)
		if err == nil && !rep.OK() {
			err = fmt.Errorf("%s", rep.Describe())
		}
		return err
	})
	once("train.resume_ms", func() error {
		_, err := train.ResumeLatest(train.Config{
			Model: st.cfg, Seed: st.seed, Task: train.SFT(), TotalSteps: 1 << 30, BaseLR: learningRate,
			CkptInterval: 1, WorldSize: f.world, RunRoot: f.resumeRoot,
		}, b, f.resumeRoot)
		return err
	})
	h.once["train.resume_overhead_ms"] = h.once["train.resume_ms"] - f.restoreMs

	if f.hubRoot != "" {
		once("hub.stat_ms", func() error {
			_, err := hub.Stat(b, f.hubRoot)
			return err
		})
		once("hub.gc_ms", func() error {
			_, err := hub.GC(b, f.hubRoot, true)
			return err
		})
		mine, err1 := ckpt.RunPins(b, f.runRoot)
		peer, err2 := ckpt.RunPins(b, f.peerRoot)
		if err1 != nil || err2 != nil {
			h.fail(fmt.Errorf("hub pins: %v %v", err1, err2))
		} else {
			shared := 0
			for d := range mine {
				if peer[d] > 0 {
					shared++
				}
			}
			h.once["hub.peer_shared_ratio"] = ratio(float64(shared), float64(len(mine)))
		}
	}

	if err := microZero(st, f.world, h.once); err != nil {
		h.fail(err)
	}
	if !f.dedup {
		return
	}
	before, after, err := generations(st, f.microLayer)
	if err != nil {
		h.fail(err)
		return
	}
	microCAS(after, h.once)
	entries := int(median(h.traced["manifest_entries"]))
	if err := microRefIndex(entries, keepLast, h.once); err != nil {
		h.fail(err)
	}
	if f.xor {
		if err := microCodec(before, after, h.once); err != nil {
			h.fail(err)
		}
	}
}

func (w *linear) finish() {
	f := finishSpec{runRoot: w.runRoot, resumeRoot: w.runRoot, completeDir: w.lastDir,
		world: linearWorld, dedup: w.spec.dedup, xor: w.spec.codec == "xor", microLayer: w.hot[0],
		restoreMs: median(w.h.traced["recover_ms"])}
	if w.spec.hub {
		f.hubRoot, f.peerRoot = "hub", "runs/peer"
	}
	finishRun(w.h, w.st, f)
}

func (w *parity) finish() {
	finishRun(w.h, w.st, finishSpec{runRoot: parityRun, resumeRoot: parityMerged,
		completeDir: w.lastMerged, world: parityWorld, restoreMs: median(w.h.traced["restore_ms"])})
}
