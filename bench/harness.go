package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"llmtailor/internal/storage"
)

// workers is the issue's worker setting for every Workers option.
func workers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

const maxInFlight = 8 << 20

// sampleSet holds the per-cycle samples of one pass, by sample name.
type sampleSet map[string][]float64

func (s sampleSet) add(name string, v float64) { s[name] = append(s[name], v) }

// harness owns the backend stack and the measurement bookkeeping shared by
// all workloads: real backend → tracer (traced runs only) → Meter → program.
type harness struct {
	real  storage.Backend
	tr    *tracer // nil on untraced runs
	meter *storage.Meter

	// tracing says whether the cycle in progress is a traced one; discard
	// routes samples of warm-up cycles nowhere.
	tracing bool
	discard bool
	cycle   int

	untraced sampleSet
	traced   sampleSet
	once     map[string]float64 // metrics reported once per run

	speed  speedMeter
	allocs [2]metrics.Sample
	// factors keeps every speed factor measured, warm-up included: set-up
	// time is converted with their median.
	factors []float64

	attempted int
	failed    int
	errs      []string

	// per-cycle accumulators, reset by beginCycle
	cyc cycleTotals
	// amps keeps every measured cycle's write, read and space amplification
	// in cycle order whatever the pass, so a traced and an untraced run can
	// be compared cycle by cycle.
	amps [][3]float64
}

type cycleTotals struct {
	wallNs       int64
	refMs        float64 // the same calls in reference milliseconds
	logical      int64
	allocBytes   uint64
	savedLogical int64
	written      int64
	restored     int64
	read         int64
}

func newHarness(real storage.Backend, trace bool) *harness {
	h := &harness{real: real, untraced: sampleSet{}, traced: sampleSet{}, once: map[string]float64{},
		speed:  newSpeedMeter(),
		allocs: [2]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}}
	var below storage.Backend = real
	if trace {
		h.tr = newTracer(real)
		below = h.tr
	}
	h.meter = storage.NewMeter(below, storage.Profile{})
	return h
}

// backend is what the program under test is handed.
func (h *harness) backend() storage.Backend { return h.meter }

func (h *harness) samples() sampleSet {
	if h.tracing {
		return h.traced
	}
	return h.untraced
}

func (h *harness) add(name string, v float64) {
	if !h.discard {
		h.samples().add(name, v)
	}
}

// readAllocs returns the cumulative heap allocation counters. Only the
// client goroutine calls it, so the sample buffer is reused unguarded.
func (h *harness) readAllocs() (bytes, objects uint64) {
	metrics.Read(h.allocs[:])
	return h.allocs[0].Value.Uint64(), h.allocs[1].Value.Uint64()
}

// callStat is what one timed call cost. refMs is its wall time in
// reference milliseconds (see speedMeter).
type callStat struct {
	wallNs       int64
	refMs        float64
	allocBytes   uint64
	allocObjects uint64
	read         int64
	written      int64
	err          error
}

func (c callStat) ms() float64 { return nsToMs(c.wallNs) }

// phase says how a timed call's bytes count towards the amplification
// metrics.
type phase uint8

const (
	phaseOther      phase = iota
	phaseSave             // metered writes and logical bytes feed write_amp
	phaseRecover          // metered reads and logical bytes feed read_amp
	phaseRecoverAux       // a recovery step that reads but restores nothing itself
)

// timed runs one public call of the program under test inside a span,
// charging its wall time, allocations and metered bytes to the cycle.
// logical is the state bytes the call moved (0 for maintenance).
func (h *harness) timed(span string, ph phase, logical int64, fn func() error) callStat {
	id := int32(-1)
	if h.tracing {
		id = h.tr.begin(span, h.cycle)
	}
	ref0 := h.speed.probe()
	m0 := h.meter.Stats()
	ab0, ao0 := h.readAllocs()
	cpu0 := processCPUNs()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	cpu := processCPUNs() - cpu0
	ab1, ao1 := h.readAllocs()
	m1 := h.meter.Stats()
	if id >= 0 {
		h.tr.end(id)
	}
	factor := (ref0 + h.speed.probe()) / 2 / refNominalMs
	h.factors = append(h.factors, factor)
	h.add("speed_factor", factor)
	cs := callStat{wallNs: int64(wall), refMs: referenceMs(int64(wall), cpu, factor),
		allocBytes: ab1 - ab0, allocObjects: ao1 - ao0,
		read: m1.BytesRead - m0.BytesRead, written: m1.BytesWritten - m0.BytesWritten, err: err}
	h.attempted++
	if err != nil {
		h.fail(fmt.Errorf("%s: %w", span, err))
	}
	h.cyc.wallNs += cs.wallNs
	h.cyc.refMs += cs.refMs
	h.cyc.logical += logical
	h.cyc.allocBytes += cs.allocBytes
	switch ph {
	case phaseSave:
		h.cyc.savedLogical += logical
		h.cyc.written += cs.written
	case phaseRecover:
		h.cyc.restored += logical
		h.cyc.read += cs.read
	case phaseRecoverAux:
		h.cyc.read += cs.read
	}
	return cs
}

// probe runs a traced-pass-only call inside a span of its own without
// charging it to the cycle: it shows in the trace, never in an end-to-end
// number.
func (h *harness) probe(span string, fn func() error) callStat {
	id := h.tr.begin(span, h.cycle)
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	h.tr.end(id)
	if err != nil {
		h.fail(fmt.Errorf("%s: %w", span, err))
	}
	return callStat{wallNs: int64(wall), err: err}
}

// check counts one correctness check (bit identity, crash recovery).
func (h *harness) check(what string, err error) {
	h.attempted++
	if err != nil {
		h.fail(fmt.Errorf("%s: %w", what, err))
	}
}

func (h *harness) fail(err error) {
	h.failed++
	if len(h.errs) < 8 {
		h.errs = append(h.errs, fmt.Sprintf("cycle %d: %v", h.cycle, err))
	}
}

func (h *harness) beginCycle(i int, traced, discard bool) {
	h.cycle, h.tracing, h.discard = i, traced && h.tr != nil, discard
	h.cyc = cycleTotals{}
	if h.tr != nil {
		h.tr.on.Store(h.tracing)
	}
}

// endCycle turns the cycle's accumulators into per-cycle samples. full is
// the logical size of one whole state.
func (h *harness) endCycle(full int64) {
	if h.tr != nil {
		h.tr.on.Store(false)
	}
	if h.discard {
		return
	}
	c := h.cyc
	amp := [3]float64{
		ratio(float64(c.written), float64(c.savedLogical)),
		ratio(float64(c.read), float64(c.restored)),
		ratio(float64(treeBytes(h.real, "")), float64(full)),
	}
	h.amps = append(h.amps, amp)
	h.add("cycle_ms", nsToMs(c.wallNs))
	h.add("lifecycle_mb_per_s", ratio(float64(c.logical)/mb, c.refMs/1e3))
	h.add("alloc_mb", float64(c.allocBytes)/mb)
	h.add("write_amp", amp[0])
	h.add("read_amp", amp[1])
	h.add("space_amp", amp[2])
}

// walkTree calls fn for every file under dir with its size, in List's own
// order. It reads the real backend, so the walk itself is neither metered
// nor traced.
func walkTree(b storage.Backend, dir string, fn func(path string, size int64)) {
	names, err := b.List(dir)
	if err != nil {
		return
	}
	for _, n := range names {
		p := n
		if dir != "" {
			p = dir + "/" + n
		}
		if strings.HasSuffix(n, "/") {
			walkTree(b, strings.TrimSuffix(p, "/"), fn)
			continue
		}
		if sz, err := b.Stat(p); err == nil {
			fn(p, sz)
		}
	}
}

// treeBytes sums the file sizes under dir.
func treeBytes(b storage.Backend, dir string) int64 {
	var total int64
	walkTree(b, dir, func(_ string, size int64) { total += size })
	return total
}

// treeListing returns every file path under dir with its size: the
// decorator-fidelity comparison.
func treeListing(b storage.Backend, dir string) []string {
	var out []string
	walkTree(b, dir, func(p string, size int64) { out = append(out, fmt.Sprintf("%s %d", p, size)) })
	return out
}

// heapSampler polls live heap bytes while a call runs and keeps the peak.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > s.peak {
				s.peak = v
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it and returns the peak in bytes.
func (s *heapSampler) finish() uint64 {
	close(s.stop)
	<-s.done
	return s.peak
}
