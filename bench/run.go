package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// options is one benchmark run's configuration.
type options struct {
	workload string
	seed     uint64
	// seconds bounds the measured loop by time; cycles > 0 bounds it by
	// count instead (tests, selfcheck and quick mode).
	seconds float64
	cycles  int
	// trace selects the traced pass: cycles alternate traced and untraced,
	// so the two halves share one set-up and one machine state.
	trace    bool
	traceOut string
	quick    bool
	scratch  string
	setups   int
	// crashEvery runs the crash check on the first measured cycle and every
	// crashEvery-th after it.
	crashEvery int
}

// setupBudget stops repeating set-up once this much time has gone into it,
// so the slow object-store workload does not spend its run setting up.
const setupBudget = 5 * time.Second

var workloadNames = []string{"dense_plain_os", "sparse_xor_mem", "sparse_lazy_objstore", "parity_merge_reshard_os"}

var workloadWhy = map[string]string{
	"dense_plain_os":          "every layer changes, plain save on the OS backend: serialisation and fsync do the work, dedup and codec none",
	"sparse_xor_mem":          "1 of 18 layers changes, xor dedup on a free backend under a 4-shard hub: hashing, codec and journal are the whole cost",
	"sparse_lazy_objstore":    "same change-set, lazy capture on a 200us/request object store: time is requests x latency, and stall differs from save",
	"parity_merge_reshard_os": "parity partial saves, merge, restore and 4-to-3 reshard on the OS backend: recipe, tailor, reshard and zero do the work",
}

// workload is one of the four closed loops.
type workload interface {
	harness() *harness
	// period is the number of cycles after which the workload repeats
	// itself (1 when every cycle is alike).
	period() int
	// runCycle runs one measured cycle, checks included.
	runCycle(i int)
	// crashCheck runs the untimed crash check armed at fault point k.
	crashCheck(i, k int, torn bool)
	crashPoint() (k int, torn bool)
	// settle finishes set-up after the warm-up cycles.
	settle()
	// finish makes the traced pass's once-per-run measurements.
	finish()
	close()
}

func newWorkload(opts options) (workload, error) {
	if spec, ok := linearSpecs[opts.workload]; ok {
		return newLinear(spec, opts)
	}
	if opts.workload == "parity_merge_reshard_os" {
		return newParity(opts)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", opts.workload, workloadNames)
}

// setUp builds a workload and runs its warm-up cycles: the first save has
// no parent, pools are cold and retention has nothing to retire until the
// keep-last window is full.
func setUp(opts options) (workload, error) {
	w, err := newWorkload(opts)
	if err != nil {
		return nil, err
	}
	warm := warmupCycles
	if opts.quick {
		warm = 1
	}
	for i := 0; i < warm; i++ {
		w.harness().beginCycle(i, false, true)
		w.runCycle(i)
	}
	w.settle()
	return w, nil
}

// result is one run's outcome.
type result struct {
	workload  string
	seed      uint64
	cycles    int
	setups    int
	attempted int
	failed    int
	errs      []string
	endToEnd  map[string]float64
	perLayer  map[string]float64 // nil on untraced runs
	// listing is the on-backend file listing after the last cycle and amps
	// every cycle's write, read and space amplification (fidelity test).
	listing []string
	amps    [][3]float64
}

func (r *result) correct() bool { return r.failed == 0 }

// runWorkload sets the workload up (several times, reporting the median),
// runs the measured loop on the last instance and collects the metrics.
func runWorkload(opts options) (*result, error) {
	var w workload
	var setupS []float64
	var spent time.Duration
	for n := 0; n < opts.setups; n++ {
		if w != nil {
			w.close()
		}
		t0, cpu0 := time.Now(), processCPUNs()
		var err error
		if w, err = setUp(opts); err != nil {
			return nil, err
		}
		d, cpu := time.Since(t0), processCPUNs()-cpu0
		setupS = append(setupS, referenceMs(int64(d), cpu, median(w.harness().factors))/1e3)
		if spent += d; spent > setupBudget {
			break
		}
	}
	defer w.close()
	h := w.harness()

	first := warmupCycles
	start := time.Now()
	i := first
	for {
		// Odd cycles are the traced ones, so a traced run's first measured
		// cycle already records.
		h.beginCycle(i, opts.trace && i%2 == 1, false)
		w.runCycle(i)
		if (i-first)%opts.crashEvery == 0 {
			k, torn := w.crashPoint()
			w.crashCheck(i, k, torn)
		}
		i++
		if opts.cycles > 0 {
			if i-first >= opts.cycles {
				break
			}
		} else if time.Since(start).Seconds() >= opts.seconds {
			break
		}
	}

	res := &result{workload: opts.workload, seed: opts.seed, cycles: i - first, setups: len(setupS),
		listing: treeListing(h.real, ""), amps: h.amps}
	if opts.trace {
		w.finish()
		res.perLayer = perLayerValues(h)
		if opts.traceOut != "" {
			if err := h.tr.writeChromeTrace(opts.traceOut); err != nil {
				return nil, err
			}
		}
	}
	res.endToEnd = endToEndValues(h.untraced, setupS, w.period())
	res.attempted, res.failed, res.errs = h.attempted, h.failed, h.errs
	return res, nil
}

var scratchSeq atomic.Int64

// scratchDir makes a fresh directory under the scratch root for one OS
// backend.
func scratchDir(root string) (string, error) {
	dir := filepath.Join(root, fmt.Sprintf("run-%d-%d", os.Getpid(), scratchSeq.Add(1)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "bench: remove %s: %v\n", dir, err)
	}
}
