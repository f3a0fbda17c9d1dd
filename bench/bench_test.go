package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func quickOptions(t *testing.T, workload string, seed uint64, trace bool) options {
	t.Helper()
	return options{workload: workload, seed: seed, cycles: 2, setups: 1, quick: true, trace: trace,
		scratch: t.TempDir(), crashEvery: 10}
}

// TestQuickMode runs what `-quick` runs: all four workloads on the tiny
// model, two cycles each with the crash check, untraced and traced. Every
// check must pass, every metric of both tables must be reported, and no
// end-to-end metric may read 0.
func TestQuickMode(t *testing.T) {
	start := time.Now()
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(quickOptions(t, name, 1, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.correct() || res.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", name, trace, res.failed, res.attempted, res.errs)
			}
			if res.cycles != 2 {
				t.Errorf("%s: ran %d cycles, want 2", name, res.cycles)
			}
			for _, d := range endToEnd {
				if v, ok := res.endToEnd[d.name]; !ok || v <= 0 {
					t.Errorf("%s trace=%v: end-to-end metric %s = %v", name, trace, d.name, v)
				}
			}
			if !trace {
				continue
			}
			for _, d := range perLayer {
				if _, ok := res.perLayer[d.name]; !ok {
					t.Errorf("%s: per-layer metric %s is not reported", name, d.name)
				}
			}
			for k := range res.perLayer {
				if !hasMetric(perLayer, k) {
					t.Errorf("%s: reported metric %s is not in the per-layer table", name, k)
				}
			}
			checkLayerSplit(t, name, res.perLayer)
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("quick mode took %v, want under 10s", d)
	}
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// checkLayerSplit asserts the parts of the issue's layer split that hold at
// any model size.
func checkLayerSplit(t *testing.T, name string, m map[string]float64) {
	t.Helper()
	if m["storage.other_class_frac"] > 0.01 {
		t.Errorf("%s: %.1f%% of ops fall in no key class", name, 100*m["storage.other_class_frac"])
	}
	if m["storage.op_errors"] != 0 {
		t.Errorf("%s: %v backend ops failed", name, m["storage.op_errors"])
	}
	parityOnly := []string{"tailor.merge_ms_p50", "tailor.merge_self_ms_p50", "tailor.shard_file_loads",
		"reshard.reshard_ms_p50", "reshard.self_ms_p50", "recipe.from_manifests_ms_p50"}
	for _, k := range parityOnly {
		if on := name == "parity_merge_reshard_os"; (m[k] != 0) != on {
			t.Errorf("%s: %s = %v", name, k, m[k])
		}
	}
	switch name {
	case "dense_plain_os":
		if m["storage.blob_puts_per_save"] != 0 || m["ckpt.journal_ops"] != 0 {
			t.Errorf("plain save touched the CAS: %v blob puts, %v journal ops",
				m["storage.blob_puts_per_save"], m["ckpt.journal_ops"])
		}
	case "sparse_xor_mem":
		if m["ckpt.codec_xor_entry_frac"] <= 0 || m["hub.peer_shared_ratio"] <= 0 || m["storage.dedup_hit_frac"] <= 0 {
			t.Errorf("xor hub workload: xor frac %v, peer shared %v, dedup hits %v",
				m["ckpt.codec_xor_entry_frac"], m["hub.peer_shared_ratio"], m["storage.dedup_hit_frac"])
		}
	case "sparse_lazy_objstore":
		if m["storage.renames_per_save"] != 0 || m["ckpt.capture_layers_reused"] <= 0 {
			t.Errorf("lazy object-store workload: %v renames, %v layers reused",
				m["storage.renames_per_save"], m["ckpt.capture_layers_reused"])
		}
	}
}

// TestTracedPassMeasuresTheSameProgram is the decorator-fidelity check: a
// traced and an untraced run of one seed see the same amplification on
// every cycle and leave the same files behind.
func TestTracedPassMeasuresTheSameProgram(t *testing.T) {
	for _, name := range workloadNames {
		opts := quickOptions(t, name, 7, false)
		opts.cycles = 4
		plain, err := runWorkload(opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.trace = true
		traced, err := runWorkload(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !plain.correct() || !traced.correct() {
			t.Fatalf("%s: checks failed: %v %v", name, plain.errs, traced.errs)
		}
		if len(plain.amps) != 4 || !reflect.DeepEqual(plain.amps, traced.amps) {
			t.Errorf("%s: write/read/space amplification per cycle differs:\nuntraced %v\ntraced   %v",
				name, plain.amps, traced.amps)
		}
		if len(plain.listing) == 0 || !reflect.DeepEqual(plain.listing, traced.listing) {
			t.Errorf("%s: on-backend listings differ:\nuntraced %v\ntraced   %v", name, plain.listing, traced.listing)
		}
	}
}

// TestCrashCheckAtEveryFaultPoint arms every fault point of a save in turn
// (clean, and torn at every third), on every workload: whatever the point,
// before or after the commit, recovery must return the previous or the new
// state, Repair must leave the scan clean, and the next cycle must carry on
// from whichever state was recovered.
func TestCrashCheckAtEveryFaultPoint(t *testing.T) {
	for _, name := range workloadNames {
		start := time.Now()
		w, err := setUp(quickOptions(t, name, 1, false))
		if err != nil {
			t.Fatal(err)
		}
		var points int
		switch x := w.(type) {
		case *linear:
			points = x.faultPoints
		case *parity:
			points = x.faultPoints
		}
		if points < 10 {
			t.Fatalf("%s: a save has %d fault points", name, points)
		}
		h := w.harness()
		i := warmupCycles
		for k := 1; k <= points; k++ {
			for _, torn := range []bool{false, true} {
				if torn && k%3 != 0 {
					continue
				}
				h.beginCycle(i, false, false)
				w.runCycle(i)
				w.crashCheck(i, k, torn)
				i++
				if h.failed > 0 {
					t.Fatalf("%s: fault point %d of %d (torn=%v): %v", name, k, points, torn, h.errs)
				}
			}
		}
		h.beginCycle(i, false, false)
		w.runCycle(i)
		if h.failed > 0 {
			t.Fatalf("%s: the cycle after the last crash check: %v", name, h.errs)
		}
		w.close()
		t.Logf("%s: %d fault points in %v", name, points, time.Since(start))
	}
}

// TestSeedMovesLayersNotCounts: another seed trains other layers and
// crashes elsewhere, and leaves the count-type metrics within 1%.
func TestSeedMovesLayersNotCounts(t *testing.T) {
	for _, name := range workloadNames {
		opts := quickOptions(t, name, 1, false)
		opts.cycles = 4
		a, err := runWorkload(opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.seed = 2
		b, err := runWorkload(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"write_amp", "read_amp", "space_amp"} {
			x, y := a.endToEnd[k], b.endToEnd[k]
			if x <= 0 || y < 0.99*x || y > 1.01*x {
				t.Errorf("%s: %s = %v with seed 1, %v with seed 2", name, k, x, y)
			}
		}
	}
	if reflect.DeepEqual(pickHotLayers(fullScale(), 1), pickHotLayers(fullScale(), 2)) {
		t.Error("seeds 1 and 2 train the same layers")
	}
}

// TestBenchmarkJSON keeps ../BENCHMARK.json equal to what the metric and
// workload tables generate (`bench -describe`).
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var have, want any
	if err := json.Unmarshal(raw, &have); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(benchmarkJSON()), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(have, want) {
		t.Error("BENCHMARK.json differs from the tables; regenerate it with `go run . -describe > ../BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %s is listed twice", d.name)
		}
		seen[d.name] = true
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's limits", len(perLayer), len(endToEnd))
	}
}
