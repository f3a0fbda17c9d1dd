// Command bench is the repository's lifecycle benchmark: four closed-loop
// workloads that each run save → retain → recover cycles against the public
// functions of internal/..., verify every recovered state bit for bit, and
// report end-to-end metrics (untraced pass) or per-layer metrics (traced
// pass). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		opts      options
		trace     int
		seed      int64
		selfcheck bool
		describe  bool
	)
	flag.StringVar(&opts.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&seed, "seed", 1, "seed for model init, gradients, hot layers and crash points")
	flag.Float64Var(&opts.seconds, "seconds", 10, "how long the measured loop runs")
	flag.IntVar(&opts.cycles, "cycles", 0, "run exactly this many measured cycles instead of -seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced pass (per-layer metrics), 0 = untraced pass (end-to-end metrics)")
	flag.StringVar(&opts.traceOut, "trace-out", "", "write the traced pass's chrome trace to this file")
	flag.BoolVar(&opts.quick, "quick", false, "tiny model, 2 cycles per workload: a smoke run of the whole harness")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run each workload twice with one seed and compare the two runs")
	flag.StringVar(&opts.scratch, "scratch", filepath.Join(os.TempDir(), "llmtailor-bench"), "directory OS backends are created under")
	flag.BoolVar(&describe, "describe", false, "print BENCHMARK.json from the metric tables and exit")
	flag.Parse()
	if describe {
		fmt.Println(benchmarkJSON())
		return
	}
	opts.seed, opts.trace, opts.crashEvery, opts.setups = uint64(seed), trace != 0, 10, 3
	if opts.quick {
		opts.cycles, opts.setups = 2, 1
	}

	names := []string{opts.workload}
	if opts.workload == "all" {
		names = workloadNames
	}
	ok := true
	for _, name := range names {
		o := opts
		o.workload = name
		if opts.traceOut != "" && len(names) > 1 {
			o.traceOut = opts.traceOut + "." + name
		}
		var good bool
		var err error
		if selfcheck {
			good, err = runSelfcheck(o)
		} else {
			good, err = runAndPrint(o)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			os.Exit(2)
		}
		ok = ok && good
	}
	if !ok {
		os.Exit(1)
	}
}

// runAndPrint runs one workload, prints every metric by name and unit and,
// as the last line, the result object the driver reads.
func runAndPrint(opts options) (bool, error) {
	res, err := runWorkload(opts)
	if err != nil {
		return false, err
	}
	fmt.Printf("workload %s seed %d cycles %d setups %d\n", res.workload, res.seed, res.cycles, res.setups)
	defs, values := endToEnd, res.endToEnd
	if opts.trace {
		defs, values = perLayer, res.perLayer
	}
	for _, d := range defs {
		fmt.Printf("  %-32s %14.4f %s\n", d.name, values[d.name], d.unit)
	}
	for _, e := range res.errs {
		fmt.Printf("  FAILED %s\n", e)
	}
	fmt.Println(resultJSON(res, defs, values))
	return res.correct(), nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON renders the one-line result object of the benchmark contract.
func resultJSON(res *result, defs []metricDef, values map[string]float64) string {
	metrics := map[string]metricValue{}
	for _, d := range defs {
		metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	out, err := json.Marshal(map[string]any{
		"correct": res.correct(), "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(out)
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 20

// benchmarkJSON renders BENCHMARK.json from the workload and metric tables,
// so the file and the program cannot drift apart.
func benchmarkJSON() string {
	type workloadRow struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type boundedRow struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerRow struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadRow `json:"workloads"`
		EndToEnd   []boundedRow  `json:"end_to_end"`
		PerLayer   []layerRow    `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, n := range workloadNames {
		doc.Workloads = append(doc.Workloads, workloadRow{n, workloadWhy[n]})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, boundedRow{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerRow{d.name, d.unit, d.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always marshal
	}
	return string(out)
}
