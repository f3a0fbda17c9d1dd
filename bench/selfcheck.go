package main

import (
	"fmt"
	"math"
	"strings"
)

// selfcheckCycles is the fixed cycle count selfcheck runs when -cycles is
// not given: count-type metrics can only repeat exactly at equal counts.
const selfcheckCycles = 20

// countMetric reports whether a metric is a count the program makes, which
// two runs of one seed must reproduce exactly.
func countMetric(name string) bool {
	switch name {
	case "write_amp", "read_amp", "space_amp":
		return true
	}
	return strings.HasPrefix(name, "storage.") && strings.Contains(name, "_per_") &&
		!strings.HasSuffix(name, "_mb_per_s")
}

// runSelfcheck runs the workload twice untraced and twice traced with one
// seed, prints the spread of every metric, and fails unless count-type
// metrics agree exactly and every bounded metric agrees within its bound.
func runSelfcheck(opts options) (bool, error) {
	if opts.cycles == 0 {
		opts.cycles = selfcheckCycles
	}
	ok := true
	for _, traced := range []bool{false, true} {
		o := opts
		o.trace = traced
		a, err := runWorkload(o)
		if err != nil {
			return false, err
		}
		b, err := runWorkload(o)
		if err != nil {
			return false, err
		}
		defs, va, vb := endToEnd, a.endToEnd, b.endToEnd
		if traced {
			defs, va, vb = perLayer, a.perLayer, b.perLayer
		}
		fmt.Printf("selfcheck %s seed %d cycles %d traced=%v\n", o.workload, o.seed, o.cycles, traced)
		for _, d := range defs {
			x, y := va[d.name], vb[d.name]
			spread := 0.0
			if x != 0 || y != 0 {
				spread = math.Abs(y-x) / math.Max(math.Abs(x), math.Abs(y))
			}
			verdict := "ok"
			switch {
			case countMetric(d.name) && x != y:
				verdict = "FAIL (count differs)"
			case d.bound > 0 && spread > d.bound:
				verdict = fmt.Sprintf("FAIL (bound %.0f%%)", 100*d.bound)
			}
			if verdict != "ok" {
				ok = false
			}
			fmt.Printf("  %-32s %14.4f %14.4f %-6s spread %6.2f%%  %s\n", d.name, x, y, d.unit, 100*spread, verdict)
		}
		if !a.correct() || !b.correct() {
			ok = false
			for _, e := range append(a.errs, b.errs...) {
				fmt.Printf("  FAILED %s\n", e)
			}
		}
	}
	return ok, nil
}
