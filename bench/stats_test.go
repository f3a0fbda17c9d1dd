package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	cases := []struct {
		name    string
		samples []float64
		p       float64
		want    float64
	}{
		{"empty", nil, 50, 0},
		{"single", []float64{7}, 90, 7},
		{"odd median", []float64{5, 1, 3}, 50, 3},
		{"even median is the mean of the middle two", []float64{4, 1, 3, 2}, 50, 2.5},
		{"p90 interpolates", []float64{1, 2, 3, 4}, 90, 3.7},
		{"p0 is the minimum", []float64{9, 2, 5}, 0, 2},
		{"p100 is the maximum", []float64{9, 2, 5}, 100, 9},
	}
	for _, c := range cases {
		if got := percentile(c.samples, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", c.name, c.samples, c.p, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	percentile(in, 50)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("percentile reordered its input: %v", in)
	}
}

func TestIntervalUnionSelfTimeAndConcurrency(t *testing.T) {
	span := interval{0, 100}
	// Two overlapping children, one disjoint, one hanging over the span's
	// end and one wholly outside it.
	children := []interval{{10, 30}, {20, 50}, {70, 80}, {90, 120}, {130, 140}}

	clipped := clip(span, children)
	if len(clipped) != 4 || clipped[3] != (interval{90, 100}) {
		t.Fatalf("clip = %v", clipped)
	}
	if got := unionNs(clipped); got != 40+10+10 {
		t.Errorf("union = %d, want 60", got)
	}
	if got := sumNs(clipped); got != 20+30+10+10 {
		t.Errorf("sum = %d, want 70", got)
	}
	if got := selfNs(span, children); got != 40 {
		t.Errorf("self = %d, want 40", got)
	}
	if got := concurrency(clipped); math.Abs(got-70.0/60.0) > 1e-12 {
		t.Errorf("concurrency = %v, want %v", got, 70.0/60.0)
	}

	if got := concurrency([]interval{{0, 10}, {10, 25}}); got != 1 {
		t.Errorf("back-to-back children: concurrency = %v, want 1 (serial)", got)
	}
	if got := concurrency([]interval{{0, 10}, {0, 10}}); got != 2 {
		t.Errorf("two children overlapping throughout: concurrency = %v, want 2", got)
	}
	if got := concurrency(nil); got != 0 {
		t.Errorf("no children: concurrency = %v, want 0", got)
	}
	if got := selfNs(span, nil); got != 100 {
		t.Errorf("no children: self = %d, want the whole span", got)
	}
	// A child nested inside another adds nothing to the union.
	if got := unionNs([]interval{{0, 50}, {10, 20}}); got != 50 {
		t.Errorf("nested child: union = %d, want 50", got)
	}
}

func TestCountMetric(t *testing.T) {
	for name, want := range map[string]bool{
		"write_amp": true, "read_amp": true, "space_amp": true,
		"storage.puts_per_save": true, "storage.gets_per_recover": true, "storage.lists_per_cycle": true,
		"storage.write_mb_per_s": false, "save_ms_p50": false, "ckpt.commit_ops": false,
	} {
		if got := countMetric(name); got != want {
			t.Errorf("countMetric(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestReferenceMs(t *testing.T) {
	const ms = int64(msNs)
	cases := []struct {
		name         string
		wallNs, cpu  int64
		factor, want float64
	}{
		{"quiet machine: unchanged", 100 * ms, 100 * ms, 1, 100},
		{"CPU-bound call on a machine 25% slow", 125 * ms, 125 * ms, 1.25, 100},
		{"idle call (sleep, fsync) is left as measured", 100 * ms, 0, 1.25, 100},
		{"half busy: only the busy half scales", 100 * ms, 50 * ms, 2, 75},
		{"parallel call: the busy share is capped at the wall time", 100 * ms, 180 * ms, 2, 50},
		{"no factor measured: unchanged", 100 * ms, 100 * ms, 0, 100},
	}
	for _, c := range cases {
		if got := referenceMs(c.wallNs, c.cpu, c.factor); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: referenceMs = %v, want %v", c.name, got, c.want)
		}
	}
}
