package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of samples by linear
// interpolation between the two nearest ranks, so the median of an even
// count is the mean of the two middle values. An empty slice yields 0.
func percentile(samples []float64, p float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo = 0
	}
	if hi >= n {
		hi = n - 1
	}
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

func median(samples []float64) float64 { return percentile(samples, 50) }

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// interval is a half-open [start, end) span of nanoseconds on the tracer's
// clock.
type interval struct{ start, end int64 }

// unionNs returns the total time covered by at least one interval.
func unionNs(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	curStart, curEnd := s[0].start, s[0].end
	for _, iv := range s[1:] {
		if iv.start > curEnd {
			total += curEnd - curStart
			curStart, curEnd = iv.start, iv.end
			continue
		}
		if iv.end > curEnd {
			curEnd = iv.end
		}
	}
	return total + curEnd - curStart
}

// sumNs returns the summed duration of the intervals.
func sumNs(ivs []interval) int64 {
	var total int64
	for _, iv := range ivs {
		total += iv.end - iv.start
	}
	return total
}

// selfNs is a span's self time: its duration minus the part its child
// intervals cover. Children are clipped to the span first.
func selfNs(span interval, children []interval) int64 {
	return (span.end - span.start) - unionNs(clip(span, children))
}

// concurrency is summed child time over the time at least one child was
// running: 1.0 means the children ran one after another, 2.0 that two
// overlapped throughout. No children yields 0.
func concurrency(children []interval) float64 {
	u := unionNs(children)
	if u == 0 {
		return 0
	}
	return float64(sumNs(children)) / float64(u)
}

func clip(span interval, children []interval) []interval {
	out := make([]interval, 0, len(children))
	for _, c := range children {
		if c.end <= span.start || c.start >= span.end {
			continue
		}
		if c.start < span.start {
			c.start = span.start
		}
		if c.end > span.end {
			c.end = span.end
		}
		out = append(out, c)
	}
	return out
}

const (
	mb   = 1e6
	msNs = 1e6
)

func nsToMs(ns int64) float64 { return float64(ns) / msNs }

// ratio returns a/b, or 0 when b is 0 (a metric nothing contributed to).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
