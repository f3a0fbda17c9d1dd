package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBF16KnownValues(t *testing.T) {
	cases := []struct {
		in   float32
		want float32
	}{
		{0, 0},
		{1, 1},
		{-1, -1},
		{0.5, 0.5},
		{2, 2},
		{-0.25, -0.25},
		{65504, 65536}, // rounds up to next bf16
		{1.0 / 3.0, 0.33398438},
	}
	for _, c := range cases {
		got := BF16ToF32(F32ToBF16(c.in))
		if got != c.want {
			t.Errorf("BF16 roundtrip(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestF16KnownValues(t *testing.T) {
	cases := []struct {
		in   float32
		bits uint16
	}{
		{0, 0x0000},
		{1, 0x3C00},
		{-1, 0xBC00},
		{0.5, 0x3800},
		{2, 0x4000},
		{65504, 0x7BFF},                // max finite f16
		{float32(math.Inf(1)), 0x7C00}, // +Inf
		{float32(math.Inf(-1)), 0xFC00},
		{5.960464477539063e-08, 0x0001}, // min subnormal
		{6.097555160522461e-05, 0x03FF}, // max subnormal
		{6.103515625e-05, 0x0400},       // min normal
	}
	for _, c := range cases {
		got := f32ToF16(c.in)
		if got != c.bits {
			t.Errorf("f32ToF16(%v) = %#04x, want %#04x", c.in, got, c.bits)
		}
		back := f16ToF32(c.bits)
		if back != c.in {
			t.Errorf("f16ToF32(%#04x) = %v, want %v", c.bits, back, c.in)
		}
	}
}

func TestF16Overflow(t *testing.T) {
	if got := f32ToF16(1e9); got != 0x7C00 {
		t.Errorf("f32ToF16(1e9) = %#04x, want +Inf", got)
	}
	if got := f32ToF16(-1e9); got != 0xFC00 {
		t.Errorf("f32ToF16(-1e9) = %#04x, want -Inf", got)
	}
	if got := f32ToF16(1e-10); got != 0x0000 {
		t.Errorf("f32ToF16(1e-10) = %#04x, want +0", got)
	}
}

func TestF16NaN(t *testing.T) {
	n := f32ToF16(float32(math.NaN()))
	if n&0x7C00 != 0x7C00 || n&0x03FF == 0 {
		t.Errorf("f32ToF16(NaN) = %#04x is not a NaN", n)
	}
	back := f16ToF32(n)
	if !math.IsNaN(float64(back)) {
		t.Errorf("f16ToF32(NaN bits) = %v, want NaN", back)
	}
}

func TestBF16NaN(t *testing.T) {
	n := F32ToBF16(float32(math.NaN()))
	f := BF16ToF32(n)
	if !math.IsNaN(float64(f)) {
		t.Errorf("BF16 NaN roundtrip = %v, want NaN", f)
	}
}

// Property: every representable bf16 value round-trips exactly through f32.
func TestBF16ExactRoundtripAll(t *testing.T) {
	for u := 0; u <= 0xFFFF; u++ {
		h := uint16(u)
		f := BF16ToF32(h)
		if math.IsNaN(float64(f)) {
			continue // NaN payloads may be quietened
		}
		if got := F32ToBF16(f); got != h {
			t.Fatalf("bf16 %#04x -> %v -> %#04x", h, f, got)
		}
	}
}

// Property: every representable f16 value round-trips exactly through f32.
func TestF16ExactRoundtripAll(t *testing.T) {
	for u := 0; u <= 0xFFFF; u++ {
		h := uint16(u)
		f := f16ToF32(h)
		if math.IsNaN(float64(f)) {
			continue
		}
		if got := f32ToF16(f); got != h {
			t.Fatalf("f16 %#04x -> %v -> %#04x", h, f, got)
		}
	}
}

// Property: conversion error of f32 -> bf16 is bounded by half a ULP of the
// 8-bit mantissa (relative error <= 2^-8 for normal values).
func TestBF16RelativeErrorBound(t *testing.T) {
	f := func(v float32) bool {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return true
		}
		if v != 0 && math.Abs(float64(v)) < 1e-30 {
			return true // near-subnormal range, absolute error dominates
		}
		got := BF16ToF32(F32ToBF16(v))
		if math.IsInf(float64(got), 0) {
			// Overflowed to Inf: only allowed very near f32 max.
			return math.Abs(float64(v)) > 3.3e38
		}
		if v == 0 {
			return got == 0
		}
		rel := math.Abs(float64(got)-float64(v)) / math.Abs(float64(v))
		return rel <= 1.0/256.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// Property: f16 conversion is monotonic on a dense sample of the
// representable range.
func TestF16Monotonic(t *testing.T) {
	prev := f16ToF32(0xFBFF) // most negative finite
	for u := 0x0000; u <= 0x7BFF; u++ {
		f := f16ToF32(uint16(u))
		if u > 0 && f <= prev {
			t.Fatalf("f16 not monotonic at %#04x: %v <= %v", u, f, prev)
		}
		prev = f
	}
}

// Property: rounding is to nearest — the roundtripped value is never further
// from the input than the neighbouring representable value.
func TestF16NearestRounding(t *testing.T) {
	f := func(v float32) bool {
		av := math.Abs(float64(v))
		if math.IsNaN(float64(v)) || av > 65504 || (av != 0 && av < 6.0e-8) {
			return true
		}
		h := f32ToF16(v)
		got := f16ToF32(h)
		// The error must be at most the gap to the next representable value.
		up := f16ToF32(h + 1)
		gap := math.Abs(float64(up) - float64(got))
		if gap == 0 || math.IsInf(float64(up), 0) {
			return true
		}
		return math.Abs(float64(got)-float64(v)) <= gap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeDispatch(t *testing.T) {
	if got := decodeF32(F16, encodeF32(F16, 1.5)); got != 1.5 {
		t.Errorf("f16 dispatch roundtrip = %v", got)
	}
	if got := decodeF32(BF16, encodeF32(BF16, 1.5)); got != 1.5 {
		t.Errorf("bf16 dispatch roundtrip = %v", got)
	}
}

func BenchmarkF32ToBF16(b *testing.B) {
	v := float32(1.2345)
	for i := 0; i < b.N; i++ {
		v = BF16ToF32(F32ToBF16(v))
	}
	_ = v
}

func BenchmarkF32ToF16(b *testing.B) {
	v := float32(1.2345)
	for i := 0; i < b.N; i++ {
		v = f16ToF32(f32ToF16(v))
	}
	_ = v
}
