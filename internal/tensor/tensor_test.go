package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDTypeSizes(t *testing.T) {
	if F32.Size() != 4 || F16.Size() != 2 || BF16.Size() != 2 {
		t.Fatalf("dtype sizes wrong: %d %d %d", F32.Size(), F16.Size(), BF16.Size())
	}
}

func TestParseDType(t *testing.T) {
	for _, d := range []DType{F32, F16, BF16} {
		got, err := ParseDType(d.String())
		if err != nil || got != d {
			t.Errorf("ParseDType(%q) = %v, %v", d.String(), got, err)
		}
	}
	if _, err := ParseDType("int8"); err == nil {
		t.Error("ParseDType(int8) should fail")
	}
	for in, want := range map[string]DType{"fp16": F16, "bf16": BF16, "fp32": F32, "half": F16} {
		got, err := ParseDType(in)
		if err != nil || got != want {
			t.Errorf("ParseDType(%q) = %v, %v", in, got, err)
		}
	}
}

func TestNewAndAccessors(t *testing.T) {
	ts := New("w", F32, 3, 4)
	if ts.Len() != 12 || ts.Bytes() != 48 {
		t.Fatalf("len=%d bytes=%d", ts.Len(), ts.Bytes())
	}
	ts.Set(5, 2.5)
	if ts.At(5) != 2.5 {
		t.Fatalf("At(5) = %v", ts.At(5))
	}

	th := New("h", BF16, 2, 2)
	if th.Bytes() != 8 {
		t.Fatalf("bf16 bytes = %d", th.Bytes())
	}
	th.Set(0, 1.5)
	if th.At(0) != 1.5 {
		t.Fatalf("bf16 At = %v", th.At(0))
	}
}

func TestNumElemsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero dim")
		}
	}()
	numElems([]int{3, 0})
}

func TestCloneIndependence(t *testing.T) {
	a := New("a", F32, 4)
	a.Fill(1)
	b := a.Clone("b")
	b.Set(0, 9)
	if a.At(0) != 1 {
		t.Fatal("clone shares storage")
	}
	if b.Name != "b" {
		t.Fatalf("clone name = %q", b.Name)
	}
	c := a.Clone("")
	if c.Name != "a" {
		t.Fatalf("clone default name = %q", c.Name)
	}
}

func TestConvert(t *testing.T) {
	a := New("a", F32, 8)
	rng := NewRNG(7)
	a.FillRandN(rng, 1)
	h := a.Convert(BF16)
	if h.DType != BF16 || h.Len() != 8 {
		t.Fatal("convert metadata wrong")
	}
	for i := 0; i < 8; i++ {
		want := BF16ToF32(F32ToBF16(a.At(i)))
		if h.At(i) != want {
			t.Fatalf("convert[%d] = %v, want %v", i, h.At(i), want)
		}
	}
	back := h.Convert(F32)
	if back.DType != F32 {
		t.Fatal("convert back dtype")
	}
}

func TestCopyFromF32RoundsToDtype(t *testing.T) {
	h := New("h", BF16, 2)
	h.CopyFromF32([]float32{1.0 / 3.0, 2})
	if h.At(0) != BF16ToF32(F32ToBF16(1.0/3.0)) {
		t.Fatalf("copy did not round: %v", h.At(0))
	}
}

func TestEncodeDecodeRoundtripF32(t *testing.T) {
	a := New("a", F32, 17)
	a.FillRandN(NewRNG(3), 2)
	buf := a.Encode(nil)
	b := New("a", F32, 17)
	if err := b.Decode(buf); err != nil {
		t.Fatal(err)
	}
	if !Equal(a, b) {
		t.Fatal("f32 roundtrip mismatch")
	}
}

func TestEncodeDecodeRoundtripHalf(t *testing.T) {
	for _, d := range []DType{F16, BF16} {
		a := New("a", d, 9)
		a.FillRandN(NewRNG(4), 0.5)
		buf := a.Encode(nil)
		if int64(len(buf)) != a.Bytes() {
			t.Fatalf("%s encode length %d", d, len(buf))
		}
		b := New("a", d, 9)
		if err := b.Decode(buf); err != nil {
			t.Fatal(err)
		}
		if !Equal(a, b) {
			t.Fatalf("%s roundtrip mismatch", d)
		}
	}
}

func TestDecodeLengthMismatch(t *testing.T) {
	a := New("a", F32, 4)
	if err := a.Decode(make([]byte, 15)); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestChecksumDetectsChange(t *testing.T) {
	a := New("a", F32, 32)
	a.FillRandN(NewRNG(5), 1)
	c1 := a.Checksum()
	a.Set(7, a.At(7)+1)
	if a.Checksum() == c1 {
		t.Fatal("checksum did not change")
	}
}

func TestEqual(t *testing.T) {
	a := New("a", F32, 2, 3)
	b := New("a", F32, 2, 3)
	if !Equal(a, b) {
		t.Fatal("zero tensors should be equal")
	}
	b.Set(0, 1)
	if Equal(a, b) {
		t.Fatal("different data should differ")
	}
	c := New("c", F32, 2, 3)
	if Equal(a, c) {
		t.Fatal("different names should differ")
	}
	d := New("a", F32, 3, 2)
	if Equal(a, d) {
		t.Fatal("different shapes should differ")
	}
	e := New("a", BF16, 2, 3)
	if Equal(a, e) {
		t.Fatal("different dtypes should differ")
	}
}

func TestL2(t *testing.T) {
	a := New("a", F32, 3)
	a.CopyFromF32([]float32{3, 0, 0})
	if got := a.L2Norm(); math.Abs(got-3) > 1e-9 {
		t.Fatalf("L2Norm = %v", got)
	}
}

// Property: Encode/Decode round-trips arbitrary payload bit patterns.
func TestEncodeDecodeQuick(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			vals = []float32{0}
		}
		a := New("q", F32, len(vals))
		copy(a.f32, vals)
		b := New("q", F32, len(vals))
		if err := b.Decode(a.Encode(nil)); err != nil {
			return false
		}
		for i := range vals {
			if math.Float32bits(a.f32[i]) != math.Float32bits(b.f32[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNamedRNGDeterminism(t *testing.T) {
	a := NewNamedRNG(42, "model.layers.0.self_attn.q_proj.weight")
	b := NewNamedRNG(42, "model.layers.0.self_attn.q_proj.weight")
	c := NewNamedRNG(42, "model.layers.1.self_attn.q_proj.weight")
	for i := 0; i < 100; i++ {
		av, bv := a.Uint64(), b.Uint64()
		if av != bv {
			t.Fatal("same (seed, name) diverged")
		}
		if av == c.Uint64() && i > 3 {
			t.Fatal("different names should produce different streams")
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(99)
	n := 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v", variance)
	}
}

func TestRNGUniformRange(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %v", v)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}
