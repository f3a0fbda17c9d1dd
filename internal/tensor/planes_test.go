package tensor

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func TestPlaneRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, width := range []int{1, 2, 4, 12} {
		for _, n := range []int{0, 1, 2, 3, 7, 8, 64, 65, 4096, 4097} {
			src := make([]byte, n)
			rng.Read(src)
			split := make([]byte, n)
			SplitPlanes(split, src, width)
			sum := 0
			for p := 0; p < width; p++ {
				sum += PlaneLen(n, width, p)
			}
			if sum != n {
				t.Fatalf("width=%d n=%d: plane lengths sum to %d", width, n, sum)
			}
			join := make([]byte, n)
			joinPlanes(join, split, width)
			if !bytes.Equal(join, src) {
				t.Fatalf("width=%d n=%d: join(split(x)) != x", width, n)
			}
		}
	}
}

func TestPlaneGroupsBytes(t *testing.T) {
	// Two-byte elements with a constant high byte: the second plane must be
	// one solid run.
	src := make([]byte, 64)
	for i := 0; i < len(src); i += 2 {
		src[i] = byte(i)
		src[i+1] = 0x3f
	}
	split := make([]byte, len(src))
	SplitPlanes(split, src, 2)
	for _, b := range split[32:] {
		if b != 0x3f {
			t.Fatalf("high plane not contiguous: %x", split)
		}
	}
}

func TestXORBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 7, 8, 9, 1023} {
		a := make([]byte, n)
		b := make([]byte, n)
		rng.Read(a)
		rng.Read(b)
		d := make([]byte, n)
		XORBytes(d, a, b)
		back := make([]byte, n)
		XORBytes(back, d, b)
		if !bytes.Equal(back, a) {
			t.Fatalf("n=%d: xor not involutive", n)
		}
	}
}

func TestRLERoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := [][]byte{
		nil,
		{0},
		bytes.Repeat([]byte{0}, 1000),
		bytes.Repeat([]byte{0xab}, 3), // below the repeat threshold
		[]byte("abcabcabc"),
	}
	noise := make([]byte, 2048)
	rng.Read(noise)
	cases = append(cases, noise)
	sparse := make([]byte, 4096)
	for i := 0; i < len(sparse); i += 97 {
		sparse[i] = byte(i)
	}
	cases = append(cases, sparse)
	for i, src := range cases {
		enc := AppendRLE(nil, src)
		dst := make([]byte, len(src))
		if err := DecodeRLE(dst, enc, false); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !bytes.Equal(dst, src) {
			t.Fatalf("case %d: roundtrip mismatch", i)
		}
	}
	// The sparse delta-like case is the one that must actually compress.
	if enc := AppendRLE(nil, sparse); len(enc)*3 > len(sparse) {
		t.Fatalf("sparse input encoded to %d of %d bytes", len(enc), len(sparse))
	}
}

func TestRLEDecodeRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"zero run":          {0x00},
		"zero repeat":       {0x01, 0xff},
		"truncated varint":  {0x80},
		"truncated literal": {0x08, 0x01}, // 4-byte literal, 1 byte present
		"truncated repeat":  {0x09},
		"run past output":   {0xff, 0x01, 0xaa}, // repeat 127 into 8 bytes
		"short stream":      {0x02, 0xaa},       // 1 literal byte, 8 expected
	}
	for name, src := range cases {
		dst := make([]byte, 8)
		if err := DecodeRLE(dst, src, false); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
	// Exact fill must still succeed.
	if err := DecodeRLE(make([]byte, 4), []byte{0x09, 0xaa}, false); err != nil {
		t.Fatalf("valid repeat rejected: %v", err)
	}
}

// TestPlaneKernels: JoinPlanes interleaves what SplitPlanes split, for every
// width and for lengths that are not a multiple of it, and DecodeRLE writes a
// plane's bytes over a buffer or XORs them into it; an RLE stream that
// overruns its plane errors.
func TestPlaneKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, width := range []int{1, 2, 3, 4, 8, 12} {
		for _, n := range []int{0, 1, 7, 31, 32, 33, 64, 4097} {
			src, base := make([]byte, n), make([]byte, n)
			for i := range src {
				if rng.Intn(3) == 0 {
					src[i] = byte(rng.Intn(256))
				}
			}
			rng.Read(base)
			split := make([]byte, n)
			SplitPlanes(split, src, width)
			viaRLE, viaXOR := make([]byte, n), append([]byte(nil), split...)
			var planes [][]byte
			off := 0
			for p := 0; p < width; p++ {
				plane := split[off : off+PlaneLen(n, width, p)]
				enc := AppendRLE(nil, plane)
				if err := DecodeRLE(viaRLE[off:off+len(plane)], enc, false); err != nil {
					t.Fatalf("width=%d n=%d plane %d: %v", width, n, p, err)
				}
				if err := DecodeRLE(viaXOR[off:off+len(plane)], enc, true); err != nil {
					t.Fatalf("width=%d n=%d plane %d: %v", width, n, p, err)
				}
				planes = append(planes, viaRLE[off:off+len(plane)])
				off += len(plane)
			}
			joined := append([]byte(nil), base...)
			JoinPlanes(joined, planes)
			if !bytes.Equal(joined, src) || !bytes.Equal(viaRLE, split) {
				t.Fatalf("width=%d n=%d: decoded and joined planes differ from src", width, n)
			}
			if !bytes.Equal(viaXOR, make([]byte, n)) {
				t.Fatalf("width=%d n=%d: a plane XORed into itself is not zero", width, n)
			}
		}
	}
	// Plane 1 of 8 two-byte-wide bytes holds 4: a 5-byte repeat overruns it.
	if err := DecodeRLE(make([]byte, 4), []byte{0x0b, 0xaa}, true); err == nil {
		t.Fatal("a run past the plane was accepted")
	}
}

// BenchmarkJoinPlanes times the join of one 256 KiB chunk at the codec's
// widths.
func BenchmarkJoinPlanes(b *testing.B) {
	const n = 256 << 10
	for _, width := range []int{2, 4} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			src, dst := make([]byte, n), make([]byte, n)
			planes := make([][]byte, width)
			for p, off := 0, 0; p < width; p++ {
				planes[p] = src[off : off+PlaneLen(n, width, p)]
				off += len(planes[p])
			}
			b.SetBytes(n)
			for i := 0; i < b.N; i++ {
				JoinPlanes(dst, planes)
			}
		})
	}
}

// joinPlanes is the inverse of SplitPlanes: src is plane-major, dst receives
// the original element-interleaved bytes. dst must be exactly len(src) bytes.
func joinPlanes(dst, src []byte, width int) {
	if len(dst) != len(src) {
		panic("tensor: joinPlanes length mismatch")
	}
	if width <= 1 {
		copy(dst, src)
		return
	}
	k := 0
	for p := 0; p < width; p++ {
		for i := p; i < len(dst); i += width {
			dst[i] = src[k]
			k++
		}
	}
}
