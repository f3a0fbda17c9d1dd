package tensor

import (
	"encoding/binary"
	"errors"
)

// Byte-plane kernels for the blob compression codec. A tensor payload is a
// sequence of fixed-width little-endian elements; splitting it into per-byte
// planes groups the sign/exponent bytes (near-constant between adjacent
// checkpoints, and near-zero after XOR against the parent generation) away
// from the noisy mantissa bytes, so a simple run-length coder gets the
// several-fold wins the incremental-snapshots literature reports.
//
// Plane p of an n-byte buffer holds the bytes at indices i with i%width == p,
// in order. Buffers whose length is not a multiple of width are still valid:
// plane p simply holds PlaneLen(n, width, p) bytes. Split and Join are exact
// inverses for every (n, width).

// PlaneLen returns the length of plane p for an n-byte buffer of width-byte
// elements.
func PlaneLen(n, width, p int) int {
	if width <= 1 {
		if p == 0 {
			return n
		}
		return 0
	}
	if p >= n {
		return 0
	}
	return (n - p + width - 1) / width
}

// SplitPlanes rearranges src into plane-major order in dst. dst must be
// exactly len(src) bytes.
func SplitPlanes(dst, src []byte, width int) {
	if len(dst) != len(src) {
		panic("tensor: SplitPlanes length mismatch")
	}
	if width <= 1 {
		copy(dst, src)
		return
	}
	k := 0
	for p := 0; p < width; p++ {
		for i := p; i < len(src); i += width {
			dst[k] = src[i]
			k++
		}
	}
}

// XORBytes writes a XOR b into dst. All three slices must be the same
// length; dst may alias a or b.
func XORBytes(dst, a, b []byte) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("tensor: XORBytes length mismatch")
	}
	i := 0
	// 8-byte lanes cover the bulk; the tail is handled byte-wise.
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(a[i:])^binary.LittleEndian.Uint64(b[i:]))
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] ^ b[i]
	}
}

// The RLE stream is a sequence of ops. Each op starts with a uvarint v
// (v>>1 is the run length n, which must be > 0): bit0 == 0 is a literal run
// (the next n stream bytes are copied verbatim), bit0 == 1 is a repeat run
// (the next single stream byte appears n times). The decoder knows the
// exact output length, so the stream carries no trailer.

// rleRepeatMin is the shortest run worth a repeat op: a repeat costs up to
// 3 bytes (uvarint + value) and breaking a literal adds another header.
const rleRepeatMin = 4

var (
	errRLEVarint    = errors.New("rle: malformed varint")
	errRLEZeroRun   = errors.New("rle: zero-length run")
	errRLEOverflow  = errors.New("rle: run overflows output")
	errRLETruncated = errors.New("rle: truncated stream")
	errRLEShort     = errors.New("rle: stream ends before output is full")
)

// AppendRLE appends the RLE encoding of src to dst and returns the extended
// slice. Encoding never fails; callers compare len(out) against len(src) to
// decide whether coding paid.
func AppendRLE(dst, src []byte) []byte {
	litStart := 0
	i := 0
	for i < len(src) {
		j := i + 1
		for j < len(src) && src[j] == src[i] {
			j++
		}
		if run := j - i; run >= rleRepeatMin {
			if i > litStart {
				dst = binary.AppendUvarint(dst, uint64(i-litStart)<<1)
				dst = append(dst, src[litStart:i]...)
			}
			dst = binary.AppendUvarint(dst, uint64(run)<<1|1)
			dst = append(dst, src[i])
			litStart = j
		}
		i = j
	}
	if litStart < len(src) {
		dst = binary.AppendUvarint(dst, uint64(len(src)-litStart)<<1)
		dst = append(dst, src[litStart:]...)
	}
	return dst
}

// JoinPlanes interleaves plane-major bytes into dst, the inverse of
// SplitPlanes: planes[p] holds plane p of dst's width-len(planes) elements,
// PlaneLen(len(dst), len(planes), p) bytes. Widths 2 and 4 — BF16 and FP32 —
// transpose 8 elements a step in 8-byte lanes.
func JoinPlanes(dst []byte, planes [][]byte) {
	w := len(planes)
	for p, src := range planes {
		if len(src) != PlaneLen(len(dst), w, p) {
			panic("tensor: JoinPlanes length mismatch")
		}
	}
	out := dst // what is left to join in lanes
	switch w {
	case 1:
		copy(dst, planes[0])
		return
	case 2:
		a, b := planes[0], planes[1]
		for len(out) >= 16 && len(a) >= 8 && len(b) >= 8 {
			x, y := swap(le.Uint64(a), le.Uint64(b), 8)
			x, y = swap(x, y, 16)
			x, y = swap(x, y, 32)
			le.PutUint64(out, x)
			le.PutUint64(out[8:], y)
			a, b, out = a[8:], b[8:], out[16:]
		}
	case 4:
		a, b, c, d := planes[0], planes[1], planes[2], planes[3]
		for len(out) >= 32 && len(a) >= 8 && len(b) >= 8 && len(c) >= 8 && len(d) >= 8 {
			x, y := swap(le.Uint64(a), le.Uint64(b), 8)
			u, v := swap(le.Uint64(c), le.Uint64(d), 8)
			x, u = swap(x, u, 16)
			y, v = swap(y, v, 16)
			x, y = swap(x, y, 32)
			u, v = swap(u, v, 32)
			le.PutUint64(out, x)
			le.PutUint64(out[8:], u)
			le.PutUint64(out[16:], y)
			le.PutUint64(out[24:], v)
			a, b, c, d, out = a[8:], b[8:], c[8:], d[8:], out[32:]
		}
	}
	i := (len(dst) - len(out)) / w // elements joined in lanes
	for p, src := range planes {
		for j := i; j < len(src); j++ {
			dst[p+j*w] = src[j]
		}
	}
}

var le = binary.LittleEndian

// swap exchanges the odd s-bit units of x with the even ones of y: one step
// of a transpose. Bytes x0..x7 and y0..y7 come out as x0 y0 x2 y2 … and
// x1 y1 x3 y3 … at s = 8.
func swap(x, y uint64, s uint) (uint64, uint64) {
	m := ^uint64(0) / (1<<s + 1) // the even s-bit units
	t := (x>>s ^ y) & m
	return x ^ t<<s, y ^ t
}

// DecodeRLE decodes the RLE stream src, exactly len(dst) bytes, into dst:
// written over what dst holds, or XORed into it when xor is set. Literal and
// repeat runs move in 8-byte lanes, and a zero repeat run XORs nothing — the
// bulk of an xor delta costs nothing. Malformed input errors, never writing
// outside dst.
func DecodeRLE(dst, src []byte, xor bool) error {
	di, si := 0, 0
	for si < len(src) {
		v, k := binary.Uvarint(src[si:])
		if k <= 0 {
			return errRLEVarint
		}
		si += k
		cnt64 := v >> 1
		if cnt64 == 0 {
			return errRLEZeroRun
		}
		if cnt64 > uint64(len(dst)-di) {
			return errRLEOverflow
		}
		out := dst[di : di+int(cnt64)]
		if v&1 == 1 {
			if si >= len(src) {
				return errRLETruncated
			}
			repeat(out, src[si], xor)
			si++
		} else {
			if len(out) > len(src)-si {
				return errRLETruncated
			}
			if lit := src[si : si+len(out)]; xor {
				XORBytes(out, out, lit)
			} else {
				copy(out, lit)
			}
			si += len(out)
		}
		di += len(out)
	}
	if di != len(dst) {
		return errRLEShort
	}
	return nil
}

// repeat writes b over every byte of out, or XORs it in when xor is set.
func repeat(out []byte, b byte, xor bool) {
	if xor && b == 0 {
		return
	}
	lane := uint64(b) * 0x0101010101010101
	i := 0
	for ; i+8 <= len(out); i += 8 {
		if xor {
			le.PutUint64(out[i:], le.Uint64(out[i:])^lane)
		} else {
			le.PutUint64(out[i:], lane)
		}
	}
	for ; i < len(out); i++ {
		if xor {
			out[i] ^= b
		} else {
			out[i] = b
		}
	}
}
