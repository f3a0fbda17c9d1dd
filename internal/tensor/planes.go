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

// XORPlane XORs src, the bytes of plane p, into the element-interleaved dst:
// src[k] lands on dst[p+k*width]. len(src) must be PlaneLen(len(dst), width, p).
// It is the inverse of SplitPlanes for one plane, folded into what dst
// already holds.
func XORPlane(dst, src []byte, p, width int) {
	if len(src) != PlaneLen(len(dst), width, p) {
		panic("tensor: XORPlane length mismatch")
	}
	if len(src) > 0 {
		xorStrided(dst[p:], src, max(width, 1))
	}
}

// XORPlaneRLE decodes the RLE stream src as plane p of the element-interleaved
// dst and XORs it in: decode, plane-join and XOR in one pass. A zero repeat
// run — the bulk of an xor delta — costs nothing. Malformed input errors
// exactly as a decode into a zeroed dst would, never writing outside plane p of dst.
func XORPlaneRLE(dst, src []byte, p, width int) error {
	width = max(width, 1)
	n := PlaneLen(len(dst), width, p)
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
		if cnt64 > uint64(n-di) {
			return errRLEOverflow
		}
		cnt := int(cnt64)
		out := dst[p+di*width:]
		if v&1 == 1 {
			if si >= len(src) {
				return errRLETruncated
			}
			if b := src[si]; b != 0 {
				for i := 0; i < cnt*width; i += width {
					out[i] ^= b
				}
			}
			si++
		} else {
			if cnt > len(src)-si {
				return errRLETruncated
			}
			xorStrided(out, src[si:si+cnt], width)
			si += cnt
		}
		di += cnt
	}
	if di != n {
		return errRLEShort
	}
	return nil
}

// xorStrided XORs src[k] into dst[k*stride].
func xorStrided(dst, src []byte, stride int) {
	if stride == 1 {
		XORBytes(dst[:len(src)], dst[:len(src)], src)
		return
	}
	for k, b := range src {
		dst[k*stride] ^= b
	}
}
