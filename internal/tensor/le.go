package tensor

import (
	"encoding/binary"
	"io"
	"math"
	"slices"
	"unsafe"
)

// Every payload this repository stores is a little-endian vector of FP32 or
// 16-bit words. On a little-endian host that is exactly the slice's own
// memory, so encoding and decoding are a view or a copy; other hosts convert
// element by element. The helpers below are the one place that decision is
// made.

// word is the element type of a stored vector.
type word interface{ float32 | uint16 }

// hostLE reports whether the host stores words least significant byte first.
// Tests clear it to force the portable element-by-element branch.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// leView returns the little-endian encoding of s as a view of s's own memory,
// or nil on a big-endian host (or for an empty s). The view aliases s: a
// write through one is a write through the other.
func leView[T word](s []T) []byte {
	if !hostLE || len(s) == 0 {
		return nil
	}
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(zero)))
}

// wordSize is T's encoded width in bytes.
func wordSize[T word]() int {
	var zero T
	if _, ok := any(zero).(float32); ok {
		return 4
	}
	return 2
}

// putLE encodes src little-endian into dst, which holds len(src) words.
func putLE[T word](dst []byte, src []T) {
	if v := leView(src); v != nil {
		copy(dst, v)
		return
	}
	switch s := any(src).(type) {
	case []float32:
		for i, f := range s {
			binary.LittleEndian.PutUint32(dst[i*4:], math.Float32bits(f))
		}
	case []uint16:
		for i, u := range s {
			binary.LittleEndian.PutUint16(dst[i*2:], u)
		}
	}
}

// DecodeLE fills dst from its little-endian encoding src, which holds at least
// len(dst) words.
func DecodeLE[T word](dst []T, src []byte) {
	if v := leView(dst); v != nil {
		copy(v, src)
		return
	}
	switch d := any(dst).(type) {
	case []float32:
		for i := range d {
			d[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[i*4:]))
		}
	case []uint16:
		for i := range d {
			d[i] = binary.LittleEndian.Uint16(src[i*2:])
		}
	}
}

// appendLE appends the little-endian encoding of src to dst.
func appendLE[T word](dst []byte, src []T) []byte {
	n, k := len(dst), len(src)*wordSize[T]()
	dst = slices.Grow(dst, k)[:n+k]
	putLE(dst[n:], src)
	return dst
}

// WriteLE streams the little-endian encoding of src, followed by pad zero
// words, to w in writes of at most len(buf) bytes. The writes are cut at the
// same word boundaries on every host: on a little-endian one they are views
// of src's own memory, and only a write that reaches the padding (or any
// write, elsewhere) is encoded into buf. A nil or undersized buf gets a small
// local one. src may be live state: w must not retain what it is given, as
// io.Writer requires. Returns the bytes written.
func WriteLE[T word](w io.Writer, buf []byte, src []T, pad int) (int64, error) {
	size := wordSize[T]()
	if len(buf) < size {
		buf = make([]byte, 4096)
	}
	per := len(buf) / size
	view := leView(src)
	n := len(src) + pad
	var total int64
	for base := 0; base < n; base += per {
		end := min(base+per, n)
		var chunk []byte
		if view != nil && end <= len(src) {
			chunk = view[base*size : end*size]
		} else {
			data := src[min(base, len(src)):min(end, len(src))]
			chunk = buf[:(end-base)*size]
			putLE(chunk, data)
			clear(chunk[len(data)*size:])
		}
		k, err := w.Write(chunk)
		total += int64(k)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
