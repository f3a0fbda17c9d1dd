package tensor

import (
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Tensor is a named, dense, row-major tensor. FP32 data lives in f32;
// half-precision data (F16/BF16) lives in u16. Exactly one backing slice is
// non-nil.
type Tensor struct {
	Name  string
	Shape []int
	DType DType

	f32 []float32
	u16 []uint16
}

// New allocates a zero-filled tensor.
func New(name string, dtype DType, shape ...int) *Tensor {
	n := numElems(shape)
	t := &Tensor{Name: name, Shape: append([]int(nil), shape...), DType: dtype}
	if dtype == F32 {
		t.f32 = make([]float32, n)
	} else {
		t.u16 = make([]uint16, n)
	}
	return t
}

// numElems returns the element count of a shape. Empty shapes denote scalars
// and count as one element; any non-positive dimension panics.
func numElems(shape []int) int {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dim %d in shape %v", d, shape))
		}
		n *= d
	}
	return n
}

// Len returns the number of elements.
func (t *Tensor) Len() int {
	if t.DType == F32 {
		return len(t.f32)
	}
	return len(t.u16)
}

// Bytes returns the serialized payload size in bytes.
func (t *Tensor) Bytes() int64 { return int64(t.Len()) * int64(t.DType.Size()) }

// At returns element i as float32 regardless of dtype.
func (t *Tensor) At(i int) float32 {
	if t.DType == F32 {
		return t.f32[i]
	}
	return decodeF32(t.DType, t.u16[i])
}

// Set stores v at element i, rounding to the tensor's dtype.
func (t *Tensor) Set(i int, v float32) {
	if t.DType == F32 {
		t.f32[i] = v
		return
	}
	t.u16[i] = encodeF32(t.DType, v)
}

// F32Data returns the FP32 backing slice. It panics for half tensors; use
// Float32s for a dtype-agnostic copy.
func (t *Tensor) F32Data() []float32 {
	if t.DType != F32 {
		panic(fmt.Sprintf("tensor: F32Data on %s tensor %s", t.DType, t.Name))
	}
	return t.f32
}

// U16Data returns the raw half-precision backing slice. It panics for FP32
// tensors.
func (t *Tensor) U16Data() []uint16 {
	if t.DType == F32 {
		panic(fmt.Sprintf("tensor: U16Data on float32 tensor %s", t.Name))
	}
	return t.u16
}

// Float32s returns a freshly allocated FP32 copy of the data.
func (t *Tensor) Float32s() []float32 {
	out := make([]float32, t.Len())
	if t.DType == F32 {
		copy(out, t.f32)
		return out
	}
	for i, u := range t.u16 {
		out[i] = decodeF32(t.DType, u)
	}
	return out
}

// CopyFromF32 overwrites the tensor contents from an FP32 slice, rounding to
// the tensor's dtype. Lengths must match.
func (t *Tensor) CopyFromF32(src []float32) {
	if len(src) != t.Len() {
		panic(fmt.Sprintf("tensor: CopyFromF32 length %d != %d for %s", len(src), t.Len(), t.Name))
	}
	if t.DType == F32 {
		copy(t.f32, src)
		return
	}
	for i, v := range src {
		t.u16[i] = encodeF32(t.DType, v)
	}
}

// Clone returns a deep copy, optionally renamed (empty name keeps the old).
func (t *Tensor) Clone(name string) *Tensor {
	if name == "" {
		name = t.Name
	}
	c := &Tensor{Name: name, Shape: append([]int(nil), t.Shape...), DType: t.DType}
	if t.DType == F32 {
		c.f32 = append([]float32(nil), t.f32...)
	} else {
		c.u16 = append([]uint16(nil), t.u16...)
	}
	return c
}

// Convert returns a copy of the tensor in the given dtype (rounding values
// as needed). Converting to the same dtype is a plain clone.
func (t *Tensor) Convert(d DType) *Tensor {
	if d == t.DType {
		return t.Clone("")
	}
	c := New(t.Name, d, t.Shape...)
	for i := 0; i < t.Len(); i++ {
		c.Set(i, t.At(i))
	}
	return c
}

// FillRandN fills the tensor with N(0, std) values from rng.
func (t *Tensor) FillRandN(rng *RNG, std float64) {
	for i := 0; i < t.Len(); i++ {
		t.Set(i, float32(rng.NormFloat64()*std))
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := 0; i < t.Len(); i++ {
		t.Set(i, v)
	}
}

// L2Norm returns the Euclidean norm of the tensor in float64.
func (t *Tensor) L2Norm() float64 {
	var s float64
	for i := 0; i < t.Len(); i++ {
		v := float64(t.At(i))
		s += v * v
	}
	return math.Sqrt(s)
}

// Equal reports whether two tensors have identical name, shape, dtype and
// bit-identical contents.
func Equal(a, b *Tensor) bool {
	if a.Name != b.Name || a.DType != b.DType || len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	if a.DType == F32 {
		for i := range a.f32 {
			if math.Float32bits(a.f32[i]) != math.Float32bits(b.f32[i]) {
				return false
			}
		}
		return true
	}
	for i := range a.u16 {
		if a.u16[i] != b.u16[i] {
			return false
		}
	}
	return true
}

// Encode appends the little-endian serialisation of the tensor payload to
// dst and returns the extended slice.
func (t *Tensor) Encode(dst []byte) []byte {
	if t.DType == F32 {
		return appendLE(dst, t.f32)
	}
	return appendLE(dst, t.u16)
}

// EncodeTo streams the little-endian serialisation of the tensor payload to
// w in chunks of at most len(buf) bytes (WriteLE), so a tensor can be written
// without materialising its full encoding. buf must hold at least one
// element; a nil or undersized buf gets a small local buffer. Returns the
// bytes written.
func (t *Tensor) EncodeTo(w io.Writer, buf []byte) (int64, error) {
	var n int64
	var err error
	if t.DType == F32 {
		n, err = WriteLE(w, buf, t.f32, 0)
	} else {
		n, err = WriteLE(w, buf, t.u16, 0)
	}
	if err != nil {
		return n, fmt.Errorf("tensor: encode %s: %w", t.Name, err)
	}
	return n, nil
}

// Decode fills the tensor from a little-endian payload produced by Encode.
// The payload length must match Bytes exactly.
func (t *Tensor) Decode(src []byte) error {
	if int64(len(src)) != t.Bytes() {
		return fmt.Errorf("tensor: decode %s: payload %d bytes, want %d", t.Name, len(src), t.Bytes())
	}
	if t.DType == F32 {
		DecodeLE(t.f32, src)
	} else {
		DecodeLE(t.u16, src)
	}
	return nil
}

// Checksum returns the CRC32 (IEEE) of the serialised payload. Checkpoint
// headers store this so readers can detect corruption.
func (t *Tensor) Checksum() uint32 {
	return crc32.ChecksumIEEE(t.Encode(make([]byte, 0, t.Bytes())))
}

// ShapeEqual reports whether two shapes are identical.
func ShapeEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
