package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// chunkLog records every Write it is given: the bytes and where each write
// was cut.
type chunkLog struct {
	bytes.Buffer
	cuts []int
}

func (c *chunkLog) Write(p []byte) (int, error) {
	c.cuts = append(c.cuts, len(p))
	return c.Buffer.Write(p)
}

// portable runs fn with the element-by-element branch forced, as on a
// big-endian host.
func portable(t *testing.T, fn func()) {
	t.Helper()
	saved := hostLE
	hostLE = false
	defer func() { hostLE = saved }()
	fn()
}

// referenceLE is the binary.LittleEndian loop the view replaces.
func referenceLE(t *Tensor) []byte {
	var out []byte
	if t.DType == F32 {
		for _, v := range t.f32 {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
		}
		return out
	}
	for _, u := range t.u16 {
		out = binary.LittleEndian.AppendUint16(out, u)
	}
	return out
}

// encodings runs every encode and decode path over src: Encode, EncodeTo at
// several chunk sizes (with the write cuts), and Decode of want.
func encodings(t *testing.T, src *Tensor, want []byte) (enc []byte, streams []chunkLog, decoded *Tensor) {
	t.Helper()
	enc = src.Encode([]byte{0xAA})[1:]
	for _, bufLen := range []int{0, 7, 64, 4096} {
		var log chunkLog
		if _, err := src.EncodeTo(&log, make([]byte, bufLen)); err != nil {
			t.Fatal(err)
		}
		streams = append(streams, log)
	}
	decoded = New(src.Name, src.DType, src.Shape...)
	if err := decoded.Decode(want); err != nil {
		t.Fatal(err)
	}
	return enc, streams, decoded
}

func TestLittleEndianViewMatchesReferenceLoop(t *testing.T) {
	if !hostLE {
		t.Log("big-endian host: both runs below take the portable branch")
	}
	rng := NewRNG(7)
	for _, dt := range []DType{F32, BF16} {
		for _, n := range []int{1, 3, 1000, 4099} {
			src := New("w", dt, n)
			src.FillRandN(rng, 1)
			want := referenceLE(src)
			enc, streams, decoded := encodings(t, src, want)
			var pEnc []byte
			var pStreams []chunkLog
			var pDecoded *Tensor
			portable(t, func() { pEnc, pStreams, pDecoded = encodings(t, src, want) })
			if !bytes.Equal(enc, want) || !bytes.Equal(pEnc, want) {
				t.Fatalf("%s n=%d: Encode differs from the reference loop", dt, n)
			}
			if !Equal(decoded, src) || !Equal(pDecoded, src) {
				t.Fatalf("%s n=%d: Decode of the reference bytes differs from the source", dt, n)
			}
			for i := range streams {
				if !bytes.Equal(streams[i].Bytes(), want) || !bytes.Equal(pStreams[i].Bytes(), want) {
					t.Fatalf("%s n=%d stream %d: EncodeTo differs from the reference loop", dt, n, i)
				}
				// Both branches cut the stream at the same places: a writer
				// that counts its writes cannot tell the hosts apart.
				if !slices.Equal(streams[i].cuts, pStreams[i].cuts) {
					t.Fatalf("%s n=%d stream %d: cuts %v, portable %v", dt, n, i, streams[i].cuts, pStreams[i].cuts)
				}
			}
		}
	}
}

func TestWriteLEPadsWithZeros(t *testing.T) {
	src := []float32{1.5, -2, float32(math.Inf(1)), 3e-39}
	var want []byte
	for _, v := range src {
		want = binary.LittleEndian.AppendUint32(want, math.Float32bits(v))
	}
	want = append(want, make([]byte, 4*5)...)
	for _, branch := range []string{"host", "portable"} {
		for _, bufLen := range []int{4, 8, 12, 4096} {
			var host, ref chunkLog
			run := func() {
				if n, err := WriteLE(&host, make([]byte, bufLen), src, 5); err != nil || n != int64(len(want)) {
					t.Fatalf("WriteLE = %d, %v", n, err)
				}
			}
			if branch == "portable" {
				portable(t, run)
			} else {
				run()
			}
			if !bytes.Equal(host.Bytes(), want) {
				t.Fatalf("%s buf=%d: padded stream %x, want %x", branch, bufLen, host.Bytes(), want)
			}
			// The cuts are those of the padded vector written as one slice.
			padded := append(append([]float32(nil), src...), make([]float32, 5)...)
			portable(t, func() {
				if _, err := WriteLE(&ref, make([]byte, bufLen), padded, 0); err != nil {
					t.Fatal(err)
				}
			})
			if !slices.Equal(host.cuts, ref.cuts) {
				t.Fatalf("%s buf=%d: cuts %v, want %v", branch, bufLen, host.cuts, ref.cuts)
			}
		}
	}
	// Padding alone, and nothing at all.
	var log chunkLog
	if n, err := WriteLE(&log, nil, []uint16(nil), 3); err != nil || n != 6 || !bytes.Equal(log.Bytes(), make([]byte, 6)) {
		t.Fatalf("pad-only WriteLE = %d, %v, %x", n, err, log.Bytes())
	}
	log = chunkLog{}
	if n, err := WriteLE(&log, nil, []float32(nil), 0); err != nil || n != 0 || len(log.cuts) != 0 {
		t.Fatalf("empty WriteLE = %d, %v, %d writes", n, err, len(log.cuts))
	}
}
