package storage

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"strings"
	"testing"

	"llmtailor/internal/parallel"
	"llmtailor/internal/tensor"
)

// deltaPayload builds a bf16-like payload whose XOR against a parent is
// sparse: every stride-th element perturbed, the rest identical.
func deltaPayload(n, stride int, seed int64) (parent, child []byte) {
	rng := rand.New(rand.NewSource(seed))
	parent = make([]byte, n)
	rng.Read(parent)
	child = append([]byte(nil), parent...)
	for i := 0; i+1 < n; i += 2 * stride {
		child[i] ^= byte(i + 1)
	}
	return parent, child
}

func TestEncodeContainerRoundTrip(t *testing.T) {
	for _, width := range []int{2, 4} {
		for _, n := range []int{0, 2, 4096, defaultChunkSize + 12} {
			// Constant high bytes compress; this is the plane codec's case.
			raw := make([]byte, n)
			for i := 0; i < n; i += width {
				raw[i] = byte(i)
				for p := 1; p < width && i+p < n; p++ {
					raw[i+p] = 0x3f
				}
			}
			enc, ok := EncodeContainer(raw, CodecPlane, width, "", nil)
			if n <= blobHeaderSize {
				// Payloads smaller than the container framing never pay.
				if ok {
					t.Fatalf("n=%d: tiny payload should not encode", n)
				}
				continue
			}
			if !ok {
				t.Fatalf("width=%d n=%d: coding did not pay", width, n)
			}
			got, meta, err := DecodeContainer(enc, DecodeOpts{})
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !bytes.Equal(got, raw) {
				t.Fatalf("width=%d n=%d: roundtrip mismatch", width, n)
			}
			if meta.Codec != CodecPlane || meta.Width != width || meta.RawSize != int64(n) {
				t.Fatalf("meta = %+v", meta)
			}
		}
	}
}

func TestEncodeContainerXOR(t *testing.T) {
	parent, child := deltaPayload(300_000, 97, 5)
	delta := make([]byte, len(child))
	tensor.XORBytes(delta, child, parent)
	digest := strings.Repeat("ab", 32)
	gate := parallel.NewByteGate(64 << 10)
	enc, ok := EncodeContainer(delta, CodecXORParent, 2, digest, gate)
	if !ok {
		t.Fatal("sparse delta did not pay")
	}
	if len(enc)*3 > len(delta) {
		t.Fatalf("sparse delta compressed to %d of %d bytes, want >=3x", len(enc), len(delta))
	}
	got, meta, err := DecodeContainer(enc, DecodeOpts{})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(got, delta) {
		t.Fatal("delta roundtrip mismatch")
	}
	if meta.Parent != digest || meta.Codec != CodecXORParent {
		t.Fatalf("meta = %+v", meta)
	}
	back := make([]byte, len(child))
	tensor.XORBytes(back, got, parent)
	if !bytes.Equal(back, child) {
		t.Fatal("xor reconstruction mismatch")
	}
}

func TestEncodeContainerGateFallsBackOnNoise(t *testing.T) {
	raw := make([]byte, 100_000)
	rand.New(rand.NewSource(9)).Read(raw)
	if _, ok := EncodeContainer(raw, CodecPlane, 2, "", nil); ok {
		t.Fatal("random payload should not pay under the size gate")
	}
}

func TestStoredEscape(t *testing.T) {
	raw := append([]byte(blobMagic), []byte("payload that looks like a container")...)
	enc := EncodeStored(raw)
	got, meta, err := DecodeContainer(enc, DecodeOpts{})
	if err != nil {
		t.Fatalf("decode stored: %v", err)
	}
	if !bytes.Equal(got, raw) || meta.Codec != CodecStored || meta.RawSize != int64(len(raw)) {
		t.Fatalf("stored roundtrip mismatch: meta=%+v", meta)
	}
}

func TestDecodeContainerRejectsMalformed(t *testing.T) {
	parent, child := deltaPayload(8192, 97, 1)
	delta := make([]byte, len(child))
	tensor.XORBytes(delta, child, parent)
	good, ok := EncodeContainer(delta, CodecXORParent, 2, strings.Repeat("cd", 32), nil)
	if !ok {
		t.Fatal("setup: encode failed")
	}
	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return f(b)
	}
	cases := map[string][]byte{
		"not container": []byte("nope"),
		"short header":  good[:40],
		"bad version":   mutate(func(b []byte) []byte { b[4] = 9; return b }),
		"bad codec":     mutate(func(b []byte) []byte { b[5] = 7; return b }),
		"zero width":    mutate(func(b []byte) []byte { b[6] = 0; return b }),
		"reserved set":  mutate(func(b []byte) []byte { b[7] = 1; return b }),
		"bad parent":    mutate(func(b []byte) []byte { b[20] = 'Z'; return b }),
		"huge chunk": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[16:20], maxChunkSize+1)
			return b
		}),
		"chunk count mismatch": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[84:88], 99)
			return b
		}),
		"truncated body": good[:len(good)-3],
		"trailing junk":  append(append([]byte(nil), good...), 0xff),
		"bad plane tag": mutate(func(b []byte) []byte {
			b[blobHeaderSize+4] = 9 // first chunk's first plane tag
			return b
		}),
	}
	for name, data := range cases {
		if _, _, err := DecodeContainer(data, DecodeOpts{}); err == nil {
			t.Errorf("%s: decode accepted malformed container", name)
		}
	}
	if _, _, err := DecodeContainer(good, DecodeOpts{MaxRawSize: 16}); err == nil {
		t.Error("MaxRawSize cap not enforced")
	}
	if _, _, err := DecodeContainer(good, DecodeOpts{}); err != nil {
		t.Fatalf("pristine container rejected: %v", err)
	}
}

// TestPutResultDescribesWhatWasWritten: a put that wrote the blob reports it
// from what the writer holds; that description must be exactly what Meta
// reads back, for every form a payload can land in and both publication
// modes — and a second put of the same digest must report the same thing as
// a hit.
func TestPutResultDescribesWhatWasWritten(t *testing.T) {
	parent, child := deltaPayload(300_000, 97, 11)
	noise := make([]byte, 50_000)
	rand.New(rand.NewSource(12)).Read(noise)
	plane := make([]byte, 40_000)
	for i := range plane {
		plane[i] = byte(i%2) * 0x3f
	}
	escaped := append([]byte(blobMagic), noise[:500]...)
	for name, b := range map[string]Backend{"rename": NewMem(), "no-rename": NewObjStore()} {
		s := NewBlobStore(b, "objects")
		parentDigest, _, err := putBytes(s, parent)
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			what string
			raw  []byte
			opts BlobPutOptions
			want BlobCodec
		}{
			{"raw", noise, BlobPutOptions{}, CodecRaw},
			{"tiny raw", []byte("ab"), BlobPutOptions{}, CodecRaw},
			{"escaped raw", escaped, BlobPutOptions{}, CodecStored},
			{"plane", plane, BlobPutOptions{Codec: CodecPlane, Width: 2}, CodecPlane},
			{"plane demoted to raw", noise[:30_000], BlobPutOptions{Codec: CodecPlane, Width: 2}, CodecRaw},
			{"xor", child, BlobPutOptions{Codec: CodecXORParent, Width: 2, Parent: parentDigest}, CodecXORParent},
		}
		for _, c := range cases {
			digest := DigestBytes(c.raw)
			put := func() PutResult {
				res, err := s.PutStreamOpts(digest, c.opts, func(w io.Writer) (int64, error) {
					n, err := w.Write(c.raw)
					return int64(n), err
				})
				if err != nil {
					t.Fatalf("%s/%s: %v", name, c.what, err)
				}
				return res
			}
			first := put()
			meta, err := s.Meta(digest)
			if err != nil {
				t.Fatal(err)
			}
			want := PutResult{Written: true, Codec: meta.Codec, Parent: meta.Parent,
				RawBytes: meta.RawSize, StoredBytes: meta.StoredSize}
			if first != want || first.Codec != c.want || first.RawBytes != int64(len(c.raw)) {
				t.Errorf("%s/%s: put reports %+v, the store holds %+v (want codec %v)", name, c.what, first, want, c.want)
			}
			want.Written = false
			if again := put(); again != want {
				t.Errorf("%s/%s: hit reports %+v, want %+v", name, c.what, again, want)
			}
		}
	}
}
