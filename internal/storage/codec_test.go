package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
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
	enc := append(storedHeader(), raw...)
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

// putCoded stores raw under its digest with the given options and checks it
// landed with the wanted codec.
func putCoded(t *testing.T, s *BlobStore, raw []byte, opts BlobPutOptions, want BlobCodec) string {
	t.Helper()
	digest := DigestBytes(raw)
	res, err := s.PutStreamOpts(digest, opts, func(w io.Writer) (int64, error) {
		n, err := w.Write(raw)
		return int64(n), err
	})
	if err != nil || res.Codec != want {
		t.Fatalf("fixture: stored as %v (%v), want %v", res.Codec, err, want)
	}
	return digest
}

// TestCodedReadAllocBound: reading a coded blob whole into the caller's
// buffer allocates O(chunk) beside that buffer — for a plane blob and for the
// end of a depth-8 xor chain alike, through Open and OpenRangeCoded — where a
// whole-blob decode allocates the payload once per chain level.
func TestCodedReadAllocBound(t *testing.T) {
	const size = 4 << 20
	const width = 4
	s := NewBlobStore(NewMem(), "objects")
	gen := make([]byte, size)
	for i := 0; i < size; i += width {
		binary.LittleEndian.PutUint32(gen[i:], 0x3f800000|uint32(i/width%251)<<8)
	}
	plane := putCoded(t, s, gen, BlobPutOptions{Codec: CodecPlane, Width: width}, CodecPlane)
	blobs := map[string][]byte{"plane": gen}
	top := plane
	for depth := 1; depth <= 8; depth++ {
		gen = append([]byte(nil), gen...)
		for i := depth * 4; i < size; i += 4093 * width {
			gen[i] ^= byte(depth)
		}
		top = putCoded(t, s, gen, BlobPutOptions{Codec: CodecXORParent, Width: width, Parent: top}, CodecXORParent)
	}
	blobs["xor depth 8"] = gen
	digests := map[string]string{"plane": plane, "xor depth 8": top}

	buf := make([]byte, size)
	for what, want := range blobs {
		digest := digests[what]
		for how, open := range map[string]func() (io.ReadCloser, error){
			"Open":           func() (io.ReadCloser, error) { return s.Open(digest) },
			"OpenRangeCoded": func() (io.ReadCloser, error) { return s.OpenRangeCoded(digest, 0, size) },
		} {
			clear(buf)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rc, err := open()
			if err == nil {
				_, err = io.ReadFull(rc, buf)
				rc.Close()
			}
			runtime.ReadMemStats(&after)
			if err != nil || !bytes.Equal(buf, want) {
				t.Fatalf("%s via %s: wrong bytes (%v)", what, how, err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*defaultChunkSize {
				t.Errorf("%s via %s: %d bytes allocated beside the caller's buffer, want <= %d",
					what, how, alloc, 4*defaultChunkSize)
			}
		}
	}
}

// TestChainReadChunkSizes: an xor chain coded at a chunk size of its own
// reads back exactly — whole, in ranges that start and end mid-chunk, and
// through a caller buffer of a few bytes — while a chain whose levels mix
// chunk sizes is refused as corrupt, never read as wrong bytes.
func TestChainReadChunkSizes(t *testing.T) {
	grand, parent := deltaPayload(50_000, 13, 41)
	_, child := deltaPayload(50_000, 7, 41)
	for _, sizes := range [][2]int{{3000, 3000}, {4096, 3000}} {
		b := NewMem()
		s := NewBlobStore(b, "objects")
		store := func(raw, base []byte, parent string, chunk int) string {
			digest, container := DigestBytes(raw), raw
			if base != nil {
				delta := make([]byte, len(raw))
				tensor.XORBytes(delta, raw, base)
				var ok bool
				if container, ok = encodeContainer(delta, CodecXORParent, 2, parent, chunk, nil); !ok {
					t.Fatalf("fixture: chunk size %d did not encode", chunk)
				}
			}
			if err := b.WriteFile(s.Path(digest), container); err != nil {
				t.Fatal(err)
			}
			return digest
		}
		g := store(grand, nil, "", 0) // random bytes: a raw bottom level
		p := store(parent, grand, g, sizes[0])
		c := store(child, parent, p, sizes[1])
		if sizes[0] != sizes[1] {
			if _, err := s.Open(c); !errors.Is(err, ErrCorruptBlob) {
				t.Fatalf("chunk sizes %v: open: %v, want ErrCorruptBlob", sizes, err)
			}
			continue
		}
		for _, ext := range [][2]int64{{0, 50_000}, {1, 49_998}, {2999, 3002}, {12_000, 100}, {49_999, 1}, {0, 0}} {
			rc, err := s.OpenRangeCoded(c, ext[0], ext[1])
			if err != nil {
				t.Fatalf("range %v: %v", ext, err)
			}
			got, err := io.ReadAll(rc)
			rc.Close()
			if err != nil || !bytes.Equal(got, child[ext[0]:ext[0]+ext[1]]) {
				t.Fatalf("range %v: wrong bytes (%v)", ext, err)
			}
		}
		rc, err := s.Open(c)
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		small := make([]byte, 7)
		for err == nil {
			var n int
			n, err = rc.Read(small)
			got = append(got, small[:n]...)
		}
		rc.Close()
		if err != io.EOF || !bytes.Equal(got, child) {
			t.Fatalf("7-byte reads delivered wrong bytes (%v)", err)
		}
	}
}

// TestChainReadStructuralCorruption: every structural failure of a coded
// blob or its chain — a bad header field, chunk table or plane record, a
// stream too long or too short, a parent that is missing or of another size —
// errors as ErrCorruptBlob, at open or at read, never as wrong bytes.
func TestChainReadStructuralCorruption(t *testing.T) {
	parent, child := deltaPayload(40_000, 11, 5)
	for name, mutate := range map[string]func(d []byte) []byte{
		"width":          func(d []byte) []byte { d[6] ^= 0x20; return d },
		"raw size":       func(d []byte) []byte { d[9] ^= 0x20; return d },
		"parent digest":  func(d []byte) []byte { d[21] ^= 0x20; return d },
		"absent parent":  func(d []byte) []byte { copy(d[20:84], DigestBytes([]byte("absent"))); return d },
		"chunk table":    func(d []byte) []byte { d[89] ^= 0x20; return d },
		"plane tag":      func(d []byte) []byte { d[blobHeaderSize+4] ^= 0x20; return d },
		"truncated":      func(d []byte) []byte { return d[:len(d)-1] },
		"trailing bytes": func(d []byte) []byte { return append(d, 0) },
		"other size":     nil,
	} {
		b := NewMem()
		s := NewBlobStore(b, "objects")
		p := putCoded(t, s, parent, BlobPutOptions{}, CodecRaw)
		c := putCoded(t, s, child, BlobPutOptions{Codec: CodecXORParent, Width: 2, Parent: p}, CodecXORParent)
		data, _ := b.ReadFile(s.Path(c))
		if mutate == nil {
			b.WriteFile(s.Path(p), parent[1:])
		} else {
			b.WriteFile(s.Path(c), mutate(data))
		}
		for how, open := range map[string]func() (io.ReadCloser, error){
			"Open":           func() (io.ReadCloser, error) { return s.Open(c) },
			"OpenRangeCoded": func() (io.ReadCloser, error) { return s.OpenRangeCoded(c, 0, int64(len(child))) },
		} {
			rc, err := open()
			if err == nil {
				var got []byte
				got, err = io.ReadAll(rc)
				rc.Close()
				if err == nil && !bytes.Equal(got, child) {
					t.Errorf("%s via %s: wrong bytes delivered", name, how)
					continue
				}
			}
			if !errors.Is(err, ErrCorruptBlob) {
				t.Errorf("%s via %s: %v, want ErrCorruptBlob", name, how, err)
			}
		}
	}
}
