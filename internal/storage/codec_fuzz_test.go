package storage

// Fuzz targets for the blob-codec layer. Contract: corrupt container bytes
// — truncated, bit-flipped, adversarial headers, self-referential or
// cyclic parent chains — must surface as an error, never a panic,
// unbounded allocation or unbounded recursion; and every container the
// encoder emits must decode back to the exact payload. The regression
// corpora live in testdata/fuzz/FuzzBlobCodec and testdata/fuzz/FuzzXORResolver.

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"llmtailor/internal/tensor"
)

// fuzzMaxRaw caps the payload size a fuzzed container may declare, the
// same guard any path decoding untrusted bytes must set.
const fuzzMaxRaw = 1 << 24

// codecMutations seeds a corpus entry plus truncations and bit flips of it.
func codecMutations(f *testing.F, data []byte, width byte) {
	f.Add(data, width)
	for _, cut := range []int{1, 4, blobHeaderSize - 1, blobHeaderSize, len(data) - 1} {
		if cut > 0 && cut < len(data) {
			f.Add(data[:cut], width)
		}
	}
	for _, pos := range []int{4, 5, 6, 8, 16, 80, 87} {
		if pos < len(data) {
			mut := append([]byte(nil), data...)
			mut[pos] ^= 0xff
			f.Add(mut, width)
		}
	}
}

// FuzzBlobCodec drives DecodeContainer over arbitrary bytes and checks the
// encoder's containers roundtrip through it bit-exactly.
func FuzzBlobCodec(f *testing.F) {
	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i / 11) // plane-friendly: low bytes vary slowly
	}
	if c, ok := EncodeContainer(payload, CodecPlane, 2, "", nil); ok {
		codecMutations(f, c, 2)
	}
	delta := make([]byte, 3000)
	delta[1700] = 0x5a
	if c, ok := EncodeContainer(delta, CodecXORParent, 4, DigestBytes(payload), nil); ok {
		codecMutations(f, c, 4)
	}
	f.Add([]byte("LTBC"), byte(1))
	f.Add(append([]byte(nil), storedHeader()...), byte(1))
	f.Add(payload[:64], byte(0))

	f.Fuzz(func(t *testing.T, data []byte, width byte) {
		if p, meta, err := DecodeContainer(data, DecodeOpts{MaxRawSize: fuzzMaxRaw}); err == nil {
			// Accepted containers must hold the invariant readers rely on:
			// the payload is exactly as long as the header declares.
			if int64(len(p)) != meta.RawSize {
				t.Fatalf("accepted container: payload %d bytes, header declares %d", len(p), meta.RawSize)
			}
			if meta.Codec == CodecXORParent && !ValidDigest(meta.Parent) {
				t.Fatalf("accepted xor container with malformed parent %q", meta.Parent)
			}
		}
		// Whatever the encoder emits for the same bytes must decode back.
		if c, ok := EncodeContainer(data, CodecPlane, int(width), "", nil); ok {
			p, meta, err := DecodeContainer(c, DecodeOpts{MaxRawSize: fuzzMaxRaw})
			if err != nil {
				t.Fatalf("decoder rejects own encoding: %v", err)
			}
			if meta.Codec != CodecPlane || !bytes.Equal(p, data) {
				t.Fatal("plane roundtrip differs from the payload")
			}
		}
	})
}

// FuzzXORResolver stores fuzzed bytes verbatim at a blob path and opens the
// blob, so corrupt containers exercise the full parent-chain resolution:
// missing parents, wrong-length parents, self-referential and mutually
// cyclic chains must all error out of Open, never panic or recurse forever.
// What Open does deliver must be what resolving the chain a level at a time,
// each level decoded whole, gives.
func FuzzXORResolver(f *testing.F) {
	parentRaw := make([]byte, 2048)
	for i := range parentRaw {
		parentRaw[i] = byte(i)
	}
	parentDigest := DigestBytes(parentRaw)
	// The digest slot the fuzzed bytes are stored under, and a partner blob
	// whose parent pointer aims back at it (a 2-cycle when the fuzzed
	// container points at the partner).
	fuzzDigest := DigestBytes([]byte("fuzz-blob"))
	cycleDigest := DigestBytes([]byte("cycle-partner"))
	cyclePartner, ok := EncodeContainer(make([]byte, 2048), CodecXORParent, 1, fuzzDigest, nil)
	if !ok {
		f.Fatal("cycle partner did not encode")
	}
	// A plane parent coded at a chunk size of its own.
	planeRaw := make([]byte, 2048)
	for i := range planeRaw {
		planeRaw[i] = byte(i / 64)
	}
	planeDigest := DigestBytes(planeRaw)
	planeParent, ok := encodeContainer(planeRaw, CodecPlane, 2, "", 512, nil)
	if !ok {
		f.Fatal("plane parent did not encode")
	}

	delta := make([]byte, 2048)
	delta[77] = 0x5a
	if c, ok := EncodeContainer(delta, CodecXORParent, 2, parentDigest, nil); ok {
		f.Add(c) // resolvable: parent exists with matching length
	}
	if c, ok := EncodeContainer(delta, CodecXORParent, 2, fuzzDigest, nil); ok {
		f.Add(c) // self-referential: blob is its own parent
	}
	if c, ok := EncodeContainer(delta, CodecXORParent, 2, cycleDigest, nil); ok {
		f.Add(c) // two-blob cycle via the partner
	}
	if c, ok := EncodeContainer(delta, CodecXORParent, 2, DigestBytes([]byte("absent")), nil); ok {
		f.Add(c) // missing parent
	}
	if c, ok := EncodeContainer(delta[:100], CodecXORParent, 2, parentDigest, nil); ok {
		f.Add(c) // parent length mismatch
	}
	if c, ok := encodeContainer(delta, CodecXORParent, 2, planeDigest, 768, nil); ok {
		f.Add(c) // chain levels at different chunk sizes
	}
	f.Add(parentRaw[:128]) // plain raw blob bytes
	f.Add([]byte("LTBC"))

	f.Fuzz(func(t *testing.T, data []byte) {
		b := NewMem()
		s := NewBlobStore(b, "objects")
		b.WriteFile(s.Path(parentDigest), parentRaw)
		b.WriteFile(s.Path(cycleDigest), cyclePartner)
		b.WriteFile(s.Path(planeDigest), planeParent)
		b.WriteFile(s.Path(fuzzDigest), data)
		if rc, err := s.Open(fuzzDigest); err == nil {
			got, err := io.ReadAll(io.LimitReader(rc, fuzzMaxRaw+1))
			rc.Close()
			if want, werr := resolveWhole(s, fuzzDigest, 0); err == nil && len(got) <= fuzzMaxRaw &&
				(werr != nil || !bytes.Equal(got, want)) {
				t.Fatalf("Open delivered %d bytes a whole-level resolution does not (%v)", len(got), werr)
			}
		}
		if _, err := s.Meta(fuzzDigest); err != nil && !IsNotExist(err) {
			_ = err // corrupt headers may error; they must only not panic
		}
	})
}

// resolveWhole is the reference resolution the chunk decoder must agree
// with: each level of the chain read and decoded whole, the ancestors'
// payloads XORed in.
func resolveWhole(s *BlobStore, digest string, depth int) ([]byte, error) {
	if depth > MaxParentDepth {
		return nil, errors.New("xor-parent chain too deep")
	}
	data, err := s.b.ReadFile(s.Path(digest))
	if err != nil || !isContainer(data) {
		return data, err
	}
	payload, meta, err := DecodeContainer(data, DecodeOpts{MaxRawSize: fuzzMaxRaw})
	if err != nil || meta.Codec != CodecXORParent {
		return payload, err
	}
	parent, err := resolveWhole(s, meta.Parent, depth+1)
	if err == nil && len(parent) != len(payload) {
		err = errors.New("parent size differs")
	}
	if err != nil {
		return nil, err
	}
	tensor.XORBytes(payload, payload, parent)
	return payload, nil
}
