package storage

// Fuzz targets for the blob-codec layer. Contract: corrupt container bytes
// — truncated, bit-flipped, adversarial headers, self-referential or
// cyclic parent chains — must surface as an error, never a panic,
// unbounded allocation or unbounded recursion; and every container the
// encoder emits must decode back to the exact payload. The regression
// corpora live in testdata/fuzz/FuzzBlobCodec and testdata/fuzz/FuzzXORResolver.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
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

// FuzzChainFold builds an xor chain from the fuzzed bytes — one level per
// byte of spec, top first: raw, stored, plane or xor-parent at a width of 1
// to 8, every coded level at one chunk size that need not be a multiple of any
// width, the chain ending at the first level that is not xor-parent — and
// optionally flips one stored byte of one level. Open must deliver exactly
// what the reference fold (refFold: every level XORed into zeroes a plane at
// a time, at its stride) delivers, or both must fail with ErrCorruptBlob.
// The regression corpus lives in testdata/fuzz/FuzzChainFold.
func FuzzChainFold(f *testing.F) {
	for _, seed := range []struct {
		size, chunk uint16
		spec        []byte
		flip        uint32
	}{
		{3000, 700, []byte{2<<2 | 3, 2<<2 | 3, 2<<2 | 2}, 0}, // width 3 throughout
		{4099, 1000, []byte{3<<2 | 3, 1<<2 | 3, 0}, 0},       // widths 4 and 2, a raw root
		{1501, 333, []byte{1<<2 | 2}, 0},                     // one plane level, in place
		{2000, 512, []byte{7<<2 | 3, 7<<2 | 3, 0<<2 | 1}, 0}, // width 8, a stored root
		{2500, 601, []byte{1<<2 | 3, 3<<2 | 2}, 0},           // a mismatched plane root
		{3000, 700, []byte{1<<2 | 3, 1<<2 | 2}, 1<<16 | 200}, // a corrupt root stream
		{3000, 700, []byte{3<<2 | 3, 3<<2 | 2}, 0<<16 | 95},  // a corrupt top chunk table
		{1000, 40, []byte{0<<2 | 3, 0<<2 | 2}, 0},            // width 1, small chunks
		{2000, 512, []byte{7<<2 | 3, 7<<2 | 2}, 0},           // a stored plane at the root
		{2001, 512, []byte{1<<2 | 3, 1<<2 | 3, 1<<2 | 2}, 0}, // dense deltas: stored xor planes
	} {
		f.Add(seed.size, seed.chunk, seed.spec, seed.flip, int64(seed.size))
	}
	f.Fuzz(func(t *testing.T, size, chunk uint16, spec []byte, flip uint32, seed int64) {
		n, cs := int(size%6000), 1+int(chunk%1500)
		if len(spec) == 0 || len(spec) > 8 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		// The chain's payloads, bottom first: the root's slow bytes with
		// every 8th noisy, so every width codes it, and each level above a
		// sparse change of the one below.
		levels := len(spec)
		for i, b := range spec {
			if b&3 != 3 {
				levels = i + 1
				break
			}
		}
		payloads := make([][]byte, levels)
		root := make([]byte, n)
		for i := range root {
			if i%8 == 0 {
				root[i] = byte(rng.Intn(256))
			} else {
				root[i] = byte(i / 97)
			}
		}
		payloads[levels-1] = root
		for k := levels - 2; k >= 0; k-- {
			p := append([]byte(nil), payloads[k+1]...)
			for i := rng.Intn(7); i < n; i += 1 + rng.Intn(40) {
				p[i] ^= byte(1 + rng.Intn(255))
			}
			for i := 0; seed%3 == 0 && i < n; i += 8 {
				p[i] ^= byte(1 + rng.Intn(255)) // byte 0 of every 8 changes: a stored xor plane
			}
			payloads[k] = p
		}
		b := NewMem()
		s := NewBlobStore(b, "objects")
		stored := make([][]byte, levels)
		for k := levels - 1; k >= 0; k-- {
			codec, width := [4]BlobCodec{CodecRaw, CodecStored, CodecPlane, CodecXORParent}[spec[k]&3], 1+int(spec[k]>>2&7)
			if k == levels-1 && codec == CodecXORParent {
				codec = CodecPlane
			}
			if k == 0 && codec != CodecXORParent {
				codec = CodecPlane // the chain reader's top is coded
			}
			data := payloads[k]
			switch codec {
			case CodecStored:
				data = append(storedHeader(), data...)
			case CodecPlane, CodecXORParent:
				raw, parent := data, ""
				if codec == CodecXORParent {
					raw, parent = make([]byte, n), DigestBytes(payloads[k+1])
					tensor.XORBytes(raw, data, payloads[k+1])
				}
				c, ok := encodeContainer(raw, codec, width, parent, cs, nil)
				if !ok {
					return // coding does not pay: the chain is not the one spec asks for
				}
				data = c
			}
			stored[k] = data
		}
		if flip != 0 {
			k := int(flip>>16) % levels
			stored[k][int(flip&0xffff)%len(stored[k])] ^= 0x41
		}
		for k := range stored {
			b.WriteFile(s.Path(DigestBytes(payloads[k])), stored[k])
		}
		top := DigestBytes(payloads[0])
		want, werr := refRead(s, top)
		rc, err := s.Open(top)
		var got []byte
		if err == nil {
			got, err = io.ReadAll(rc)
			rc.Close()
		}
		switch {
		case err == nil && werr == nil:
			if !bytes.Equal(got, want) {
				t.Fatalf("the fold delivered %d bytes the reference does not", len(got))
			}
		case !errors.Is(err, ErrCorruptBlob) || !errors.Is(werr, ErrCorruptBlob):
			t.Fatalf("fold: %v; reference: %v; want the same bytes or ErrCorruptBlob from both", err, werr)
		}
	})
}

// refRead reads the whole payload of digest through the chain reader's levels
// but the reference fold.
func refRead(s *BlobStore, digest string) ([]byte, error) {
	rc, err := s.b.Open(s.Path(digest))
	if err != nil {
		return nil, err
	}
	top, err := openLevel(digest, rc)
	if err != nil {
		return nil, err
	}
	if top.offs == nil {
		defer rc.Close()
		return io.ReadAll(top.r)
	}
	c, err := openChain(top, func(d string) (io.ReadCloser, error) { return s.b.Open(s.Path(d)) }, 0, -1)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	out := make([]byte, c.size)
	for cs, at := int64(top.meta.ChunkSize), int64(0); at < c.size; at += cs {
		if err := refFold(c, out[at:min(at+cs, c.size)], at); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// refFold is the chunk fold the plane-major one replaced, kept as its
// reference: every level's chunk XORed into zeroes straight in dst, each
// plane folded in at its stride (refDecodeChunk).
func refFold(c *chainReader, dst []byte, s int64) error {
	clear(dst)
	for _, lv := range c.levels {
		var err error
		if lv.offs == nil {
			err = lv.xorInto(dst, s, c.scratch)
		} else {
			k := s / int64(lv.meta.ChunkSize)
			enc := sized(c.scratch, int(lv.offs[k+1]-lv.offs[k]))
			if err = lv.read(lv.offs[k], enc); err == nil {
				err = refDecodeChunk(dst, enc, lv.meta.Width)
			}
		}
		if err == nil && s+int64(len(dst)) == c.size {
			err = lv.finish()
		}
		if err != nil {
			return lv.failed(err)
		}
	}
	return nil
}

// refDecodeChunk decodes one chunk stream and XORs the chunk into dst, its
// element-interleaved bytes.
func refDecodeChunk(dst, stream []byte, width int) error {
	si := 0
	for p := 0; p < width; p++ {
		planeLen := tensor.PlaneLen(len(dst), width, p)
		if si >= len(stream) {
			return errContainerShort
		}
		tag := stream[si]
		si++
		encLen, n := binary.Uvarint(stream[si:])
		if n <= 0 {
			return errContainerHeader
		}
		si += n
		if encLen > uint64(len(stream)-si) {
			return errContainerShort
		}
		enc := stream[si : si+int(encLen)]
		si += int(encLen)
		switch tag {
		case planeTagStored:
			if int(encLen) != planeLen {
				return errContainerHeader
			}
			for k, b := range enc {
				dst[p+k*width] ^= b
			}
		case planeTagRLE:
			if err := refXORPlaneRLE(dst, enc, p, width); err != nil {
				return fmt.Errorf("%w: plane %d: %w", ErrCorruptBlob, p, err)
			}
		default:
			return fmt.Errorf("%w: unknown plane tag %d", ErrCorruptBlob, tag)
		}
	}
	if si != len(stream) {
		return errContainerHeader
	}
	return nil
}

// refXORPlaneRLE decodes the RLE stream src as plane p of the
// element-interleaved dst and XORs it in, a byte at a time.
func refXORPlaneRLE(dst, src []byte, p, width int) error {
	n := tensor.PlaneLen(len(dst), width, p)
	di, si := 0, 0
	for si < len(src) {
		v, k := binary.Uvarint(src[si:])
		if k <= 0 || v>>1 == 0 || v>>1 > uint64(n-di) {
			return errors.New("rle: malformed run")
		}
		si += k
		cnt := int(v >> 1)
		for j := 0; j < cnt; j++ {
			var b byte
			switch {
			case v&1 == 1 && si < len(src):
				b = src[si]
			case v&1 == 0 && si+j < len(src):
				b = src[si+j]
			default:
				return errors.New("rle: truncated stream")
			}
			dst[p+(di+j)*width] ^= b
		}
		if si += cnt; v&1 == 1 {
			si += 1 - cnt
		}
		di += cnt
	}
	if di != n {
		return errors.New("rle: stream ends before output is full")
	}
	return nil
}
