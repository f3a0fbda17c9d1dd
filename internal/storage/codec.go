package storage

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"

	"llmtailor/internal/parallel"
	"llmtailor/internal/tensor"
)

// The blob codec: a CAS object may hold either the payload's raw bytes or an
// LTBC container wrapping an encoded form of them. The digest that names the
// blob is ALWAYS the SHA-256 of the uncompressed payload — the container is
// a storage detail invisible to readers, which receive decoded bytes from
// Open/OpenRange.
//
// Container layout (all integers little-endian):
//
//	offset size
//	     0    4  magic "LTBC"
//	     4    1  format version (1)
//	     5    1  codec: 1=plane, 2=xor-parent, 3=stored
//	     6    1  element width in bytes (plane/xor)
//	     7    1  reserved (0)
//	     8    8  raw payload size (0 for stored: body is the payload)
//	    16    4  chunk size
//	    20   64  parent digest, ASCII hex (xor-parent) or zero bytes
//	    84    4  chunk count
//	    88   4N  encoded length of each chunk
//	   ...       chunk streams, concatenated
//
// Each chunk covers chunkSize raw bytes (the last may be short) and is
// byte-plane split (tensor.SplitPlanes) before coding. A chunk stream is one
// record per plane: tag byte (0=stored, 1=RLE), uvarint encoded length, then
// that many bytes. For codec xor-parent the chunk payload is raw XOR
// parentRaw; the store's chunk decoder folds the chain in as it reads.
//
// Codec 3 ("stored") is the escape hatch keeping magic sniffing sound: a raw
// payload that itself begins with "LTBC" is wrapped in a stored container,
// so file bytes starting with the magic are always a container.

// BlobCodec identifies how a blob's bytes are stored.
type BlobCodec uint8

const (
	// CodecRaw means the object file holds the payload bytes directly.
	CodecRaw BlobCodec = 0
	// CodecPlane is byte-plane split + per-plane RLE of the payload itself.
	CodecPlane BlobCodec = 1
	// CodecXORParent is CodecPlane applied to payload XOR parent-payload.
	CodecXORParent BlobCodec = 2
	// CodecStored wraps the raw payload in a container unmodified.
	CodecStored BlobCodec = 3
)

// String returns the manifest spelling of the codec.
func (c BlobCodec) String() string {
	switch c {
	case CodecRaw:
		return "raw"
	case CodecPlane:
		return "plane"
	case CodecXORParent:
		return "xor-parent"
	case CodecStored:
		return "stored"
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// ParseBlobCodec maps a manifest codec string back to its value. The empty
// string is CodecRaw (pre-codec manifests carry no codec field).
func ParseBlobCodec(s string) (BlobCodec, error) {
	switch s {
	case "", "raw":
		return CodecRaw, nil
	case "plane":
		return CodecPlane, nil
	case "xor-parent", "xor":
		return CodecXORParent, nil
	case "stored":
		return CodecStored, nil
	}
	return 0, fmt.Errorf("unknown blob codec %q", s)
}

// BlobMeta describes how one blob is stored.
type BlobMeta struct {
	Codec      BlobCodec
	Width      int    // element width (plane/xor containers)
	ChunkSize  int    // coding chunk size (plane/xor containers)
	RawSize    int64  // uncompressed payload size
	StoredSize int64  // bytes on the backend (container included)
	Parent     string // parent digest (xor-parent only)
}

const (
	blobMagic        = "LTBC"
	blobCodecVersion = 1
	blobHeaderSize   = 88
	defaultChunkSize = 256 << 10
	maxChunkSize     = 4 << 20
	planeTagStored   = 0
	planeTagRLE      = 1
	// MaxParentDepth bounds xor-parent chain resolution; chains are re-based
	// well below this (ckpt re-bases every K generations), so hitting it
	// means a corrupt or cyclic chain.
	MaxParentDepth = 64
)

var (
	// ErrCorruptBlob marks every structural failure of a stored blob — a
	// malformed or truncated container, an undecodable chunk, a broken xor
	// chain — as opposed to an I/O error reaching it.
	ErrCorruptBlob     = errors.New("storage: corrupt blob")
	errNotContainer    = fmt.Errorf("%w: not an LTBC container", ErrCorruptBlob)
	errContainerShort  = fmt.Errorf("%w: truncated container", ErrCorruptBlob)
	errContainerHeader = fmt.Errorf("%w: malformed container header", ErrCorruptBlob)
	// ErrRawTooLarge reports a container whose declared payload exceeds the
	// decode cap.
	ErrRawTooLarge = errors.New("blob codec: declared payload exceeds decode limit")
)

// IsContainer reports whether a blob file beginning with prefix is an LTBC
// container rather than raw payload bytes.
func IsContainer(prefix []byte) bool {
	return len(prefix) >= len(blobMagic) && string(prefix[:len(blobMagic)]) == blobMagic
}

// DecodeOpts bounds container decoding.
type DecodeOpts struct {
	// MaxRawSize caps the declared payload size (0 = no cap). Fuzzing and
	// any path decoding untrusted bytes should set it.
	MaxRawSize int64
}

// ParseContainerHeader validates the fixed header of a container and returns
// its metadata. storedSize is the full object size on the backend (used for
// StoredSize and to size stored-codec payloads). hdr needs only the first
// blobHeaderSize bytes.
func ParseContainerHeader(hdr []byte, storedSize int64) (BlobMeta, error) {
	if !IsContainer(hdr) {
		return BlobMeta{}, errNotContainer
	}
	if len(hdr) < blobHeaderSize {
		return BlobMeta{}, errContainerShort
	}
	if hdr[4] != blobCodecVersion {
		return BlobMeta{}, fmt.Errorf("%w: unsupported container version %d", ErrCorruptBlob, hdr[4])
	}
	codec := BlobCodec(hdr[5])
	width := int(hdr[6])
	rawSize := int64(binary.LittleEndian.Uint64(hdr[8:16]))
	chunkSize := int64(binary.LittleEndian.Uint32(hdr[16:20]))
	nChunks := int64(binary.LittleEndian.Uint32(hdr[84:88]))
	parent, zeroed := "", hdr[7] == 0 && bytes.Count(hdr[20:84], []byte{0}) == 64
	switch codec {
	case CodecStored:
		if width != 0 || rawSize != 0 || chunkSize != 0 || nChunks != 0 || !zeroed {
			return BlobMeta{}, errContainerHeader
		}
		if storedSize < blobHeaderSize {
			return BlobMeta{}, errContainerShort
		}
		return BlobMeta{Codec: codec, RawSize: storedSize - blobHeaderSize, StoredSize: storedSize}, nil
	case CodecPlane, CodecXORParent:
		if width < 1 || rawSize < 0 || chunkSize < 1 || chunkSize > maxChunkSize || hdr[7] != 0 ||
			nChunks != (rawSize+chunkSize-1)/chunkSize || codec == CodecPlane && !zeroed {
			return BlobMeta{}, errContainerHeader
		}
		if codec == CodecXORParent {
			if parent = string(hdr[20:84]); !ValidDigest(parent) {
				return BlobMeta{}, fmt.Errorf("%w: invalid parent digest in container", ErrCorruptBlob)
			}
		}
		return BlobMeta{Codec: codec, Width: width, ChunkSize: int(chunkSize), RawSize: rawSize, StoredSize: storedSize, Parent: parent}, nil
	}
	return BlobMeta{}, fmt.Errorf("%w: unknown codec %d", ErrCorruptBlob, hdr[5])
}

// DecodeContainer decodes one whole container held in memory into its chunk
// payload: the raw payload for CodecPlane and CodecStored, payload XOR
// parent-payload for CodecXORParent (the parent is not resolved). It is the
// store's chunk decoder over a single level.
func DecodeContainer(data []byte, opts DecodeOpts) ([]byte, BlobMeta, error) {
	meta, err := ParseContainerHeader(data, int64(len(data)))
	if err == nil && opts.MaxRawSize > 0 && meta.RawSize > opts.MaxRawSize {
		err = ErrRawTooLarge
	}
	if err != nil {
		return nil, BlobMeta{}, err
	}
	if meta.Codec == CodecStored {
		return data[blobHeaderSize:], meta, nil
	}
	lv, err := openLevel("", io.NopCloser(bytes.NewReader(data)))
	if err == nil {
		var c *chainReader
		if c, err = openChain(lv, nil, 0, -1); err == nil {
			defer c.Close()
			out := make([]byte, meta.RawSize)
			if _, err = io.ReadFull(c, out); err == nil {
				return out, meta, nil
			}
		}
	}
	return nil, BlobMeta{}, err
}

// The chunk decoder. A coded read is a chain of levels — the blob, then each
// xor ancestor — each one stream of its stored object, opened header and
// chunk table first. The payload is delivered a chunk at a time, every level's
// chunk XORed into zeroes straight in the caller's buffer, so a read holds a
// chunk of scratch, never a payload per level. The levels of a chain share one
// chunk size (the encoder writes one); a chain mixing them is corrupt.

// DecodeScratch bounds the scratch one coded read holds beside the caller's
// buffer, for chunks this package writes: an encoded chunk (its planes behind
// their records), and a staged one when the caller's buffer cannot take it whole.
const DecodeScratch = 2*defaultChunkSize + 255*(1+binary.MaxVarintLen64)

// chunkBufs is the decoder's scratch pool.
var chunkBufs = sync.Pool{New: func() any { return new([]byte) }}

// sized resizes *b to n, growing it when short.
func sized(b *[]byte, n int) []byte {
	*b = slices.Grow((*b)[:0], n)[:n]
	return *b
}

// level is one stored object of a coded read.
type level struct {
	digest string
	r      io.Reader // the object, past a stored container's header
	c      io.Closer
	pos    int64    // r's offset
	meta   BlobMeta // CodecRaw or CodecStored: the payload is r itself
	offs   []int64  // coded: each chunk's offset in r, then r's end
}

// openLevel reads an object's head off rc: a raw object's magic (put back),
// a stored container's header, a coded one's header and chunk table.
func openLevel(digest string, rc io.ReadCloser) (*level, error) {
	lv := &level{digest: digest, r: rc, c: rc}
	hdr := make([]byte, blobHeaderSize)
	n, err := io.ReadFull(rc, hdr[:len(blobMagic)])
	switch {
	case err != nil && err != io.EOF && err != io.ErrUnexpectedEOF:
	case !IsContainer(hdr[:n]):
		lv.r, err = io.MultiReader(bytes.NewReader(hdr[:n]), rc), nil
	default: // a stream's size is unknown: a stored container's payload is the rest
		lv.pos = int64(n)
		if err = lv.read(lv.pos, hdr[n:]); err == nil {
			lv.meta, err = ParseContainerHeader(hdr, blobHeaderSize)
		}
		cs, w := int64(lv.meta.ChunkSize), int64(lv.meta.Width)
		lv.offs = []int64{blobHeaderSize + 4*((lv.meta.RawSize+cs-1)/max(cs, 1))}
		for k := int64(0); err == nil && k < lv.meta.RawSize; k += cs {
			if err = lv.read(lv.pos, hdr[:4]); err == nil {
				enc := int64(binary.LittleEndian.Uint32(hdr))
				if enc > min(cs, lv.meta.RawSize-k)+w*(1+binary.MaxVarintLen64) {
					err = errContainerHeader
				}
				lv.offs = append(lv.offs, lv.offs[len(lv.offs)-1]+enc)
			}
		}
		if lv.meta.Codec == CodecStored {
			lv.pos, lv.offs = 0, nil
		}
	}
	if err != nil {
		rc.Close()
		return nil, err
	}
	return lv, nil
}

// read fills p from offset off of the level's stream, skipping what lies
// before it; a stream that ends early is a truncated container.
func (lv *level) read(off int64, p []byte) error {
	if off < lv.pos {
		return fmt.Errorf("storage: stream read at %d after %d", off, lv.pos)
	}
	_, err := io.CopyN(io.Discard, lv.r, off-lv.pos)
	if err == nil {
		lv.pos = off + int64(len(p))
		_, err = io.ReadFull(lv.r, p)
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return errContainerShort
	}
	return err
}

// finish checks the level's stream ends where its payload does.
func (lv *level) finish() error {
	if err := lv.read(lv.pos, make([]byte, 1)); err != errContainerShort {
		return cmp.Or(err, fmt.Errorf("%w: bytes past the payload", ErrCorruptBlob))
	}
	return nil
}

// xorInto XORs the level's payload bytes [s, s+len(dst)), one chunk, into dst.
func (lv *level) xorInto(dst []byte, s int64, scratch *[]byte) error {
	if lv.offs == nil {
		buf := sized(scratch, len(dst))
		err := lv.read(s, buf)
		tensor.XORBytes(dst, dst, buf)
		return err
	}
	k := s / int64(lv.meta.ChunkSize)
	enc := sized(scratch, int(lv.offs[k+1]-lv.offs[k]))
	if err := lv.read(lv.offs[k], enc); err != nil {
		return err
	}
	return decodeChunk(dst, enc, lv.meta.Width)
}

// decodeChunk decodes one chunk stream and XORs the chunk into dst, its
// element-interleaved bytes (length = the chunk's raw length).
func decodeChunk(dst, stream []byte, width int) error {
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
			tensor.XORPlane(dst, enc, p, width)
		case planeTagRLE:
			if err := tensor.XORPlaneRLE(dst, enc, p, width); err != nil {
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

// chainReader delivers payload bytes [pos, end) of a coded blob.
type chainReader struct {
	levels         []*level
	size, pos, end int64
	scratch, stage *[]byte // from chunkBufs
	staged         []byte  // the staged chunk's undelivered bytes
	err            error
}

// openChain opens the decoder over the coded blob top and, through open (nil:
// not followed), each of its xor ancestors, checking depth, cycles, that each
// coded level decodes to top's size, and the range [off, off+n) (n < 0: to
// the end) before a payload byte is decoded.
func openChain(top *level, open func(digest string) (io.ReadCloser, error), off, n int64) (*chainReader, error) {
	c := &chainReader{levels: []*level{top}, size: top.meta.RawSize, pos: off, end: off + n,
		scratch: chunkBufs.Get().(*[]byte), stage: chunkBufs.Get().(*[]byte)}
	if n < 0 {
		c.end = c.size
	}
	err := checkRange(top.digest, off, c.end-off, c.size)
	for lv := top; err == nil && open != nil && lv.meta.Codec == CodecXORParent; {
		child, parent := lv.digest, lv.meta.Parent
		var rc io.ReadCloser
		switch {
		case slices.ContainsFunc(c.levels, func(l *level) bool { return l.digest == parent }):
			err = fmt.Errorf("%w: xor-parent chain cycles", ErrCorruptBlob)
		case len(c.levels) > MaxParentDepth:
			err = fmt.Errorf("%w: xor-parent chain deeper than %d", ErrCorruptBlob, MaxParentDepth)
		default:
			if rc, err = open(parent); IsNotExist(err) {
				err = fmt.Errorf("%w: %w", ErrCorruptBlob, err)
			}
		}
		if err == nil {
			if lv, err = openLevel(parent, rc); err == nil {
				c.levels = append(c.levels, lv)
			}
		}
		if err == nil && lv.offs != nil && (lv.meta.RawSize != c.size || lv.meta.ChunkSize != top.meta.ChunkSize) {
			err = fmt.Errorf("%w: %d bytes in %d-byte chunks, not %d in %d", ErrCorruptBlob, lv.meta.RawSize, lv.meta.ChunkSize, c.size, top.meta.ChunkSize)
		}
		if err != nil {
			err = fmt.Errorf("storage: blob %s: parent %s: %w", child, parent, err)
		}
	}
	for i := 0; err == nil && c.size == 0 && i < len(c.levels); i++ {
		err = c.levels[i].failed(c.levels[i].finish())
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// failed names the level's blob in err.
func (lv *level) failed(err error) error {
	if err != nil && lv.digest != "" {
		err = fmt.Errorf("storage: blob %s: %w", lv.digest, err)
	}
	return err
}

func (c *chainReader) Read(p []byte) (int, error) {
	n := 0
	for len(p) > 0 && c.err == nil && (len(c.staged) > 0 || c.pos < c.end) {
		if len(c.staged) == 0 {
			// The chunk at pos, folded straight into p when p takes it whole.
			cs := int64(c.levels[0].meta.ChunkSize)
			s, e := c.pos/cs*cs, min(c.pos/cs*cs+cs, c.size)
			dst, direct := p, s == c.pos && int64(len(p)) >= e-s
			if !direct {
				dst = sized(c.stage, int(e-s))
			}
			if c.err = c.fold(dst[:e-s], s); c.err != nil {
				break
			}
			out := dst[c.pos-s : min(e, c.end)-s]
			if c.pos += int64(len(out)); direct {
				p, n = p[len(out):], n+len(out)
				continue
			}
			c.staged = out
		}
		k := copy(p, c.staged)
		c.staged, p, n = c.staged[k:], p[k:], n+k
	}
	if n > 0 || len(p) == 0 {
		return n, nil
	}
	return 0, cmp.Or(c.err, io.EOF)
}

// fold writes the payload chunk at s into dst: every level XORed into zeroes,
// and at the payload's end every stream checked to end there too.
func (c *chainReader) fold(dst []byte, s int64) error {
	clear(dst)
	for _, lv := range c.levels {
		err := lv.xorInto(dst, s, c.scratch)
		if err == nil && s+int64(len(dst)) == c.size {
			err = lv.finish()
		}
		if err != nil {
			return lv.failed(err)
		}
	}
	return nil
}

// Close closes every level's stream and returns the scratch to the pool.
func (c *chainReader) Close() error {
	var err error
	for _, lv := range c.levels {
		err = cmp.Or(err, lv.c.Close())
	}
	if c.scratch != nil {
		chunkBufs.Put(c.scratch)
		chunkBufs.Put(c.stage)
	}
	*c = chainReader{err: errors.New("storage: read of a closed blob")}
	return err
}

// storedHeader returns just the 88-byte stored-codec header, for streaming
// writers that prepend it before payload bytes of unknown length.
func storedHeader() []byte { return containerHeader(CodecStored, 0, 0, 0, "") }

// containerHeader returns a container's 88-byte header, its chunk count zero.
func containerHeader(codec BlobCodec, width, rawSize, chunkSize int, parent string) []byte {
	hdr := make([]byte, blobHeaderSize)
	copy(hdr, blobMagic)
	hdr[4], hdr[5], hdr[6] = blobCodecVersion, byte(codec), byte(width)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(rawSize))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(chunkSize))
	copy(hdr[20:84], parent)
	return hdr
}

// EncodeContainer encodes raw into a plane or xor-parent container. For
// CodecXORParent, raw must already be payload XOR parent-payload and parent
// the parent's digest. Chunks are coded in parallel; gate (optional) bounds
// the raw bytes admitted to workers at once. The bool result is false when
// coding did not pay (the container would be at least as large as raw) — the
// caller should then store raw.
func EncodeContainer(raw []byte, codec BlobCodec, width int, parent string, gate *parallel.ByteGate) ([]byte, bool) {
	return encodeContainer(raw, codec, width, parent, defaultChunkSize, gate)
}

// encodeContainer is EncodeContainer at a given chunk size.
func encodeContainer(raw []byte, codec BlobCodec, width int, parent string, chunkSize int, gate *parallel.ByteGate) ([]byte, bool) {
	if codec != CodecPlane && codec != CodecXORParent {
		return nil, false
	}
	if width < 1 || width > 255 {
		width = 1
	}
	if codec == CodecXORParent && !ValidDigest(parent) {
		return nil, false
	}
	nChunks := (len(raw) + chunkSize - 1) / chunkSize
	encoded := make([][]byte, nChunks)
	_ = parallel.ForEach(runtime.GOMAXPROCS(0), nChunks, func(i int) error {
		chunk := raw[i*chunkSize : min(i*chunkSize+chunkSize, len(raw))]
		if gate != nil {
			gate.Acquire(int64(len(chunk)))
			defer gate.Release(int64(len(chunk)))
		}
		encoded[i] = encodeChunk(chunk, width)
		return nil
	})
	total := blobHeaderSize + 4*nChunks
	for _, c := range encoded {
		total += len(c)
	}
	if total >= len(raw) {
		return nil, false
	}
	out := append(make([]byte, 0, total), containerHeader(codec, width, len(raw), chunkSize, parent)...)
	binary.LittleEndian.PutUint32(out[84:88], uint32(nChunks))
	for _, c := range encoded {
		var l [4]byte
		binary.LittleEndian.PutUint32(l[:], uint32(len(c)))
		out = append(out, l[:]...)
	}
	for _, c := range encoded {
		out = append(out, c...)
	}
	return out, true
}

// encodeChunk plane-splits one chunk and codes each plane, falling back to a
// stored plane whenever RLE does not shrink it.
func encodeChunk(chunk []byte, width int) []byte {
	split := make([]byte, len(chunk))
	tensor.SplitPlanes(split, chunk, width)
	out := make([]byte, 0, len(chunk)/4+width*4)
	off := 0
	for p := 0; p < width; p++ {
		planeLen := tensor.PlaneLen(len(chunk), width, p)
		plane := split[off : off+planeLen]
		enc := tensor.AppendRLE(nil, plane)
		if len(enc) < planeLen {
			out = append(out, planeTagRLE)
			out = binary.AppendUvarint(out, uint64(len(enc)))
			out = append(out, enc...)
		} else {
			out = append(out, planeTagStored)
			out = binary.AppendUvarint(out, uint64(planeLen))
			out = append(out, plane...)
		}
		off += planeLen
	}
	return out
}
