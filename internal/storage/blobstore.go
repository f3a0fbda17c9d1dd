// Content-addressed blob storage.
//
// A BlobStore keeps immutable payload blobs under a root directory, each
// named by the lowercase-hex SHA-256 of its contents with a two-character
// fan-out: `<root>/ab/abcdef...`. Writers stream into a uniquely named
// staging file under `<root>/.stage/` and publish with one atomic rename,
// so a crash mid-put leaves only staging residue — never a half-written
// blob under a valid digest. Puts are idempotent: a blob that already
// exists is never rewritten, which is the dedup win incremental
// checkpointing is built on.
//
// BlobStore is the only store there is. A root that declares a shard map
// (sharded.go) is the same store with one more path segment: subRoot routes
// a digest to `<root>/shard-<i>`, and the blob, staging and trash paths are
// all built from that sub-root, so every operation below is written once.
//
// The store itself holds no reference counts on disk (stored counters
// cannot survive crashes coherently); instead Sweep takes a refcount map
// derived by the caller from its committed manifests and removes exactly
// the unreferenced blobs plus any staging residue. A blob with a non-zero
// refcount is never touched.
package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"llmtailor/internal/parallel"
	"llmtailor/internal/tensor"
)

// ErrStagingLost reports that a writer's staging file vanished before its
// publishing rename: a sweep running concurrently mistook the in-flight
// put for crash residue and removed it. The put is retryable — re-stream
// the payload into a fresh staging name (PutStreamOpts does this) — and the
// bounded retry is what makes sweeping staging residue safe to run beside
// live writers.
var ErrStagingLost = errors.New("storage: staging file lost to a concurrent sweep")

// blobStageDir is the staging subdirectory blobs are streamed into before
// their publishing rename.
const blobStageDir = ".stage"

// blobTrashDir holds blobs a sweep has provisionally removed: the
// two-phase sweep renames a victim here, re-checks for references that
// appeared after its pin snapshot (a concurrent save reusing the blob),
// and only then purges — or restores. See Sweep.
const blobTrashDir = ".trash"

// blobSeq makes concurrent staging names unique within the process (two
// async savers putting the same digest must not interleave writes into one
// staging file).
var blobSeq atomic.Int64

// BlobStore is a content-addressed store rooted at a directory of a
// Backend.
//
// On a backend without rename (RenameSupported false — object stores) the
// store switches publication modes: writers spool the payload locally and
// publish with one idempotent whole-object PUT (multipart for large blobs
// when the backend can Compose). The PUT itself is atomic on an object
// store, so the no-half-written-blob invariant holds in both modes.
type BlobStore struct {
	b      Backend
	root   string
	rename bool
	// shards is the declared shard count, 0 for the flat layout; subs are the
	// directories blobs, staging and trash live under — the root itself when
	// flat, `<root>/shard-<i>` otherwise.
	shards int
	subs   []string
}

// NewBlobStore returns a flat store over root (e.g. "run/objects"). The root
// is created lazily by the first put. OpenCAS is the constructor that honours
// a declared shard map.
func NewBlobStore(b Backend, root string) *BlobStore {
	root = strings.TrimSuffix(root, "/")
	return &BlobStore{b: b, root: root, rename: RenameSupported(b), subs: []string{root}}
}

// Root returns the store's root directory (the one holding shards.json when
// sharded).
func (s *BlobStore) Root() string { return s.root }

// Shards returns the declared shard count, 0 for the flat layout.
func (s *BlobStore) Shards() int { return s.shards }

// subRoot is the one routing decision: the directory a digest's blob, its
// staging file and its trash entry live under. A sharded store routes by the
// digest's leading hex byte — the two characters the fan-out already uses —
// so each digest lives in exactly one shard. Malformed digests route to the
// first sub-root; every caller validates before touching the backend.
func (s *BlobStore) subRoot(digest string) string {
	if s.shards == 0 || len(digest) < 2 {
		return s.subs[0]
	}
	v, err := strconv.ParseUint(digest[:2], 16, 16)
	if err != nil {
		return s.subs[0]
	}
	return s.subs[int(v)%s.shards]
}

// ValidDigest reports whether d is a well-formed blob digest: 64 lowercase
// hex characters (SHA-256).
func ValidDigest(d string) bool {
	if len(d) != 64 {
		return false
	}
	for i := 0; i < len(d); i++ {
		c := d[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// DigestBytes returns the store digest of a byte slice.
func DigestBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Path returns the blob's path relative to the backend root.
func (s *BlobStore) Path(digest string) string {
	return s.subRoot(digest) + "/" + digest[:2] + "/" + digest
}

// Has reports whether the blob exists.
func (s *BlobStore) Has(digest string) bool {
	return ValidDigest(digest) && s.b.Exists(s.Path(digest))
}

// Stat returns the blob's size.
func (s *BlobStore) Stat(digest string) (int64, error) {
	if !ValidDigest(digest) {
		return 0, fmt.Errorf("storage: invalid blob digest %q", digest)
	}
	return s.b.Stat(s.Path(digest))
}

// Open opens a sequential reader over the blob's payload bytes. A blob
// stored as an LTBC container is decoded transparently (xor-parent chains
// resolved against the store), so readers always see the bytes the digest
// names.
func (s *BlobStore) Open(digest string) (io.ReadCloser, error) {
	if !ValidDigest(digest) {
		return nil, fmt.Errorf("storage: invalid blob digest %q", digest)
	}
	rc, err := s.b.Open(s.Path(digest))
	if err != nil {
		return nil, err
	}
	var magic [4]byte
	n, err := io.ReadFull(rc, magic[:])
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		// Shorter than the magic: raw by definition, fully read already.
		rc.Close()
		return io.NopCloser(bytes.NewReader(magic[:n])), nil
	}
	if err != nil {
		rc.Close()
		return nil, err
	}
	if !IsContainer(magic[:]) {
		return &prefixedReader{r: io.MultiReader(bytes.NewReader(magic[:]), rc), c: rc}, nil
	}
	rest, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return nil, err
	}
	raw, err := s.decodeContainerBlob(digest, append(magic[:], rest...), map[string]bool{digest: true}, 0)
	if err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(raw)), nil
}

// prefixedReader re-attaches sniffed leading bytes to the backend stream.
type prefixedReader struct {
	r io.Reader
	c io.Closer
}

func (p *prefixedReader) Read(b []byte) (int, error) { return p.r.Read(b) }
func (p *prefixedReader) Close() error               { return p.c.Close() }

// OpenRange opens a sectioned reader over the blob's payload bytes. Raw
// blobs serve the range straight off the backend; containers are decoded in
// full first (range reads address the *payload*, which has no fixed layout
// inside a container).
//
// A range from the payload's first byte — a whole raw payload, the common
// read — is ONE request: the backend is asked for the range itself (it
// checks the range against the stored size before anything is allocated) and
// the magic is sniffed off the head of the stream received, as Open does. A
// range that does not fit (a container is shorter than its payload, or a
// manifest claims more bytes than are stored) or a head that is the container
// magic falls back to sniffing first.
func (s *BlobStore) OpenRange(digest string, off, n int64) (io.ReadCloser, error) {
	if err := checkBlobRange(digest, off, n); err != nil {
		return nil, err
	}
	path := s.Path(digest)
	if off == 0 && n >= int64(len(blobMagic)) {
		rc, err := s.b.OpenRange(path, 0, n)
		if IsNotExist(err) {
			return nil, err
		}
		if err == nil {
			var magic [len(blobMagic)]byte
			if _, err := io.ReadFull(rc, magic[:]); err == nil && !IsContainer(magic[:]) {
				return &prefixedReader{r: io.MultiReader(bytes.NewReader(magic[:]), rc), c: rc}, nil
			}
			rc.Close()
		}
	}
	hdr, err := s.sniff(path)
	if err != nil {
		return nil, err
	}
	if !IsContainer(hdr) {
		return s.b.OpenRange(path, off, n)
	}
	return s.OpenRangeCoded(digest, off, n)
}

// OpenRangeCoded is OpenRange for a blob a manifest records as stored in a
// container: the whole object is read and decoded first, which is one request
// where OpenRange's ranged attempt would not fit the shorter container. The
// record is a hint, never trusted — a blob that turns out raw is served from
// the bytes read.
func (s *BlobStore) OpenRangeCoded(digest string, off, n int64) (io.ReadCloser, error) {
	if err := checkBlobRange(digest, off, n); err != nil {
		return nil, err
	}
	raw, err := s.readDecoded(digest)
	if err != nil {
		return nil, err
	}
	if off > int64(len(raw)) || n > int64(len(raw))-off {
		return nil, fmt.Errorf("storage: range [%d,+%d) beyond blob %s payload (%d bytes)", off, n, digest, len(raw))
	}
	return io.NopCloser(bytes.NewReader(raw[off : off+n])), nil
}

func checkBlobRange(digest string, off, n int64) error {
	if !ValidDigest(digest) {
		return fmt.Errorf("storage: invalid blob digest %q", digest)
	}
	if off < 0 || n < 0 {
		return fmt.Errorf("storage: invalid range [%d,+%d) for blob %s", off, n, digest)
	}
	return nil
}

// sniff reads up to the magic length from the head of an object.
func (s *BlobStore) sniff(path string) ([]byte, error) {
	rc, err := s.b.OpenRange(path, 0, int64(len(blobMagic)))
	if err != nil {
		// A file shorter than the magic cannot be a container; fall back to
		// a whole-object open so short raw blobs still sniff cleanly.
		rc, err = s.b.Open(path)
		if err != nil {
			return nil, err
		}
	}
	defer rc.Close()
	hdr := make([]byte, len(blobMagic))
	n, err := io.ReadFull(rc, hdr)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return hdr[:n], nil
	}
	if err != nil {
		return nil, err
	}
	return hdr, nil
}

// Meta describes how the blob is stored: its codec, uncompressed payload
// size, on-backend size, and (for xor-parent containers) the parent digest.
// For raw blobs RawSize == StoredSize.
func (s *BlobStore) Meta(digest string) (BlobMeta, error) {
	if !ValidDigest(digest) {
		return BlobMeta{}, fmt.Errorf("storage: invalid blob digest %q", digest)
	}
	path := s.Path(digest)
	size, err := s.b.Stat(path)
	if err != nil {
		return BlobMeta{}, err
	}
	if size < blobHeaderSize {
		return BlobMeta{Codec: CodecRaw, RawSize: size, StoredSize: size}, nil
	}
	rc, err := s.b.OpenRange(path, 0, blobHeaderSize)
	if err != nil {
		return BlobMeta{}, err
	}
	hdr := make([]byte, blobHeaderSize)
	_, rerr := io.ReadFull(rc, hdr)
	rc.Close()
	if rerr != nil {
		return BlobMeta{}, rerr
	}
	if !IsContainer(hdr) {
		return BlobMeta{Codec: CodecRaw, RawSize: size, StoredSize: size}, nil
	}
	meta, err := ParseContainerHeader(hdr, size)
	if err != nil {
		return BlobMeta{}, fmt.Errorf("storage: blob %s: %w", digest, err)
	}
	return meta, nil
}

// readDecoded returns the blob's full payload bytes with any container
// decoded and xor-parent chains resolved.
func (s *BlobStore) readDecoded(digest string) ([]byte, error) {
	return s.resolveLocal(digest, map[string]bool{}, 0)
}

// resolveLocal reads one blob and decodes it, recursing for xor parents
// (which route like any other digest). seen and depth bound the walk so a
// corrupt chain (cycle, self-parent, unbounded depth) errors instead of
// recursing forever.
func (s *BlobStore) resolveLocal(digest string, seen map[string]bool, depth int) ([]byte, error) {
	if depth > MaxParentDepth {
		return nil, fmt.Errorf("storage: blob %s: xor-parent chain deeper than %d", digest, MaxParentDepth)
	}
	if seen[digest] {
		return nil, fmt.Errorf("storage: blob %s: xor-parent chain cycles", digest)
	}
	seen[digest] = true
	rc, err := s.b.Open(s.Path(digest))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return nil, err
	}
	if !IsContainer(data) {
		return data, nil
	}
	return s.decodeContainerBlob(digest, data, seen, depth)
}

// decodeContainerBlob decodes container bytes read for digest, resolving the
// parent chain when the codec is xor-parent.
func (s *BlobStore) decodeContainerBlob(digest string, data []byte, seen map[string]bool, depth int) ([]byte, error) {
	payload, meta, err := DecodeContainer(data, DecodeOpts{})
	if err != nil {
		return nil, fmt.Errorf("storage: blob %s: %w", digest, err)
	}
	if meta.Codec != CodecXORParent {
		return payload, nil
	}
	parentRaw, err := s.resolveLocal(meta.Parent, seen, depth+1)
	if err != nil {
		return nil, fmt.Errorf("storage: blob %s: resolve parent: %w", digest, err)
	}
	if len(parentRaw) != len(payload) {
		return nil, fmt.Errorf("storage: blob %s: parent %s payload is %d bytes, delta is %d",
			digest, meta.Parent, len(parentRaw), len(payload))
	}
	raw := make([]byte, len(payload))
	tensor.XORBytes(raw, payload, parentRaw)
	return raw, nil
}

// BlobPutOptions requests an encoded put: the codec to try, the payload's
// element width, the parent digest (CodecXORParent) and an optional gate
// bounding the raw bytes the chunk coders hold in flight.
type BlobPutOptions struct {
	Codec  BlobCodec
	Width  int
	Parent string
	Gate   *parallel.ByteGate
}

// PutResult reports how a put ended up stored. On a dedup hit the fields
// describe the existing blob (whose codec may differ from the request).
type PutResult struct {
	Written     bool
	Codec       BlobCodec
	Parent      string
	RawBytes    int64
	StoredBytes int64
}

// PutStreamOpts is the store's one put: it stores a payload under its digest
// by replaying encode() into staging space, unless the blob already exists (a
// dedup hit moves not a single payload byte). It owns the byte source, so a
// staging file stolen by a concurrent sweep (ErrStagingLost) is survived by
// re-streaming into a fresh staging name — bounded, then surfaced honestly.
//
// Zero options stream the payload raw. A codec in opts encodes it when that
// pays, with a size-gated fallback chain xor-parent → plane → raw. The digest
// is ALWAYS verified over the uncompressed payload bytes before anything is
// published, whatever form ends up stored. An unreachable or size-mismatched
// parent demotes to plane rather than failing — compression is an
// optimization, never a correctness dependency.
//
// One probe (Meta) decides between a dedup hit and a publish, and it is the
// probe that describes the hit: there is no second look at a blob a sweep
// may have trashed in between. A blob this call wrote is described from what
// the writer holds, without reading it back.
func (s *BlobStore) PutStreamOpts(digest string, opts BlobPutOptions, encode func(io.Writer) (int64, error)) (PutResult, error) {
	if !ValidDigest(digest) {
		return PutResult{}, fmt.Errorf("storage: invalid blob digest %q", digest)
	}
	coded := opts.Codec == CodecPlane || opts.Codec == CodecXORParent
	var raw, container []byte
	codec, encoded := CodecRaw, false
	const maxAttempts = 8
	for attempt := 1; ; attempt++ {
		meta, err := s.Meta(digest)
		if err == nil {
			return PutResult{
				Codec: meta.Codec, Parent: meta.Parent,
				RawBytes: meta.RawSize, StoredBytes: meta.StoredSize,
			}, nil
		}
		if !IsNotExist(err) {
			return PutResult{}, err
		}
		if coded && !encoded {
			var buf bytes.Buffer
			sum := sha256.New()
			if _, err := encode(io.MultiWriter(&buf, sum)); err != nil {
				return PutResult{}, err
			}
			if got := hex.EncodeToString(sum.Sum(nil)); got != digest {
				return PutResult{}, fmt.Errorf("storage: blob content hashes to %s, want %s", got, digest)
			}
			raw, encoded = buf.Bytes(), true
			container, codec = s.encodeBlob(digest, raw, opts)
		}
		w, err := s.writer(digest)
		if err != nil {
			return PutResult{}, err
		}
		switch {
		case codec != CodecRaw:
			// The container's own bytes deliberately do not hash to the
			// digest — the payload they decode to does, verified above — so
			// the writer's escape decision and content-hash check are skipped.
			w.container, w.started = true, true
			_, err = w.Write(container)
		case coded:
			_, err = w.Write(raw)
		default:
			_, err = encode(w)
		}
		if err != nil {
			w.abort()
			return PutResult{}, err
		}
		written, err := w.commit()
		if written {
			res := PutResult{Written: true, Codec: codec, RawBytes: w.n, StoredBytes: w.stored}
			switch {
			case codec != CodecRaw:
				res.RawBytes = int64(len(raw)) // the writer counted container bytes
				if codec == CodecXORParent {
					res.Parent = opts.Parent
				}
			case w.escaped:
				res.Codec = CodecStored
			}
			return res, nil
		}
		// err == nil here means another writer published the digest first:
		// go round again and describe the blob that won; a staging file
		// stolen by a concurrent sweep is re-streamed the same way.
		if attempt >= maxAttempts || (err != nil && !errors.Is(err, ErrStagingLost)) {
			if err == nil {
				err = fmt.Errorf("storage: blob %s: lost the publish race %d times without finding the winner", digest, attempt)
			}
			return PutResult{}, err
		}
	}
}

// encodeBlob picks the effective codec for raw under opts, returning the
// container bytes, or (nil, CodecRaw) when nothing pays.
func (s *BlobStore) encodeBlob(digest string, raw []byte, opts BlobPutOptions) ([]byte, BlobCodec) {
	codec := opts.Codec
	if codec == CodecXORParent {
		if ValidDigest(opts.Parent) && opts.Parent != digest {
			parentRaw, err := s.resolveLocal(opts.Parent, map[string]bool{digest: true}, 1)
			if err == nil && len(parentRaw) == len(raw) {
				delta := make([]byte, len(raw))
				tensor.XORBytes(delta, raw, parentRaw)
				if c, ok := EncodeContainer(delta, CodecXORParent, opts.Width, opts.Parent, opts.Gate); ok {
					return c, CodecXORParent
				}
			}
		}
		codec = CodecPlane
	}
	if codec == CodecPlane {
		if c, ok := EncodeContainer(raw, CodecPlane, opts.Width, "", opts.Gate); ok {
			return c, CodecPlane
		}
	}
	return nil, CodecRaw
}

// writer opens a streaming writer for one blob. The caller streams the
// payload, then calls commit — which verifies the bytes actually written
// against the digest — to publish, or abort to drop the staging file.
func (s *BlobStore) writer(digest string) (*blobWriter, error) {
	// The PID keeps staging names unique across processes sharing a run
	// root (a dedup-saving trainer and a -dedup merge, say): OS Create
	// truncates rather than excluding, so a name collision would
	// interleave two writers' bytes in one staging file.
	stage := fmt.Sprintf("%s/%s/put-%d-%d", s.subRoot(digest), blobStageDir, os.Getpid(), blobSeq.Add(1))
	w := &blobWriter{s: s, digest: digest, stage: stage, sum: sha256.New()}
	var err error
	if !s.rename {
		// No rename to publish with: spool the payload locally, verify the
		// digest against the spooled bytes, then publish with one atomic
		// PUT at commit. Nothing touches the backend until the content is
		// proven, so ErrStagingLost cannot occur in this mode.
		if w.spool, err = NewSpool(s.b); err != nil {
			return nil, fmt.Errorf("storage: spool blob: %w", err)
		}
	} else if w.w, err = s.b.Create(stage); err != nil {
		return nil, fmt.Errorf("storage: stage blob: %w", err)
	}
	return w, nil
}

// blobWriter streams one blob into staging space; see BlobStore.writer.
type blobWriter struct {
	s      *BlobStore
	digest string
	stage  string
	w      io.WriteCloser // rename mode: staging stream
	spool  Spool          // no-rename mode: local spool until commit
	sum    hash.Hash
	n      int64 // payload bytes streamed by the caller
	// The first magic-length payload bytes are held back until the escape
	// decision: a raw payload that begins with the container magic is
	// prefixed with a stored-codec header so file bytes starting with "LTBC"
	// are always a container. container marks an internal put whose bytes
	// already ARE a container (no escape, no content-hash check — the digest
	// names the payload, not the container).
	head      []byte
	started   bool
	container bool
	escaped   bool  // the stored-codec escape header was emitted
	stored    int64 // bytes written to the staging stream / spool
}

// Write implements io.Writer. The payload hash always covers the caller's
// bytes; the escape header, when emitted, is storage framing outside it.
func (w *blobWriter) Write(p []byte) (int, error) {
	if !w.started {
		w.sum.Write(p)
		w.n += int64(len(p))
		w.head = append(w.head, p...)
		if len(w.head) < len(blobMagic) {
			return len(p), nil
		}
		if err := w.flushHead(); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	n, err := w.writeOut(p)
	if n > 0 {
		w.sum.Write(p[:n])
		w.n += int64(n)
	}
	return n, err
}

// flushHead makes the escape decision and starts the underlying stream.
func (w *blobWriter) flushHead() error {
	w.started = true
	if IsContainer(w.head) {
		w.escaped = true
		if _, err := w.writeOut(storedHeader()); err != nil {
			return err
		}
	}
	_, err := w.writeOut(w.head)
	w.head = nil
	return err
}

// writeOut sends bytes to the staging stream (rename mode) or spool.
func (w *blobWriter) writeOut(p []byte) (int, error) {
	var n int
	var err error
	if w.spool != nil {
		n, err = w.spool.Write(p)
	} else {
		n, err = w.w.Write(p)
	}
	w.stored += int64(n)
	return n, err
}

// commit closes the staging stream, verifies the streamed bytes hash to the
// writer's digest, and publishes the blob with one atomic rename. It returns
// false (without error) when another writer published the same digest first —
// content-addressing makes the copies identical, so losing the race is a
// dedup hit, not a failure.
func (w *blobWriter) commit() (bool, error) {
	digest := w.digest
	if !w.started {
		// Payload shorter than the magic: the escape decision is trivially
		// "raw"; flush what was held back.
		if err := w.flushHead(); err != nil {
			w.abort()
			return false, fmt.Errorf("storage: stage blob %s: %w", digest, err)
		}
	}
	if w.spool != nil {
		return w.commitPut()
	}
	if err := w.w.Close(); err != nil {
		w.s.b.Remove(w.stage)
		return false, fmt.Errorf("storage: stage blob %s: %w", digest, err)
	}
	if got := hex.EncodeToString(w.sum.Sum(nil)); !w.container && got != digest {
		w.s.b.Remove(w.stage)
		return false, fmt.Errorf("storage: blob content hashes to %s, want %s", got, digest)
	}
	if w.s.Has(digest) {
		w.s.b.Remove(w.stage)
		return false, nil
	}
	if err := w.s.b.Rename(w.stage, w.s.Path(digest)); err != nil {
		if w.s.Has(digest) {
			// Lost the publish race to another writer of the same digest
			// (possibly after a sweep stole our staging file): the content
			// is durably stored, so this is a dedup hit, not a failure.
			w.s.b.Remove(w.stage)
			return false, nil
		}
		if !w.s.b.Exists(w.stage) {
			return false, fmt.Errorf("storage: publish blob %s: %w", digest, ErrStagingLost)
		}
		w.s.b.Remove(w.stage)
		return false, fmt.Errorf("storage: publish blob %s: %w", digest, err)
	}
	return true, nil
}

// commitPut is commit for no-rename backends: verify the spooled content,
// then publish with one whole-object PUT — multipart when the payload
// spans several parts and the backend can Compose, serial otherwise. Part
// objects are named into the staging directory so residue from a crash
// mid-multipart is swept exactly like rename-mode staging residue.
func (w *blobWriter) commitPut() (bool, error) {
	digest := w.digest
	defer w.spool.Discard()
	if got := hex.EncodeToString(w.sum.Sum(nil)); !w.container && got != digest {
		return false, fmt.Errorf("storage: blob content hashes to %s, want %s", got, digest)
	}
	if w.s.Has(digest) {
		return false, nil
	}
	r, err := w.spool.Reader()
	if err != nil {
		return false, fmt.Errorf("storage: publish blob %s: %w", digest, err)
	}
	defer r.Close()
	// w.stored, not w.n: an escape header makes the object longer than the
	// payload the caller streamed.
	opts := MultipartOptions{PartPrefix: w.stage + ".part-"}
	if err := MultipartPut(w.s.b, w.s.Path(digest), r, w.stored, opts); err != nil {
		if w.s.Has(digest) {
			// Lost the publish race to another writer of the same digest;
			// content addressing makes the copies identical.
			return false, nil
		}
		return false, fmt.Errorf("storage: publish blob %s: %w", digest, err)
	}
	return true, nil
}

// abort drops the staging state of a writer that will not commit.
func (w *blobWriter) abort() {
	if w.spool != nil {
		w.spool.Discard()
		return
	}
	w.w.Close()
	w.s.b.Remove(w.stage)
}

// BlobInfo describes one stored blob.
type BlobInfo struct {
	Digest string
	Size   int64
}

// List enumerates the store: published blobs (sorted by digest) and any
// staging residue paths left by crashed puts. Entries under a sub-root that
// are neither are reported as stray so scans can surface them.
func (s *BlobStore) List() (blobs []BlobInfo, staging, stray []string, err error) {
	for _, sub := range s.subs {
		if !s.b.Exists(sub) {
			continue
		}
		entries, err := s.b.List(sub)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("storage: list blob store %s: %w", sub, err)
		}
		for _, e := range entries {
			name := strings.TrimSuffix(e, "/")
			dir := sub + "/" + name
			switch {
			case name == RefsDirName && strings.HasSuffix(e, "/"):
				// The journaled ref index lives under the store root but is
				// managed by RefIndex, not the blob sweeper.
				continue
			case name == blobTrashDir && strings.HasSuffix(e, "/"):
				// Trash is enumerated separately (ListTrash); a sweep in
				// progress or a crash mid-sweep leaves entries here.
				continue
			case name == blobStageDir && strings.HasSuffix(e, "/"):
				staging = append(staging, s.listDir(dir)...)
			case len(name) == 2 && strings.HasSuffix(e, "/"):
				for _, p := range s.listDir(dir) {
					fname := p[len(dir)+1:]
					if !ValidDigest(fname) || !strings.HasPrefix(fname, name) {
						stray = append(stray, p)
						continue
					}
					blobs = append(blobs, BlobInfo{Digest: fname, Size: s.sizeOf(p)})
				}
			default:
				stray = append(stray, dir)
			}
		}
	}
	sort.Slice(blobs, func(i, j int) bool { return blobs[i].Digest < blobs[j].Digest })
	sort.Strings(staging)
	sort.Strings(stray)
	return blobs, staging, stray, nil
}

// listDir returns the paths directly under dir, or nothing when the listing
// fails: a concurrent publish or purge can drain a directory between its
// parent's listing and its own (implied directories vanish with their last
// file), and whatever is missed here is caught by the next pass.
func (s *BlobStore) listDir(dir string) []string {
	files, err := s.b.List(dir)
	if err != nil {
		return nil
	}
	for i, f := range files {
		files[i] = dir + "/" + strings.TrimSuffix(f, "/")
	}
	return files
}

// sizeOf stats one enumerated object, -1 when it vanished meanwhile.
func (s *BlobStore) sizeOf(path string) int64 {
	size, err := s.b.Stat(path)
	if err != nil {
		return -1
	}
	return size
}

// SweepReport records what a sweep removed and kept.
type SweepReport struct {
	// Kept is the number of blobs with a non-zero refcount (including any
	// restored from trash by the recheck).
	Kept int
	// Examined is the number of candidates the sweep considered: every
	// blob in the store for a whole-store sweep, only the candidate digests
	// otherwise — the cost difference the ref index buys. Pinned candidates
	// count too, so the two modes report comparably.
	Examined int
	// RemovedBlobs lists swept (unreferenced) blob digests.
	RemovedBlobs []string
	// Restored lists digests the post-trash recheck rescued: a reference
	// appeared (a concurrent save reusing the blob) after the pin
	// snapshot, so the provisional removal was undone.
	Restored []string
	// RemovedStaging lists deleted staging-residue paths.
	RemovedStaging []string
	// BytesFreed totals the removed blobs' sizes.
	BytesFreed int64
}

// Add accumulates another sweep's accounting into r.
func (r *SweepReport) Add(o *SweepReport) {
	r.Kept += o.Kept
	r.Examined += o.Examined
	r.RemovedBlobs = append(r.RemovedBlobs, o.RemovedBlobs...)
	r.Restored = append(r.Restored, o.Restored...)
	r.RemovedStaging = append(r.RemovedStaging, o.RemovedStaging...)
	r.BytesFreed += o.BytesFreed
}

// TrashPath returns a digest's location inside the trash area.
func (s *BlobStore) TrashPath(digest string) string {
	return s.subRoot(digest) + "/" + blobTrashDir + "/" + digest
}

// moveObject relocates one object: a single atomic rename when the backend
// has one, copy-then-delete otherwise. In the copy mode the destination is
// fully published before the source disappears, so a crash between the two
// steps leaves the object visible at both paths — and both callers
// (trash/restore) converge from that state on the next pass: Restore drops
// the redundant trash copy, and a re-trash of an already-trashed digest
// just re-copies identical content.
func (s *BlobStore) moveObject(from, to string) error {
	if s.rename {
		return s.b.Rename(from, to)
	}
	if _, err := CopyFile(s.b, to, s.b, from, 0); err != nil {
		return err
	}
	return s.b.Remove(from)
}

// Trash provisionally removes a blob into the trash area. The blob stops
// being visible to Has/Open; a recheck either restores it or purges it.
func (s *BlobStore) Trash(digest string) error {
	if !ValidDigest(digest) {
		return fmt.Errorf("storage: invalid blob digest %q", digest)
	}
	return s.moveObject(s.Path(digest), s.TrashPath(digest))
}

// Restore undoes a provisional removal. If the blob was re-published
// meanwhile (a racing writer saw it missing and re-streamed it), the
// trash copy is simply dropped — content addressing makes the copies
// identical.
func (s *BlobStore) Restore(digest string) error {
	if !ValidDigest(digest) {
		return fmt.Errorf("storage: invalid blob digest %q", digest)
	}
	if s.Has(digest) {
		return s.b.Remove(s.TrashPath(digest))
	}
	return s.moveObject(s.TrashPath(digest), s.Path(digest))
}

// PurgeTrash deletes a trashed blob permanently.
func (s *BlobStore) PurgeTrash(digest string) error {
	if !ValidDigest(digest) {
		return fmt.Errorf("storage: invalid blob digest %q", digest)
	}
	return s.b.Remove(s.TrashPath(digest))
}

// ListTrash enumerates trashed blobs (a sweep in progress, or residue of
// one that crashed between trash and purge).
func (s *BlobStore) ListTrash() ([]BlobInfo, error) {
	var out []BlobInfo
	for _, sub := range s.subs {
		dir := sub + "/" + blobTrashDir
		for _, p := range s.listDir(dir) {
			if name := p[len(dir)+1:]; ValidDigest(name) {
				out = append(out, BlobInfo{Digest: name, Size: s.sizeOf(p)})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Digest < out[j].Digest })
	return out, nil
}

// SweepSpec is one sweep of the store.
type SweepSpec struct {
	// Candidates are the digests to examine. nil means the whole store:
	// every published blob is listed and examined, and staging residue is
	// removed too. A candidate sweep never lists the store, so its cost is
	// O(candidates) however many live blobs have accumulated.
	Candidates []string
	// Pins is the keep set: a digest with Pins[digest] > 0 is never touched.
	Pins map[string]int
	// Recheck, when set, re-derives the pins after the victims were trashed;
	// any victim it covers is restored instead of purged. Sweeps that may run
	// beside live savers must supply one.
	Recheck func() (map[string]int, error)
	// DryRun examines and reports what a real sweep would remove, mutating
	// nothing.
	DryRun bool
}

// Sweep examines the spec's candidates and removes those that exist and are
// not pinned. A pinned blob is never touched, whatever else fails: removals
// are per blob, so an interrupted sweep only leaves garbage (or trash) for
// the next run. Stray entries are left alone — the sweeper only deletes
// what it fully understands.
//
// Removal is two-phase, which is what makes sweeping safe beside concurrent
// savers. A saver that reuses an existing blob never rewrites it, so a pin
// snapshot taken before the saver journaled could condemn a blob a
// just-committed checkpoint references. Victims are therefore renamed into
// trash, Recheck re-derives the pins, and only then are they purged — or
// restored. A saver appends its journal record BEFORE its reuse probe, and
// probes each blob exactly once after the append (ckpt's payload.land: a Stat
// when the parent's manifest already describes the blob, the Meta that opens
// PutStreamOpts otherwise); a hit is described by that probe or that
// manifest and a fresh put by its writer, so nothing looks at the blob a
// second time. If the probe saw the blob, it ran before the trash rename, so
// the record was appended before the recheck read it and the blob is
// restored; if it ran after the rename, it saw the blob missing and the
// saver re-published it — or, no longer holding the bytes, failed before
// committing anything. Either way no referenced blob is lost.
func (s *BlobStore) Sweep(spec SweepSpec) (*SweepReport, error) {
	rep := &SweepReport{}
	var blobs []BlobInfo
	if spec.Candidates == nil {
		var staging []string
		var err error
		if blobs, staging, _, err = s.List(); err != nil {
			return nil, err
		}
		for _, p := range staging {
			if !spec.DryRun {
				if err := s.b.Remove(p); err != nil {
					return rep, fmt.Errorf("storage: sweep staging %s: %w", p, err)
				}
			}
			rep.RemovedStaging = append(rep.RemovedStaging, p)
		}
	}
	for _, d := range spec.Candidates {
		if !ValidDigest(d) {
			return rep, fmt.Errorf("storage: sweep candidate: invalid digest %q", d)
		}
		blobs = append(blobs, BlobInfo{Digest: d, Size: -1})
	}
	var trashed []BlobInfo
	for _, blob := range blobs {
		rep.Examined++
		if spec.Pins[blob.Digest] > 0 {
			rep.Kept++
			continue
		}
		if spec.Candidates != nil {
			var err error
			if blob.Size, err = s.Stat(blob.Digest); err != nil {
				continue // already gone (a previous sweep, or never stored)
			}
		}
		if !spec.DryRun {
			if err := s.Trash(blob.Digest); err != nil {
				return rep, fmt.Errorf("storage: sweep blob %s: %w", blob.Digest, err)
			}
		}
		trashed = append(trashed, blob)
	}
	var pins map[string]int // stays empty in a dry run: nothing was trashed
	if spec.Recheck != nil && !spec.DryRun && len(trashed) > 0 {
		var err error
		if pins, err = spec.Recheck(); err != nil {
			return rep, err
		}
	}
	for _, blob := range trashed {
		if pins[blob.Digest] > 0 {
			if err := s.Restore(blob.Digest); err != nil {
				return rep, fmt.Errorf("storage: restore blob %s: %w", blob.Digest, err)
			}
			rep.Restored = append(rep.Restored, blob.Digest)
			rep.Kept++
			continue
		}
		if !spec.DryRun {
			if err := s.PurgeTrash(blob.Digest); err != nil {
				return rep, fmt.Errorf("storage: purge blob %s: %w", blob.Digest, err)
			}
		}
		rep.RemovedBlobs = append(rep.RemovedBlobs, blob.Digest)
		if blob.Size > 0 {
			rep.BytesFreed += blob.Size
		}
	}
	return rep, nil
}

// StagingResidue lists the store's staging-residue paths without walking
// the blob fan-out — the cheap cleanup enumeration the generational sweep
// uses (a full List touches every stored blob).
func (s *BlobStore) StagingResidue() ([]string, error) {
	var out []string
	for _, sub := range s.subs {
		out = append(out, s.listDir(sub+"/"+blobStageDir)...)
	}
	sort.Strings(out)
	return out, nil
}
