// Streaming primitives and the one kind of scratch space, Spool: unmetered
// storage holding a payload until it is written out, in memory (memSpool) or
// in a temp file (fileSpool, the one os.CreateTemp). NewSpool chooses between
// the two by backend, BufferPool.Spool (bufpool.go) by memory budget.

package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
)

// DefaultChunkBytes is the chunk size streaming callers use when they do not
// specify one. 256 KiB keeps per-stream buffers negligible next to tensor
// payloads while amortising per-call overhead.
const DefaultChunkBytes = 256 * 1024

// ChunkOrDefault normalises a chunk-size knob: non-positive means default.
func ChunkOrDefault(n int) int {
	if n <= 0 {
		return DefaultChunkBytes
	}
	return n
}

// CopyFile streams an entire file from one backend to another in chunkBytes
// chunks without interpreting a single byte — the shard-file raw-copy
// primitive. Both sides are charged by their own instrumentation exactly
// like any other stream. Returns the number of bytes copied.
func CopyFile(dst Backend, dstName string, src Backend, srcName string, chunkBytes int) (int64, error) {
	size, err := src.Stat(srcName)
	if err != nil {
		return 0, err
	}
	r, err := src.OpenRange(srcName, 0, size)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	w, err := dst.Create(dstName)
	if err != nil {
		return 0, err
	}
	n, err := io.CopyBuffer(w, r, make([]byte, ChunkOrDefault(chunkBytes)))
	if err != nil {
		w.Close()
		return n, fmt.Errorf("storage: copy %s -> %s: %w", srcName, dstName, err)
	}
	if err := w.Close(); err != nil {
		return n, fmt.Errorf("storage: copy %s -> %s: close: %w", srcName, dstName, err)
	}
	if n != size {
		return n, fmt.Errorf("storage: copy %s -> %s: copied %d of %d bytes", srcName, dstName, n, size)
	}
	return n, nil
}

// Spool is unmetered scratch space holding a payload between the moment it
// is produced and the moment it is written out: a container payload whose
// header (offsets, CRCs) is only known once the payload is complete, a blob a
// no-rename backend may PUT only once its digest is proven, a captured or
// hashed payload waiting for the write stage. Write the bytes, then Open any
// number of times: each reader is independent and covers every byte written.
// Release frees the spool — a pooled buffer goes back to its pool, a temp
// file is removed. It is idempotent and must not race an open reader; Write
// and Open fail after it.
type Spool interface {
	io.Writer
	// Len returns the number of bytes written so far.
	Len() int64
	// Open returns a fresh reader over the spooled bytes.
	Open() (io.ReadCloser, error)
	// Release frees the spool's resources. Idempotent.
	Release() error
}

var errSpoolReleased = errors.New("storage: spool used after Release")

// Reserve reserves capacity for n further bytes when the writer — a spool,
// or a stream from Create — holds what it is given in memory. Advisory:
// file-backed writers ignore it, and writes beyond the reservation still
// succeed. Writers that know a payload's total size upfront use this to
// replace repeated grow-and-move reallocation with a single exact
// allocation.
func Reserve(w io.Writer, n int64) {
	if g, ok := w.(interface{ Grow(n int64) }); ok && n > 0 {
		g.Grow(n)
	}
}

// NewSpool returns scratch space appropriate for the backend: file-backed
// where a backend on the wrapper chain provides it (OS spools to a temp file,
// so assembling a container never holds the payload in memory), in-memory
// otherwise. Payloads parked under a memory budget take their spool from
// BufferPool.Spool instead. Spools are implementation scratch — never charged
// to a Meter, never a fault point (a crash while spooling is
// indistinguishable from a crash at the first durable write of the spooled
// payload).
func NewSpool(b Backend) (Spool, error) {
	for ; b != nil; b = unwrap(b) {
		if s, ok := b.(interface{ NewSpool() (Spool, error) }); ok {
			return s.NewSpool()
		}
	}
	return &memSpool{}, nil
}

// memSpool holds the payload in memory: a buffer of its own (the Mem backend
// would hold the bytes in memory anyway) or one on loan from a BufferPool,
// handed back on Release. Plain append growth: the spare capacity of a
// pointer-free slice is never zeroed, so spooling a large container costs
// one move per byte instead of bytes.Buffer's zero-then-copy doubling.
type memSpool struct {
	data     []byte
	pool     *BufferPool // lender of data; nil when the buffer is the spool's own
	admitted int64       // bytes the pool's budget admitted for this spool
	released bool
}

func (s *memSpool) Write(p []byte) (int, error) {
	if s.released {
		return 0, errSpoolReleased
	}
	s.data = append(s.data, p...)
	return len(p), nil
}

// Grow reserves capacity for n further bytes (see Reserve).
func (s *memSpool) Grow(n int64) { s.data = grow(s.data, n) }

// grow returns data with room for n further bytes.
func grow(data []byte, n int64) []byte {
	if need := int64(len(data)) + n; need > int64(cap(data)) {
		nd := make([]byte, len(data), need)
		copy(nd, data)
		return nd
	}
	return data
}

func (s *memSpool) Len() int64 { return int64(len(s.data)) }

func (s *memSpool) Open() (io.ReadCloser, error) {
	if s.released {
		return nil, errSpoolReleased
	}
	return io.NopCloser(bytes.NewReader(s.data)), nil
}

func (s *memSpool) Release() error {
	if !s.released {
		s.released = true
		if s.pool != nil {
			s.pool.put(s.data, s.admitted)
		}
		s.data = nil
	}
	return nil
}

// fileSpool spools to a temp file on the local filesystem, outside the
// backend root: bounded memory, never visible to List, removed on Release.
// Readers share the file through ReadAt, each at its own offset.
type fileSpool struct {
	f        *os.File
	n        int64
	released bool
}

func newFileSpool() (Spool, error) {
	f, err := os.CreateTemp("", "llmtailor-spool-*")
	if err != nil {
		return nil, fmt.Errorf("storage: create spool: %w", err)
	}
	return &fileSpool{f: f}, nil
}

func (s *fileSpool) Write(p []byte) (int, error) {
	if s.released {
		return 0, errSpoolReleased
	}
	n, err := s.f.Write(p)
	s.n += int64(n)
	return n, err
}

func (s *fileSpool) Len() int64 { return s.n }

func (s *fileSpool) Open() (io.ReadCloser, error) {
	if s.released {
		return nil, errSpoolReleased
	}
	return io.NopCloser(io.NewSectionReader(s.f, 0, s.n)), nil
}

func (s *fileSpool) Release() error {
	if s.released {
		return nil
	}
	s.released = true
	err := s.f.Close()
	if rmErr := os.Remove(s.f.Name()); err == nil {
		err = rmErr
	}
	return err
}
