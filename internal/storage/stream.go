package storage

import (
	"bytes"
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

// Spool is unmetered scratch space for staging a container payload whose
// header (offsets, CRCs) is only known once the payload has been produced.
// Write the payload, then call Reader exactly once to stream it back out;
// Discard releases resources and is safe to call at any point (including
// after Reader's Close).
type Spool interface {
	io.Writer
	// Len returns the number of bytes written so far.
	Len() int64
	// Reader finishes the write side and streams the spooled bytes back.
	// Closing the reader releases the spool.
	Reader() (io.ReadCloser, error)
	// Discard drops the spool without reading it. Idempotent.
	Discard() error
}

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
// otherwise. Spools are implementation scratch — never charged to a Meter,
// never a fault point (a crash while spooling is indistinguishable from a
// crash at the first durable write of the spooled payload).
func NewSpool(b Backend) (Spool, error) {
	for ; b != nil; b = unwrap(b) {
		if s, ok := b.(interface{ NewSpool() (Spool, error) }); ok {
			return s.NewSpool()
		}
	}
	return &memSpool{}, nil
}

// memSpool buffers the payload in memory (the Mem backend would hold the
// bytes in memory anyway). Plain append growth: the spare capacity of a
// pointer-free slice is never zeroed, so spooling a large container costs
// one move per byte instead of bytes.Buffer's zero-then-copy doubling.
type memSpool struct {
	data []byte
}

func (s *memSpool) Write(p []byte) (int, error) {
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

func (s *memSpool) Len() int64     { return int64(len(s.data)) }
func (s *memSpool) Discard() error { s.data = nil; return nil }

func (s *memSpool) Reader() (io.ReadCloser, error) {
	return io.NopCloser(bytes.NewReader(s.data)), nil
}

// fileSpool spools to an unlinked-on-close temp file outside the backend
// root, so payload staging is bounded-memory and never visible to List.
type fileSpool struct {
	f    *os.File
	n    int64
	done bool
}

func newFileSpool() (Spool, error) {
	f, err := os.CreateTemp("", "llmtailor-spool-*")
	if err != nil {
		return nil, fmt.Errorf("storage: create spool: %w", err)
	}
	return &fileSpool{f: f}, nil
}

func (s *fileSpool) Write(p []byte) (int, error) {
	n, err := s.f.Write(p)
	s.n += int64(n)
	return n, err
}

func (s *fileSpool) Len() int64 { return s.n }

func (s *fileSpool) Reader() (io.ReadCloser, error) {
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("storage: rewind spool: %w", err)
	}
	return spoolReader{s}, nil
}

func (s *fileSpool) Discard() error {
	if s.done {
		return nil
	}
	s.done = true
	name := s.f.Name()
	s.f.Close()
	return os.Remove(name)
}

// spoolReader reads the spooled bytes back and removes the file on Close.
type spoolReader struct{ s *fileSpool }

func (r spoolReader) Read(p []byte) (int, error) { return r.s.f.Read(p) }
func (r spoolReader) Close() error               { return r.s.Discard() }
