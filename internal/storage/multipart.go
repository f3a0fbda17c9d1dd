// Parallel multipart streaming for high-latency backends.
//
// A serial stream to a remote object store pays the link's bandwidth for
// every byte back to back. Multipart upload splits the payload into parts,
// ships the parts concurrently (each on its own connection, so their
// transfer time overlaps), and completes with one server-side Compose —
// the standard S3 multipart shape. MultipartPut is the generic primitive;
// BlobStore uses it automatically for large blobs on compose-capable
// no-rename backends.

package storage

import (
	"fmt"
	"io"
	"time"

	"llmtailor/internal/parallel"
)

// Composer is the multipart-completion capability: Compose atomically
// concatenates the named parts (in order) into dst and deletes them. A
// failed compose must leave dst unchanged and the parts in place.
type Composer interface {
	Compose(dst string, parts ...string) error
}

// ComposeSupported reports whether a backend can complete multipart uploads:
// a probe on the wrapper chain answers first, otherwise whether the backend
// at the bottom of it is a Composer (a wrapper's Compose only forwards).
func ComposeSupported(b Backend) bool {
	for inner := b; inner != nil; inner = unwrap(inner) {
		if p, ok := inner.(interface{ ComposeSupported() bool }); ok {
			return p.ComposeSupported()
		}
		b = inner
	}
	_, ok := b.(Composer)
	return ok
}

// Compose invokes the Composer capability of the first backend on the
// wrapper chain that has one, or reports ErrNotSupported when none does.
func Compose(b Backend, dst string, parts ...string) error {
	for ; b != nil; b = unwrap(b) {
		if c, ok := b.(Composer); ok {
			return c.Compose(dst, parts...)
		}
	}
	return fmt.Errorf("storage: compose %s: %w", dst, ErrNotSupported)
}

// DefaultPartBytes is the multipart part size when the caller does not
// choose one: big enough to amortise per-request latency, small enough
// that a handful of in-flight parts keeps memory bounded.
const DefaultPartBytes = 4 * 1024 * 1024

// MultipartOptions tunes MultipartPut.
type MultipartOptions struct {
	// PartBytes is the part size (default DefaultPartBytes).
	PartBytes int
	// Workers bounds concurrent part uploads (default 8).
	Workers int
	// MaxInflightBytes caps the payload bytes buffered across in-flight
	// parts (default Workers×PartBytes); the reader stalls when uploads
	// fall behind, exactly like the merge pipeline's ByteGate budget.
	MaxInflightBytes int64
	// PartPrefix names the part objects: part i is uploaded as
	// PartPrefix + "NNNNNN". Defaults to dst + ".part-". Callers that
	// survive crashes should point it at residue-swept space (BlobStore
	// uses its staging directory).
	PartPrefix string
}

func (o MultipartOptions) partBytes() int {
	if o.PartBytes <= 0 {
		return DefaultPartBytes
	}
	return o.PartBytes
}

func (o MultipartOptions) workers() int {
	if o.Workers <= 0 {
		return 8
	}
	return o.Workers
}

func (o MultipartOptions) budget() int64 {
	if o.MaxInflightBytes > 0 {
		return o.MaxInflightBytes
	}
	return int64(o.workers()) * int64(o.partBytes())
}

// MultipartPut streams size bytes from r into dst. On a compose-capable
// backend with more than one part's worth of payload, parts upload in
// parallel under a bounded byte budget and a final Compose publishes dst
// atomically; otherwise the payload streams serially through Create. On
// error any uploaded parts are removed (best effort) and dst is untouched
// — a crash mid-multipart leaves only part residue under PartPrefix.
func MultipartPut(b Backend, dst string, r io.Reader, size int64, opts MultipartOptions) error {
	partBytes := int64(opts.partBytes())
	nparts := int((size + partBytes - 1) / partBytes)
	if nparts <= 1 || !ComposeSupported(b) {
		return serialPut(b, dst, r, size)
	}
	prefix := opts.PartPrefix
	if prefix == "" {
		prefix = dst + ".part-"
	}
	gate := parallel.NewByteGate(opts.budget())

	type part struct {
		name string
		data []byte
	}
	parts := make(chan part, nparts)
	names := make([]string, nparts)
	errc := make(chan error, 1)

	// The reader side: sequential, admission-gated. Each part buffer is
	// acquired from the gate before it is filled, so reading never runs
	// more than the budget ahead of the slowest upload.
	go func() {
		defer close(parts)
		for i := 0; i < nparts; i++ {
			n := partBytes
			if rem := size - int64(i)*partBytes; rem < n {
				n = rem
			}
			gate.Acquire(n)
			buf := make([]byte, n)
			if _, err := io.ReadFull(r, buf); err != nil {
				gate.Release(n)
				errc <- fmt.Errorf("storage: multipart %s: read part %d: %w", dst, i, err)
				return
			}
			name := fmt.Sprintf("%s%06d", prefix, i)
			names[i] = name
			parts <- part{name: name, data: buf}
		}
		errc <- nil
	}()

	uploadErr := parallel.ForEach(opts.workers(), nparts, func(int) error {
		p, ok := <-parts
		if !ok {
			return nil // reader aborted; its error arrives via errc
		}
		err := b.WriteFile(p.name, p.data)
		gate.Release(int64(len(p.data)))
		if err != nil {
			return err
		}
		return nil
	})
	readErr := <-errc

	cleanup := func() {
		for _, name := range names {
			if name != "" {
				b.Remove(name)
			}
		}
	}
	if readErr != nil {
		cleanup()
		return readErr
	}
	if uploadErr != nil {
		cleanup()
		return fmt.Errorf("storage: multipart %s: %w", dst, uploadErr)
	}
	if err := Compose(b, dst, names...); err != nil {
		cleanup()
		return fmt.Errorf("storage: multipart %s: %w", dst, err)
	}
	return nil
}

// serialPut is the fallback: one streamed object write.
func serialPut(b Backend, dst string, r io.Reader, size int64) error {
	w, err := b.Create(dst)
	if err != nil {
		return err
	}
	n, err := io.CopyBuffer(w, r, make([]byte, ChunkOrDefault(0)))
	if err != nil {
		w.Close()
		return fmt.Errorf("storage: put %s: %w", dst, err)
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("storage: put %s: %w", dst, err)
	}
	if n != size {
		return fmt.Errorf("storage: put %s: wrote %d of %d bytes", dst, n, size)
	}
	return nil
}

// backoffJitter derives a deterministic exponential-backoff delay with
// jitter for attempt k (1-based): base·2^(k-1) plus up to half of itself,
// from the caller-supplied jitter source. Shared by Retry so tests can
// reproduce schedules exactly.
func backoffJitter(base time.Duration, attempt int, frac float64) time.Duration {
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	d := base << uint(attempt-1)
	if d > time.Second {
		d = time.Second
	}
	return d + time.Duration(float64(d)/2*frac)
}
