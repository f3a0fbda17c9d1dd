// Retrying wrapper for flaky backends.
//
// Remote object stores fail transiently as a matter of course; clients are
// expected to retry idempotent requests with exponential backoff. Retry
// adds that layer over any Backend: operations whose replay is safe (whole
// object PUT, GET, DELETE, Compose) are re-attempted a bounded number of
// times when the underlying error is transient (IsTransient). Streams from
// Create buffer privately and replay as whole-object PUTs at Close, which
// is what makes a retried upload idempotent — and which means a Meter
// stacked UNDER the Retry charges open latency and per-chunk bandwidth on
// every attempt, as a real re-upload would cost.
//
// Backoff delays are delivered through the Sleep hook. The default really
// sleeps; simulation stacks point it at Meter.AddSimTime so waits are
// billed to the sim clock instead of wall time, with deterministic jitter
// from a seeded source.

package storage

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"
)

// DefaultRetryAttempts bounds the attempts per operation, first try
// included.
const DefaultRetryAttempts = 4

// Retry wraps a Backend with bounded-attempt retries of transient errors.
type Retry struct {
	// Exists (no error channel, nothing to retry) and Rename pass through. A
	// rename that failed mid-flight is not safely replayable — the source may
	// already have moved.
	Backend
	// Sleep delivers backoff delays (default time.Sleep). Point it at
	// Meter.AddSimTime to bill waits to the simulated clock.
	Sleep func(time.Duration)

	mu      sync.Mutex
	rng     *rand.Rand
	retries int64
}

// NewRetry wraps a backend; seed fixes the jitter schedule so exploration
// runs are reproducible.
func NewRetry(b Backend, seed int64) *Retry {
	return &Retry{Backend: b, rng: rand.New(rand.NewSource(seed))}
}

// Retries reports how many individual re-attempts (not counting first
// tries) the wrapper has performed.
func (r *Retry) Retries() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retries
}

func (r *Retry) sleep(d time.Duration) {
	if r.Sleep != nil {
		r.Sleep(d)
		return
	}
	time.Sleep(d)
}

// do runs op up to DefaultRetryAttempts times, backing off between
// transient failures. Only transient errors retry: an injected crash fault,
// a missing object or a genuine bug must surface on the first attempt.
func (r *Retry) do(op func() error) error {
	for k := 1; ; k++ {
		err := op()
		if err == nil || !IsTransient(err) || k >= DefaultRetryAttempts {
			return err
		}
		r.mu.Lock()
		r.retries++
		frac := r.rng.Float64()
		r.mu.Unlock()
		r.sleep(backoffJitter(k, frac))
	}
}

// backoffJitter derives a deterministic exponential-backoff delay with
// jitter for attempt k (1-based): 2ms·2^(k-1), capped at 1s, plus up to half
// of itself, from the caller-supplied jitter source, so tests can reproduce
// schedules exactly.
func backoffJitter(attempt int, frac float64) time.Duration {
	d := 2 * time.Millisecond << uint(attempt-1)
	if d > time.Second {
		d = time.Second
	}
	return d + time.Duration(float64(d)/2*frac)
}

// WriteFile implements Backend; a whole-object PUT is idempotent, so
// transient failures replay the full write.
func (r *Retry) WriteFile(name string, data []byte) error {
	return r.do(func() error { return r.Backend.WriteFile(name, data) })
}

// ReadFile implements Backend; GETs are idempotent.
func (r *Retry) ReadFile(name string) ([]byte, error) {
	var data []byte
	err := r.do(func() (e error) { data, e = r.Backend.ReadFile(name); return e })
	return data, err
}

// Create implements Backend. The stream buffers privately and replays as a
// retried WriteFile at Close: a half-sent stream cannot be resumed on an
// object store, only re-PUT from the start.
func (r *Retry) Create(name string) (io.WriteCloser, error) {
	return &retryWriter{r: r, name: name}, nil
}

type retryWriter struct {
	r      *Retry
	name   string
	buf    bytes.Buffer
	closed bool
}

func (w *retryWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("storage: write %s: stream closed", w.name)
	}
	return w.buf.Write(p)
}

func (w *retryWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.r.WriteFile(w.name, w.buf.Bytes())
}

// Open implements Backend; the open itself retries, the stream does not
// (a torn read surfaces to the caller, whose digest check re-drives it).
func (r *Retry) Open(name string) (io.ReadCloser, error) {
	var rc io.ReadCloser
	err := r.do(func() (e error) { rc, e = r.Backend.Open(name); return e })
	return rc, err
}

// OpenRange implements Backend.
func (r *Retry) OpenRange(name string, off, n int64) (io.ReadCloser, error) {
	var rc io.ReadCloser
	err := r.do(func() (e error) { rc, e = r.Backend.OpenRange(name, off, n); return e })
	return rc, err
}

// ReadAt implements Backend.
func (r *Retry) ReadAt(name string, off int64, p []byte) error {
	return r.do(func() error { return r.Backend.ReadAt(name, off, p) })
}

// Stat implements Backend.
func (r *Retry) Stat(name string) (int64, error) {
	var n int64
	err := r.do(func() (e error) { n, e = r.Backend.Stat(name); return e })
	return n, err
}

// List implements Backend.
func (r *Retry) List(dir string) ([]string, error) {
	var names []string
	err := r.do(func() (e error) { names, e = r.Backend.List(dir); return e })
	return names, err
}

// Remove implements Backend; object DELETE is idempotent.
func (r *Retry) Remove(name string) error {
	return r.do(func() error { return r.Backend.Remove(name) })
}

// Unwrap exposes the wrapped backend to the capability walk (publish.go).
func (r *Retry) Unwrap() Backend { return r.Backend }

// Compose implements Composer with retries: a failed compose leaves dst and
// the parts untouched (the Composer contract), so replaying is safe.
func (r *Retry) Compose(dst string, parts ...string) error {
	return r.do(func() error { return Compose(r.Backend, dst, parts...) })
}
