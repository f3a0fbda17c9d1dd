package storage

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// ErrInjected is the error every injected fault surfaces as. Tests match it
// with errors.Is to distinguish injected crashes from genuine bugs.
var ErrInjected = errors.New("storage: injected fault")

// IsInjected reports whether an error chain contains an injected fault.
func IsInjected(err error) bool { return errors.Is(err, ErrInjected) }

// Fault wraps a Backend and injects a failure at the K-th mutating
// operation, emulating a process crash mid-checkpoint. Counted fault points
// are, in backend call order:
//
//   - WriteFile (optionally torn: a prefix of the data lands on disk),
//   - Create (the open itself),
//   - each chunk Write on a stream returned by Create (optionally torn:
//     a prefix of the chunk lands),
//   - Close of a created stream,
//   - Rename,
//   - Remove, and
//   - Compose (multipart completion).
//
// Once the armed fault fires, the wrapper enters the crashed state: every
// subsequent mutating operation fails immediately with ErrInjected, exactly
// as if the process had died — later writes of the same logical save can
// not "heal" the torn state. Reads keep working so recovery code can be
// exercised over the same wrapper without rebuilding it; call Reset to
// rearm, or read through the wrapped Backend directly.
//
// A Fault with no armed point is transparent and merely counts fault
// points: run the workload once unarmed, read Ops, then replay with
// FailAt(k) for k = 1..Ops to explore every crash point systematically.
type Fault struct {
	Backend // ReadFile, ReadAt, Stat, List and Exists pass through: reads are never fault points

	mu      sync.Mutex
	ops     int64 // fault points observed since the last Reset
	failAt  int64 // 1-based fault point to fail at; 0 = never
	torn    bool  // injected write faults first land a prefix of the data
	crashed bool
	// shortReads caps every stream Read at a few bytes, verifying readers
	// never assume a full buffer per call. It is adversarial, not a fault.
	shortReads bool
}

// NewFault wraps a backend with an unarmed fault injector.
func NewFault(b Backend) *Fault { return &Fault{Backend: b} }

// FailAt arms the injector to fail at the k-th fault point from now
// (1-based) and clears the counter and crashed state. k <= 0 disarms.
func (f *Fault) FailAt(k int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAt = int64(k)
	f.ops = 0
	f.crashed = false
}

// SetTorn selects whether injected write faults leave a torn prefix of the
// failing data behind (the realistic partially-flushed-page crash) instead
// of failing cleanly before any byte lands.
func (f *Fault) SetTorn(torn bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.torn = torn
}

// SetShortReads makes every stream returned by Open deliver at most a few
// bytes per Read call.
func (f *Fault) SetShortReads(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shortReads = on
}

// Ops returns the number of fault points observed since the last FailAt or
// Reset. Run the workload unarmed and use this as the exploration bound N.
func (f *Fault) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the armed fault has fired.
func (f *Fault) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Reset disarms the injector and clears the counter and crashed state.
func (f *Fault) Reset() { f.FailAt(0) }

// point registers one fault point. It returns (fire, torn): fire when this
// exact point is the armed one (or the backend has already crashed).
func (f *Fault) point() (bool, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return true, false
	}
	f.ops++
	if f.failAt > 0 && f.ops == f.failAt {
		f.crashed = true
		return true, f.torn
	}
	return false, false
}

func injectedf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrInjected)...)
}

// WriteFile implements Backend; one fault point, torn-aware.
func (f *Fault) WriteFile(name string, data []byte) error {
	if fire, torn := f.point(); fire {
		if torn && len(data) > 0 {
			f.Backend.WriteFile(name, data[:(len(data)+1)/2])
		}
		return injectedf("storage: write %s", name)
	}
	return f.Backend.WriteFile(name, data)
}

// Create implements Backend; the open is one fault point and the returned
// stream registers one per chunk Write plus one at Close.
func (f *Fault) Create(name string) (io.WriteCloser, error) {
	if fire, _ := f.point(); fire {
		return nil, injectedf("storage: create %s", name)
	}
	w, err := f.Backend.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultWriter{f: f, name: name, w: w}, nil
}

type faultWriter struct {
	f    *Fault
	name string
	w    io.WriteCloser
	dead bool // a clean fault cut this stream: no further byte reached the wire
}

func (w *faultWriter) Write(p []byte) (int, error) {
	if fire, torn := w.f.point(); fire {
		n := 0
		if torn && len(p) > 0 {
			// A torn final chunk: half of it reaches the backend before
			// the crash.
			n, _ = w.w.Write(p[:(len(p)+1)/2])
		} else {
			w.dead = true
		}
		return n, injectedf("storage: write %s", w.name)
	}
	return w.w.Write(p)
}

func (w *faultWriter) Close() error {
	if fire, _ := w.f.point(); fire {
		// A crash at the close itself models a request already in flight:
		// the backend may still apply it (on buffering backends Close IS
		// the publish). But a stream a clean fault already cut mid-write
		// never sent a complete request — forwarding the close would let a
		// buffering backend publish the partial buffer at the final name,
		// which an atomic-PUT store can not do. Such a stream just dies.
		if !w.dead {
			w.w.Close()
		}
		return injectedf("storage: close %s", w.name)
	}
	return w.w.Close()
}

// Open implements Backend; reads are never fault points, but honour the
// short-read mode.
func (f *Fault) Open(name string) (io.ReadCloser, error) {
	r, err := f.Backend.Open(name)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	short := f.shortReads
	f.mu.Unlock()
	if short {
		return &shortReader{r: r}, nil
	}
	return r, nil
}

// OpenRange implements Backend. Like Open, sectioned reads are never fault
// points (a crash mid-read is indistinguishable from a crash before the
// next durable write), but each chunk honours the short-read mode so raw
// extent copies are exercised against partial Read returns.
func (f *Fault) OpenRange(name string, off, n int64) (io.ReadCloser, error) {
	r, err := f.Backend.OpenRange(name, off, n)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	short := f.shortReads
	f.mu.Unlock()
	if short {
		return &shortReader{r: r}, nil
	}
	return r, nil
}

// shortReader delivers at most 7 bytes per Read.
type shortReader struct{ r io.ReadCloser }

func (s *shortReader) Read(p []byte) (int, error) {
	if len(p) > 7 {
		p = p[:7]
	}
	return s.r.Read(p)
}

func (s *shortReader) Close() error { return s.r.Close() }

// Rename implements Backend; one fault point (failing before the move, the
// staged tree stays un-published).
func (f *Fault) Rename(oldName, newName string) error {
	if fire, _ := f.point(); fire {
		return injectedf("storage: rename %s -> %s", oldName, newName)
	}
	return f.Backend.Rename(oldName, newName)
}

// Remove implements Backend; one fault point.
func (f *Fault) Remove(name string) error {
	if fire, _ := f.point(); fire {
		return injectedf("storage: remove %s", name)
	}
	return f.Backend.Remove(name)
}

// Unwrap exposes the wrapped backend to the capability walk (publish.go):
// protocols pick the same platform fork with or without fault injection.
func (f *Fault) Unwrap() Backend { return f.Backend }

// Compose implements Composer; one fault point. A fired fault fails before
// the backend mutates anything — Compose is atomic on the backend, so the
// only crash outcomes are "nothing happened" and "dst fully published",
// which is exactly the guarantee multipart recovery leans on.
func (f *Fault) Compose(dst string, parts ...string) error {
	if fire, _ := f.point(); fire {
		return injectedf("storage: compose %s", dst)
	}
	return Compose(f.Backend, dst, parts...)
}
