// An in-process object store.
//
// ObjStore models the storage semantics of S3-class object stores, which
// differ from a filesystem in exactly the ways the checkpoint commit
// protocol cares about:
//
//   - the namespace is flat: "directories" are implied by key prefixes,
//     appear when the first object under them is PUT and vanish with the
//     last one — they cannot exist empty;
//   - PUTs are whole-object and atomic: a reader sees the previous object
//     or the new one, never a prefix (streamed writers buffer privately
//     and publish at Close);
//   - there is no rename. Rename returns ErrNotSupported, and publication
//     protocols must be re-derived around object visibility (see
//     ckpt.Txn's write-objects-then-manifest mode);
//   - requests fail transiently (throttling, connection resets) and must
//     be retried by the client (see Retry); and
//   - every request crosses a high-latency link, so large objects want
//     parallel multipart uploads (see MultipartPut and Compose).
//
// The fake injects the last two dimensions directly: SetLatency adds real
// per-request and per-byte delays (so parallel multipart streaming is
// measurably faster than serial, not just notionally), and SetFlakeEvery
// makes every k-th PUT fail with a transient error. Fault and Meter wrap
// an ObjStore like any other Backend for crash exploration and accounting.

package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrNotSupported reports that a backend cannot perform an operation at
// all — not a transient failure but a structural capability gap (an object
// store has no rename). Callers branch on capabilities up front
// (RenameSupported, ComposeSupported) rather than probing with errors.
var ErrNotSupported = errors.New("storage: operation not supported by this backend")

// ErrTransient marks failures that are safe and worthwhile to retry: the
// operation may have been dropped by the link or throttled by the store,
// and replaying it (PUTs are idempotent whole-object writes) can succeed.
var ErrTransient = errors.New("storage: transient backend error")

// IsTransient reports whether an error chain contains a transient failure.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// ObjStore is the in-process object-store Backend. Safe for concurrent use.
type ObjStore struct {
	mu      sync.RWMutex
	objects map[string][]byte

	// Latency model (real sleeps, so parallel uploads genuinely overlap).
	latMu       sync.RWMutex
	perOp       time.Duration
	bytesPerSec float64

	// Deterministic transient-failure injection: every flakeEvery-th PUT
	// fails with ErrTransient before mutating anything.
	flakeEvery int64
	puts       int64
}

// NewObjStore returns an empty in-process object store with no injected
// latency or failures.
func NewObjStore() *ObjStore { return &ObjStore{objects: map[string][]byte{}} }

// SetLatency configures the simulated link: perOp is charged (slept) once
// per request, and payload bytes flow at bytesPerSec (0 = infinite).
func (s *ObjStore) SetLatency(perOp time.Duration, bytesPerSec float64) {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	s.perOp, s.bytesPerSec = perOp, bytesPerSec
}

// SetFlakeEvery makes every k-th PUT (WriteFile, stream Close, Compose)
// fail with ErrTransient before any state changes; k <= 0 disables. The
// counter is deterministic, so tests can pin which attempt fails.
func (s *ObjStore) SetFlakeEvery(k int) {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	s.flakeEvery = int64(k)
	s.puts = 0
}

// sleepOp models one request's round trip.
func (s *ObjStore) sleepOp() {
	s.latMu.RLock()
	d := s.perOp
	s.latMu.RUnlock()
	if d > 0 {
		time.Sleep(d)
	}
}

// sleepBytes models n payload bytes crossing the link.
func (s *ObjStore) sleepBytes(n int) {
	s.latMu.RLock()
	bw := s.bytesPerSec
	s.latMu.RUnlock()
	if bw > 0 && n > 0 {
		time.Sleep(time.Duration(float64(n) / bw * float64(time.Second)))
	}
}

// flake charges one PUT against the injected failure schedule.
func (s *ObjStore) flake() error {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	if s.flakeEvery <= 0 {
		return nil
	}
	s.puts++
	if s.puts%s.flakeEvery == 0 {
		return fmt.Errorf("storage: injected flake (put %d): %w", s.puts, ErrTransient)
	}
	return nil
}

func objKey(name string) string { return strings.TrimPrefix(path.Clean("/"+name), "/") }

func objNotExist(op, name string) error {
	return fmt.Errorf("storage: %s %s: %w", op, name, fs.ErrNotExist)
}

// WriteFile implements Backend: one atomic whole-object PUT.
func (s *ObjStore) WriteFile(name string, data []byte) error {
	s.sleepOp()
	s.sleepBytes(len(data))
	if err := s.flake(); err != nil {
		return fmt.Errorf("storage: put %s: %w", name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects[objKey(name)] = append([]byte(nil), data...)
	return nil
}

// ReadFile implements Backend: one whole-object GET.
func (s *ObjStore) ReadFile(name string) ([]byte, error) {
	s.sleepOp()
	s.mu.RLock()
	data, ok := s.objects[objKey(name)]
	s.mu.RUnlock()
	if !ok {
		return nil, objNotExist("read", name)
	}
	s.sleepBytes(len(data))
	return append([]byte(nil), data...), nil
}

// Create implements Backend. The stream buffers privately; the object
// appears atomically when the writer is closed (PUT semantics — a crashed
// or abandoned stream leaves no trace, there are no partial objects).
// Bandwidth latency is charged per chunk as bytes are written, so
// concurrent streams genuinely overlap their transfer time.
func (s *ObjStore) Create(name string) (io.WriteCloser, error) {
	s.sleepOp()
	return &objWriter{s: s, key: objKey(name), name: name}, nil
}

type objWriter struct {
	s      *ObjStore
	key    string
	name   string
	buf    bytes.Buffer
	closed bool
}

func (w *objWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("storage: write %s: stream closed", w.name)
	}
	w.s.sleepBytes(len(p))
	return w.buf.Write(p)
}

func (w *objWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.s.flake(); err != nil {
		return fmt.Errorf("storage: put %s: %w", w.name, err)
	}
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	w.s.objects[w.key] = append([]byte(nil), w.buf.Bytes()...)
	return nil
}

// Open implements Backend.
func (s *ObjStore) Open(name string) (io.ReadCloser, error) {
	data, err := s.ReadFile(name)
	if err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}

// OpenRange implements Backend (a ranged GET).
func (s *ObjStore) OpenRange(name string, off, n int64) (io.ReadCloser, error) {
	s.sleepOp()
	s.mu.RLock()
	data, ok := s.objects[objKey(name)]
	s.mu.RUnlock()
	if !ok {
		return nil, objNotExist("open", name)
	}
	if err := checkRange(name, off, n, int64(len(data))); err != nil {
		return nil, err
	}
	s.sleepBytes(int(n))
	return io.NopCloser(bytes.NewReader(append([]byte(nil), data[off:off+n]...))), nil
}

// ReadAt implements Backend.
func (s *ObjStore) ReadAt(name string, off int64, p []byte) error {
	s.sleepOp()
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.objects[objKey(name)]
	if !ok {
		return objNotExist("read", name)
	}
	if off < 0 || off+int64(len(p)) > int64(len(data)) {
		return fmt.Errorf("storage: read %s@%d+%d: out of range (size %d)", name, off, len(p), len(data))
	}
	copy(p, data[off:])
	return nil
}

// Stat implements Backend.
func (s *ObjStore) Stat(name string) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.objects[objKey(name)]
	if !ok {
		return 0, objNotExist("stat", name)
	}
	return int64(len(data)), nil
}

// List implements Backend: a delimiter-style LIST over the key prefix.
// Directories are implied by keys, so an empty directory cannot exist —
// listing a prefix no object lives under fails with a not-exist error,
// exactly like listing after the last object was removed.
func (s *ObjStore) List(dir string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	prefix := objKey(dir)
	if prefix != "" {
		prefix += "/"
	}
	seen := map[string]bool{}
	for name := range s.objects {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		rest := name[len(prefix):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			seen[rest[:i+1]] = true // common prefix: a directory entry
		} else {
			seen[rest] = true
		}
	}
	if len(seen) == 0 && prefix != "" {
		return nil, objNotExist("list", dir)
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Exists implements Backend: true for an object key or a non-empty
// implied-directory prefix.
func (s *ObjStore) Exists(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	key := objKey(name)
	if key == "" {
		return true // the root always exists
	}
	if _, ok := s.objects[key]; ok {
		return true
	}
	prefix := key + "/"
	for n := range s.objects {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}

// Remove implements Backend: DELETE the object, or every object under the
// prefix. Deleting a missing key succeeds (object-store DELETEs are
// idempotent), matching the other backends.
func (s *ObjStore) Remove(name string) error {
	s.sleepOp()
	s.mu.Lock()
	defer s.mu.Unlock()
	key := objKey(name)
	delete(s.objects, key)
	prefix := key + "/"
	if key == "" {
		prefix = ""
	}
	for n := range s.objects {
		if strings.HasPrefix(n, prefix) {
			delete(s.objects, n)
		}
	}
	return nil
}

// Rename implements Backend by refusing: object stores have no rename.
// Publication must go through write-objects-then-manifest instead.
func (s *ObjStore) Rename(oldName, newName string) error {
	return fmt.Errorf("storage: rename %s -> %s: %w", oldName, newName, ErrNotSupported)
}

// RenameSupported reports the capability gap Rename's error encodes.
func (s *ObjStore) RenameSupported() bool { return false }

// Compose implements Composer: one atomic server-side concatenation of the
// parts (in argument order) into dst, deleting the parts — the multipart-
// upload completion primitive. No payload bytes cross the link; only one
// request round trip is charged. A missing part fails the whole compose
// with nothing changed, so a retried compose after a reported-failed
// success surfaces honestly instead of corrupting dst.
func (s *ObjStore) Compose(dst string, parts ...string) error {
	s.sleepOp()
	if err := s.flake(); err != nil {
		return fmt.Errorf("storage: compose %s: %w", dst, err)
	}
	if len(parts) == 0 {
		return fmt.Errorf("storage: compose %s: no parts", dst)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int
	for _, p := range parts {
		data, ok := s.objects[objKey(p)]
		if !ok {
			return objNotExist("compose part", p)
		}
		total += len(data)
	}
	out := make([]byte, 0, total)
	for _, p := range parts {
		out = append(out, s.objects[objKey(p)]...)
	}
	s.objects[objKey(dst)] = out
	for _, p := range parts {
		delete(s.objects, objKey(p))
	}
	return nil
}
