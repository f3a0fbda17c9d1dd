package storage

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"path"
	"sort"
	"strings"
	"sync"
)

// Mem is an in-memory Backend used by tests and fast benchmarks. It is safe
// for concurrent use.
//
// Unlike an object store's flat namespace, Mem models a filesystem: writing
// a/b/c brings directories a and a/b into existence (the dirs set), and
// they persist after their last file is removed — so List over an emptied
// directory returns an empty slice and Exists keeps reporting it, exactly
// like the OS backend. The cross-backend conformance suite pins this.
type Mem struct {
	mu    sync.RWMutex
	files map[string][]byte
	dirs  map[string]bool
}

// NewMem returns an empty in-memory backend.
func NewMem() *Mem { return &Mem{files: map[string][]byte{}, dirs: map[string]bool{}} }

func memClean(name string) string { return strings.TrimPrefix(path.Clean("/"+name), "/") }

func memNotExist(op, name string) error {
	return fmt.Errorf("storage: %s %s: %w", op, name, fs.ErrNotExist)
}

// addParents registers every ancestor directory of a path (mirroring the
// MkdirAll the OS backend performs before a write). Callers hold b.mu.
func (b *Mem) addParents(name string) {
	for i, c := range name {
		if c == '/' {
			b.dirs[name[:i]] = true
		}
	}
}

// WriteFile implements Backend.
func (b *Mem) WriteFile(name string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	clean := memClean(name)
	b.files[clean] = append([]byte(nil), data...)
	b.addParents(clean)
	return nil
}

// ReadFile implements Backend.
func (b *Mem) ReadFile(name string) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	data, ok := b.files[memClean(name)]
	if !ok {
		return nil, memNotExist("read", name)
	}
	return append([]byte(nil), data...), nil
}

// Create implements Backend. The stream accumulates privately and the file
// becomes visible atomically when the writer is closed.
func (b *Mem) Create(name string) (io.WriteCloser, error) {
	return &memWriter{b: b, name: memClean(name)}, nil
}

type memWriter struct {
	b      *Mem
	name   string
	data   []byte
	closed bool
}

func (w *memWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("storage: write %s: stream closed", w.name)
	}
	// append-based growth: the spare capacity of a pointer-free slice is
	// never zeroed, so accumulating large streamed files costs one move
	// per byte instead of bytes.Buffer's zero-then-copy doubling.
	w.data = append(w.data, p...)
	return len(p), nil
}

// Grow reserves capacity for n further bytes (see Reserve).
func (w *memWriter) Grow(n int64) { w.data = grow(w.data, n) }

func (w *memWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.b.mu.Lock()
	defer w.b.mu.Unlock()
	// Ownership transfer, not a copy: the stream is closed, so nothing
	// can append to (or otherwise mutate) the accumulated bytes again.
	w.b.files[w.name] = w.data
	w.data = nil
	w.b.addParents(w.name)
	return nil
}

// Open implements Backend.
func (b *Mem) Open(name string) (io.ReadCloser, error) {
	b.mu.RLock()
	data, ok := b.files[memClean(name)]
	b.mu.RUnlock()
	if !ok {
		return nil, memNotExist("open", name)
	}
	return memRange{bytes.NewReader(data)}, nil
}

// OpenRange implements Backend.
func (b *Mem) OpenRange(name string, off, n int64) (io.ReadCloser, error) {
	b.mu.RLock()
	data, ok := b.files[memClean(name)]
	b.mu.RUnlock()
	if !ok {
		return nil, memNotExist("open", name)
	}
	if err := checkRange(name, off, n, int64(len(data))); err != nil {
		return nil, err
	}
	return memRange{bytes.NewReader(data[off : off+n])}, nil
}

// memRange is an Open or OpenRange reader over a stored slice. Stored slices
// are never mutated in place (writes always install a fresh slice), so it
// serves them without copying, and it keeps bytes.Reader's WriteTo
// visible (io.NopCloser would hide it), letting io.Copy hand a replayed
// payload over in one wide write instead of chunked double-buffering.
type memRange struct{ *bytes.Reader }

func (memRange) Close() error { return nil }

// ReadAt implements Backend.
func (b *Mem) ReadAt(name string, off int64, p []byte) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	data, ok := b.files[memClean(name)]
	if !ok {
		return memNotExist("read", name)
	}
	if off < 0 || off+int64(len(p)) > int64(len(data)) {
		return fmt.Errorf("storage: read %s@%d+%d: out of range (size %d)", name, off, len(p), len(data))
	}
	copy(p, data[off:])
	return nil
}

// Stat implements Backend.
func (b *Mem) Stat(name string) (int64, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	data, ok := b.files[memClean(name)]
	if !ok {
		return 0, memNotExist("stat", name)
	}
	return int64(len(data)), nil
}

// List implements Backend. An existing-but-empty directory (all files
// removed, or only ever created as a parent) lists as an empty slice; a
// directory that never existed is a not-exist error, matching OS.
func (b *Mem) List(dir string) ([]string, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	clean := memClean(dir)
	prefix := clean
	if prefix != "" {
		prefix += "/"
	}
	seen := map[string]bool{}
	for name := range b.files {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		rest := name[len(prefix):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			seen[rest[:i+1]] = true // directory entry
		} else {
			seen[rest] = true
		}
	}
	for name := range b.dirs {
		if name == clean || !strings.HasPrefix(name, prefix) {
			continue
		}
		rest := name[len(prefix):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		seen[rest+"/"] = true
	}
	if len(seen) == 0 && clean != "" && !b.dirs[clean] {
		if _, isFile := b.files[clean]; isFile {
			return nil, fmt.Errorf("storage: list %s: not a directory", dir)
		}
		return nil, memNotExist("list", dir)
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Exists implements Backend: file keys, registered directories (empty ones
// included) and the root all exist.
func (b *Mem) Exists(name string) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	clean := memClean(name)
	if clean == "" {
		return true
	}
	if _, ok := b.files[clean]; ok {
		return true
	}
	if b.dirs[clean] {
		return true
	}
	prefix := clean + "/"
	for n := range b.files {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}

// Rename implements Backend. The move is atomic under the backend mutex:
// no concurrent reader can observe a half-moved tree.
func (b *Mem) Rename(oldName, newName string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	oc, nc := memClean(oldName), memClean(newName)
	if oc == nc {
		return nil
	}
	_, isFile := b.files[oc]
	isDir := b.dirs[oc]
	oldPrefix := oc + "/"
	var moved []string
	for n := range b.files {
		if strings.HasPrefix(n, oldPrefix) {
			moved = append(moved, n)
		}
	}
	if !isFile && !isDir && len(moved) == 0 {
		return memNotExist("rename", oldName)
	}
	// Mirror os.Rename: replacing a file with a file is fine, clobbering a
	// directory (even an empty one) is not, and neither is renaming a
	// directory over an existing file (ENOTDIR on a real filesystem).
	newPrefix := nc + "/"
	destDir := b.dirs[nc]
	for n := range b.files {
		if strings.HasPrefix(n, newPrefix) {
			destDir = true
		}
	}
	if destDir {
		return fmt.Errorf("storage: rename %s -> %s: destination directory exists", oldName, newName)
	}
	if !isFile {
		if _, clobbersFile := b.files[nc]; clobbersFile {
			return fmt.Errorf("storage: rename %s -> %s: destination is a file, not a directory", oldName, newName)
		}
	}
	if isFile {
		b.files[nc] = b.files[oc]
		delete(b.files, oc)
	}
	for _, n := range moved {
		b.files[nc+n[len(oc):]] = b.files[n]
		delete(b.files, n)
	}
	// Move the directory set: the source tree's dirs re-root under the
	// destination, and the destination's parents come into existence.
	if isDir || len(moved) > 0 {
		var movedDirs []string
		for d := range b.dirs {
			if d == oc || strings.HasPrefix(d, oldPrefix) {
				movedDirs = append(movedDirs, d)
			}
		}
		for _, d := range movedDirs {
			delete(b.dirs, d)
			b.dirs[nc+d[len(oc):]] = true
		}
	}
	b.addParents(nc)
	return nil
}

// Remove implements Backend: the file or directory tree is deleted, parent
// directories stay (matching os.RemoveAll).
func (b *Mem) Remove(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	clean := memClean(name)
	delete(b.files, clean)
	delete(b.dirs, clean)
	prefix := clean + "/"
	if clean == "" {
		prefix = ""
	}
	for n := range b.files {
		if strings.HasPrefix(n, prefix) {
			delete(b.files, n)
		}
	}
	for n := range b.dirs {
		if strings.HasPrefix(n, prefix) {
			delete(b.dirs, n)
		}
	}
	return nil
}
