// Package storage abstracts the filesystem under checkpoints and adds the
// two things the reproduction needs that a plain filesystem lacks:
//
//   - instrumentation (bytes and files read/written), so experiments can
//     report exact I/O volumes; and
//   - a simulated clock driven by a parallel-filesystem performance profile,
//     so timing tables can be produced for the paper's true checkpoint sizes
//     (hundreds of GB) while the live system moves only scaled-down bytes.
package storage

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Backend is the minimal filesystem surface the checkpoint and merge code
// uses. Paths are slash-separated and relative to the backend root.
type Backend interface {
	// WriteFile creates or replaces a file with the given contents,
	// creating parent directories as needed.
	WriteFile(name string, data []byte) error
	// ReadFile returns the full contents of a file.
	ReadFile(name string) ([]byte, error)
	// Create opens a sequential streaming writer that creates or replaces
	// the file, creating parent directories as needed. The file contents
	// are defined once Close returns; abandoning a writer without Close
	// may leave a partial file behind.
	Create(name string) (io.WriteCloser, error)
	// Open opens a sequential streaming reader over the file.
	Open(name string) (io.ReadCloser, error)
	// OpenRange opens a sequential streaming reader over the n bytes of a
	// file starting at offset off — the sectioned-read primitive behind
	// zero-decode extent copies. The range is validated eagerly: a range
	// escaping the file fails at open, not mid-read. Unlike ReadAt, a
	// ranged stream is charged like any other stream by instrumentation
	// (one file + open latency at open, bandwidth per chunk), however many
	// Read calls drain it.
	OpenRange(name string, off, n int64) (io.ReadCloser, error)
	// ReadAt reads len(p) bytes at offset off of a file. Weight files are
	// read this way (lazy, per tensor); optimizer shards deliberately
	// never use it (paper §5.4: no lazy loading of optimizer state).
	ReadAt(name string, off int64, p []byte) error
	// Stat returns the file size.
	Stat(name string) (int64, error)
	// List returns the sorted relative names of entries directly under dir
	// (files and directories; directories carry a trailing slash).
	List(dir string) ([]string, error)
	// Exists reports whether the file or directory exists.
	Exists(name string) bool
	// Remove deletes a file or directory tree.
	Remove(name string) error
	// Rename atomically moves a file or directory tree to a new name,
	// creating the destination's parent directories as needed. Renaming
	// over an existing file replaces it; renaming over an existing
	// directory fails. This is the publication primitive of the checkpoint
	// commit protocol: a staged directory becomes visible in one step.
	Rename(oldName, newName string) error
}

// OS is a Backend rooted at a real directory.
type OS struct {
	Root string
}

// NewOS creates the root directory if needed and returns a backend over it.
func NewOS(root string) (*OS, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create root: %w", err)
	}
	return &OS{Root: root}, nil
}

func (b *OS) resolve(name string) (string, error) {
	for _, el := range strings.Split(name, "/") {
		if el == ".." {
			return "", fmt.Errorf("storage: path escapes root: %q", name)
		}
	}
	clean := path.Clean("/" + name)[1:]
	if clean == "" {
		return b.Root, nil
	}
	return filepath.Join(b.Root, filepath.FromSlash(clean)), nil
}

// WriteFile implements Backend. Data is fsynced before the write reports
// success: the commit protocol's publishing rename is only crash-durable
// if the staged bytes reached stable storage first.
func (b *OS) WriteFile(name string, data []byte) error {
	p, err := b.resolve(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("storage: mkdir for %s: %w", name, err)
	}
	f, err := os.Create(p)
	if err != nil {
		return fmt.Errorf("storage: write %s: %w", name, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("storage: write %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("storage: sync %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: write %s: %w", name, err)
	}
	return nil
}

// ReadFile implements Backend.
func (b *OS) ReadFile(name string) ([]byte, error) {
	p, err := b.resolve(name)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, fmt.Errorf("storage: read %s: %w", name, err)
	}
	return data, nil
}

// Create implements Backend: the stream writes straight to the target path,
// mirroring WriteFile's non-atomic create-or-replace semantics. Close
// fsyncs before returning, so a stream that closed cleanly is durable.
func (b *OS) Create(name string) (io.WriteCloser, error) {
	p, err := b.resolve(name)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, fmt.Errorf("storage: mkdir for %s: %w", name, err)
	}
	f, err := os.Create(p)
	if err != nil {
		return nil, fmt.Errorf("storage: create %s: %w", name, err)
	}
	return syncOnClose{f}, nil
}

// syncOnClose fsyncs the file before closing it.
type syncOnClose struct{ f *os.File }

func (s syncOnClose) Write(p []byte) (int, error) { return s.f.Write(p) }

func (s syncOnClose) Close() error {
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// Open implements Backend.
func (b *OS) Open(name string) (io.ReadCloser, error) {
	p, err := b.resolve(name)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", name, err)
	}
	return f, nil
}

// OpenRange implements Backend. The extent is validated against the file
// size before any payload byte moves.
func (b *OS) OpenRange(name string, off, n int64) (io.ReadCloser, error) {
	p, err := b.resolve(name)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", name, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat %s: %w", name, err)
	}
	if err := checkRange(name, off, n, fi.Size()); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: seek %s@%d: %w", name, off, err)
	}
	return &rangeReader{r: io.LimitReader(f, n), c: f}, nil
}

// checkRange rejects extents escaping a file of the given size. The sum is
// compared by subtraction so an adversarial off+n cannot wrap int64.
func checkRange(name string, off, n, size int64) error {
	if off < 0 || n < 0 || off > size || n > size-off {
		return fmt.Errorf("storage: open %s@%d+%d: out of range (size %d)", name, off, n, size)
	}
	return nil
}

// rangeReader pairs a reader over part of a stream with the stream's Close.
type rangeReader struct {
	r io.Reader
	c io.Closer
}

func (r *rangeReader) Read(p []byte) (int, error) { return r.r.Read(p) }
func (r *rangeReader) Close() error               { return r.c.Close() }

// NewSpool gives OS backends file-backed scratch space (see NewSpool).
func (b *OS) NewSpool() (Spool, error) { return newFileSpool() }

// ReadAt implements Backend.
func (b *OS) ReadAt(name string, off int64, p []byte) error {
	fp, err := b.resolve(name)
	if err != nil {
		return err
	}
	f, err := os.Open(fp)
	if err != nil {
		return fmt.Errorf("storage: open %s: %w", name, err)
	}
	defer f.Close()
	if _, err := f.ReadAt(p, off); err != nil {
		return fmt.Errorf("storage: read %s@%d: %w", name, off, err)
	}
	return nil
}

// Stat implements Backend. Stat names a file: a directory path answers
// not-exist (its FileInfo size is filesystem metadata, not content — and
// Mem/ObjStore have no such path to stat at all, so agreeing here keeps
// callers backend-agnostic).
func (b *OS) Stat(name string) (int64, error) {
	p, err := b.resolve(name)
	if err != nil {
		return 0, err
	}
	fi, err := os.Stat(p)
	if err != nil {
		return 0, fmt.Errorf("storage: stat %s: %w", name, err)
	}
	if fi.IsDir() {
		return 0, fmt.Errorf("storage: stat %s: is a directory: %w", name, fs.ErrNotExist)
	}
	return fi.Size(), nil
}

// List implements Backend.
func (b *OS) List(dir string) ([]string, error) {
	p, err := b.resolve(dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(p)
	if err != nil {
		return nil, fmt.Errorf("storage: list %s: %w", dir, err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() {
			n += "/"
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Exists implements Backend.
func (b *OS) Exists(name string) bool {
	p, err := b.resolve(name)
	if err != nil {
		return false
	}
	_, err = os.Stat(p)
	return err == nil
}

// Rename implements Backend. After the rename the destination's parent
// directory is fsynced, so the publication survives a host crash — the
// durability half of the commit protocol's atomic-rename step.
func (b *OS) Rename(oldName, newName string) error {
	op, err := b.resolve(oldName)
	if err != nil {
		return err
	}
	np, err := b.resolve(newName)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(np), 0o755); err != nil {
		return fmt.Errorf("storage: mkdir for %s: %w", newName, err)
	}
	if err := os.Rename(op, np); err != nil {
		return fmt.Errorf("storage: rename %s -> %s: %w", oldName, newName, err)
	}
	syncDir(filepath.Dir(np))
	return nil
}

// syncDir fsyncs a directory (best effort — some filesystems reject it).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Remove implements Backend. Removal of an absent path is a silent no-op,
// matching Mem and ObjStore — including a path "under" a file, where
// RemoveAll reports ENOTDIR rather than ENOENT. Repair's best-effort
// cleanup depends on idempotent removes behaving identically everywhere.
func (b *OS) Remove(name string) error {
	p, err := b.resolve(name)
	if err != nil {
		return err
	}
	if err := os.RemoveAll(p); err != nil {
		if _, statErr := os.Lstat(p); statErr != nil {
			return nil // nothing at that path: removal already holds
		}
		return fmt.Errorf("storage: remove %s: %w", name, err)
	}
	return nil
}

// IsNotExist reports whether an error from a Backend denotes a missing
// file. OS surfaces *fs.PathError from the syscall layer; Mem and ObjStore
// wrap fs.ErrNotExist directly — both forms answer true here, so callers
// never need to know which backend produced the error.
func IsNotExist(err error) bool {
	if errors.Is(err, fs.ErrNotExist) {
		return true
	}
	var pe *fs.PathError
	return errorsAs(err, &pe) && os.IsNotExist(pe)
}

// errorsAs is a tiny local wrapper to keep the import list tidy.
func errorsAs(err error, target *(*fs.PathError)) bool {
	for err != nil {
		if pe, ok := err.(*fs.PathError); ok {
			*target = pe
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
