package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"llmtailor/internal/storage"
)

// opKind names the Backend method (or capability call) an op came through.
type opKind uint8

const (
	opWriteFile opKind = iota
	opReadFile
	opCreate
	opOpen
	opOpenRange
	opReadAt
	opStat
	opList
	opExists
	opRemove
	opRename
	opCompose
)

var opKindNames = [...]string{"WriteFile", "ReadFile", "Create", "Open", "OpenRange",
	"ReadAt", "Stat", "List", "Exists", "Remove", "Rename", "Compose"}

func (k opKind) String() string { return opKindNames[k] }

func (k opKind) isPut() bool { return k == opWriteFile || k == opCreate || k == opCompose }
func (k opKind) isGet() bool {
	return k == opReadFile || k == opOpen || k == opOpenRange || k == opReadAt
}
func (k opKind) isProbe() bool { return k == opStat || k == opList || k == opExists }

// keyClass says what role a backend path plays in the checkpoint layout.
type keyClass uint8

const (
	classStaging  keyClass = iota // <dir>.tmp/**, objects/**/.stage/**, .trash/**
	classBlob                     // payload objects: CAS blobs, fan-out dirs, model.ltsf, *.ltos
	classJournal                  // objects/refs/** (ref-index records, staged or final)
	classManifest                 // JSON documents, *.ltmf / *.ltom, hub registry and redirect
	classCommit                   // COMMITTED markers and checkpoint-directory-level ops
	classPointer                  // latest pointers and the run/hub roots they are found under
	classOther                    // anything the rules above do not name
)

var classNames = [...]string{"staging", "blob", "journal", "manifest", "commit", "pointer", "other"}

func (c keyClass) String() string { return classNames[c] }

// classify maps a backend path to its key class. Order matters: journal
// records stage through .tmp siblings and the pointer through latest.tmp,
// and both stay in their own class rather than falling into staging.
func classify(p string) keyClass {
	p = strings.Trim(p, "/")
	if p == "" {
		return classPointer
	}
	parts := strings.Split(p, "/")
	base := parts[len(parts)-1]
	for i := 0; i+1 < len(parts); i++ {
		if parts[i] == "objects" && parts[i+1] == "refs" {
			return classJournal
		}
	}
	if base == "latest" || base == "latest.tmp" {
		return classPointer
	}
	for _, el := range parts {
		if strings.HasSuffix(el, ".tmp") || el == ".stage" || el == ".trash" {
			return classStaging
		}
	}
	switch {
	case base == "COMMITTED":
		return classCommit
	case storage.ValidDigest(base), strings.HasSuffix(base, ".ltsf"), strings.HasSuffix(base, ".ltos"):
		return classBlob
	case strings.HasSuffix(base, ".json"), strings.HasSuffix(base, ".ltmf"), strings.HasSuffix(base, ".ltom"):
		return classManifest
	case strings.HasPrefix(base, "checkpoint-"):
		return classCommit
	case base == "zero":
		// A plain checkpoint's shard directory: probed only to list ranks.
		return classManifest
	}
	for _, el := range parts {
		if el == "objects" {
			return classBlob // the store root, shard-N/ and two-hex fan-out dirs
		}
	}
	if len(parts) <= 2 {
		return classPointer // run roots, the hub root and its runs/ registry dir
	}
	return classOther
}

// opRecord is one logical backend operation: a simple call, or a whole
// stream from Create/Open to Close.
type opRecord struct {
	kind   opKind
	class  keyClass
	stream bool
	failed bool
	span   int32
	bytes  int64
	start  int64
	end    int64
	key    string
}

// callRecord is one underlying call of a stream (the open, each Read or
// Write, the Close): the intervals the backend was actually busy for.
type callRecord struct {
	span       int32
	start, end int64
}

type spanRecord struct {
	name       string
	cycle      int
	start, end int64
}

// tracer is the bench-owned Backend decorator. It sits directly above the
// real backend, records every operation while enabled and forwards the
// capability probes, so the commit protocol the program picks is the one it
// would pick without the decorator. Disabled, it forwards untouched.
type tracer struct {
	inner storage.Backend
	epoch time.Time
	on    atomic.Bool
	cur   atomic.Int32

	mu    sync.Mutex
	ops   []opRecord
	calls []callRecord
	spans []spanRecord
}

func newTracer(inner storage.Backend) *tracer {
	t := &tracer{inner: inner, epoch: time.Now()}
	t.cur.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span; ops recorded until end are attributed to it.
func (t *tracer) begin(name string, cycle int) int32 {
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, spanRecord{name: name, cycle: cycle, start: t.now()})
	t.mu.Unlock()
	t.cur.Store(id)
	return id
}

func (t *tracer) end(id int32) {
	t.cur.Store(-1)
	t.mu.Lock()
	t.spans[id].end = t.now()
	t.mu.Unlock()
}

func (t *tracer) record(kind opKind, key string, bytes int64, start int64, err error) {
	end := t.now()
	failed := err != nil && !storage.IsNotExist(err)
	t.mu.Lock()
	t.ops = append(t.ops, opRecord{kind: kind, class: classify(key), failed: failed,
		span: t.cur.Load(), bytes: bytes, start: start, end: end, key: key})
	t.mu.Unlock()
}

func (t *tracer) call(span int32, start int64) {
	end := t.now()
	t.mu.Lock()
	t.calls = append(t.calls, callRecord{span: span, start: start, end: end})
	t.mu.Unlock()
}

// WriteFile implements storage.Backend.
func (t *tracer) WriteFile(name string, data []byte) error {
	if !t.on.Load() {
		return t.inner.WriteFile(name, data)
	}
	start := t.now()
	err := t.inner.WriteFile(name, data)
	t.record(opWriteFile, name, int64(len(data)), start, err)
	return err
}

// ReadFile implements storage.Backend.
func (t *tracer) ReadFile(name string) ([]byte, error) {
	if !t.on.Load() {
		return t.inner.ReadFile(name)
	}
	start := t.now()
	data, err := t.inner.ReadFile(name)
	t.record(opReadFile, name, int64(len(data)), start, err)
	return data, err
}

// Create implements storage.Backend.
func (t *tracer) Create(name string) (io.WriteCloser, error) {
	if !t.on.Load() {
		return t.inner.Create(name)
	}
	start := t.now()
	w, err := t.inner.Create(name)
	if err != nil {
		t.record(opCreate, name, 0, start, err)
		return nil, err
	}
	span := t.cur.Load()
	t.call(span, start)
	return &tracedWriter{t: t, w: w, key: name, span: span, start: start}, nil
}

// Open implements storage.Backend.
func (t *tracer) Open(name string) (io.ReadCloser, error) {
	if !t.on.Load() {
		return t.inner.Open(name)
	}
	start := t.now()
	r, err := t.inner.Open(name)
	return t.tracedRead(opOpen, name, r, err, start)
}

// OpenRange implements storage.Backend.
func (t *tracer) OpenRange(name string, off, n int64) (io.ReadCloser, error) {
	if !t.on.Load() {
		return t.inner.OpenRange(name, off, n)
	}
	start := t.now()
	r, err := t.inner.OpenRange(name, off, n)
	return t.tracedRead(opOpenRange, name, r, err, start)
}

func (t *tracer) tracedRead(kind opKind, name string, r io.ReadCloser, err error, start int64) (io.ReadCloser, error) {
	if err != nil {
		t.record(kind, name, 0, start, err)
		return nil, err
	}
	span := t.cur.Load()
	t.call(span, start)
	return &tracedReader{t: t, r: r, kind: kind, key: name, span: span, start: start}, nil
}

// ReadAt implements storage.Backend.
func (t *tracer) ReadAt(name string, off int64, p []byte) error {
	if !t.on.Load() {
		return t.inner.ReadAt(name, off, p)
	}
	start := t.now()
	err := t.inner.ReadAt(name, off, p)
	t.record(opReadAt, name, int64(len(p)), start, err)
	return err
}

// Stat implements storage.Backend.
func (t *tracer) Stat(name string) (int64, error) {
	if !t.on.Load() {
		return t.inner.Stat(name)
	}
	start := t.now()
	n, err := t.inner.Stat(name)
	t.record(opStat, name, 0, start, err)
	return n, err
}

// List implements storage.Backend.
func (t *tracer) List(dir string) ([]string, error) {
	if !t.on.Load() {
		return t.inner.List(dir)
	}
	start := t.now()
	names, err := t.inner.List(dir)
	t.record(opList, dir, 0, start, err)
	return names, err
}

// Exists implements storage.Backend.
func (t *tracer) Exists(name string) bool {
	if !t.on.Load() {
		return t.inner.Exists(name)
	}
	start := t.now()
	ok := t.inner.Exists(name)
	t.record(opExists, name, 0, start, nil)
	return ok
}

// Remove implements storage.Backend.
func (t *tracer) Remove(name string) error {
	if !t.on.Load() {
		return t.inner.Remove(name)
	}
	start := t.now()
	err := t.inner.Remove(name)
	t.record(opRemove, name, 0, start, err)
	return err
}

// Rename implements storage.Backend. The op is classed by its destination:
// a staged tree renamed to its final name is the commit, not staging.
func (t *tracer) Rename(oldName, newName string) error {
	if !t.on.Load() {
		return t.inner.Rename(oldName, newName)
	}
	start := t.now()
	err := t.inner.Rename(oldName, newName)
	t.record(opRename, newName, 0, start, err)
	return err
}

// RenameSupported forwards the wrapped backend's capability.
func (t *tracer) RenameSupported() bool { return storage.RenameSupported(t.inner) }

// ComposeSupported forwards the wrapped backend's capability.
func (t *tracer) ComposeSupported() bool { return storage.ComposeSupported(t.inner) }

// Compose forwards multipart completion.
func (t *tracer) Compose(dst string, parts ...string) error {
	if !t.on.Load() {
		return storage.Compose(t.inner, dst, parts...)
	}
	start := t.now()
	err := storage.Compose(t.inner, dst, parts...)
	t.record(opCompose, dst, 0, start, err)
	return err
}

// NewSpool keeps OS-rooted backends on file-backed scratch space.
func (t *tracer) NewSpool() (storage.Spool, error) { return storage.NewSpool(t.inner) }

type tracedWriter struct {
	t     *tracer
	w     io.WriteCloser
	key   string
	span  int32
	start int64
	bytes int64
	done  bool
}

func (w *tracedWriter) Write(p []byte) (int, error) {
	start := w.t.now()
	n, err := w.w.Write(p)
	w.t.call(w.span, start)
	w.bytes += int64(n)
	return n, err
}

func (w *tracedWriter) Close() error {
	start := w.t.now()
	err := w.w.Close()
	if w.done {
		return err
	}
	w.done = true
	w.t.call(w.span, start)
	w.t.recordStream(opCreate, w.key, w.bytes, w.span, w.start, err)
	return err
}

type tracedReader struct {
	t     *tracer
	r     io.ReadCloser
	kind  opKind
	key   string
	span  int32
	start int64
	bytes int64
	done  bool
}

func (r *tracedReader) Read(p []byte) (int, error) {
	start := r.t.now()
	n, err := r.r.Read(p)
	r.t.call(r.span, start)
	r.bytes += int64(n)
	return n, err
}

func (r *tracedReader) Close() error {
	start := r.t.now()
	err := r.r.Close()
	if r.done {
		return err
	}
	r.done = true
	r.t.call(r.span, start)
	r.t.recordStream(r.kind, r.key, r.bytes, r.span, r.start, err)
	return err
}

func (t *tracer) recordStream(kind opKind, key string, bytes int64, span int32, start int64, err error) {
	end := t.now()
	t.mu.Lock()
	t.ops = append(t.ops, opRecord{kind: kind, class: classify(key), stream: true, failed: err != nil,
		span: span, bytes: bytes, start: start, end: end, key: key})
	t.mu.Unlock()
}

// spanOps groups what the tracer saw inside one span: its logical ops and
// the busy intervals (simple ops plus the underlying calls of streams).
type spanOps struct {
	span spanRecord
	ops  []opRecord
	busy []interval
}

// bySpan indexes the recording by span id. Ops outside every span (the
// untimed checks) are dropped.
func (t *tracer) bySpan() []spanOps {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]spanOps, len(t.spans))
	for i, s := range t.spans {
		out[i].span = s
	}
	for _, op := range t.ops {
		if op.span < 0 {
			continue
		}
		so := &out[op.span]
		so.ops = append(so.ops, op)
		if !op.stream {
			so.busy = append(so.busy, interval{op.start, op.end})
		}
	}
	for _, c := range t.calls {
		if c.span >= 0 {
			out[c.span].busy = append(out[c.span].busy, interval{c.start, c.end})
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes spans on thread 0 and backend ops on as many
// further threads as their overlap needs, loadable in chrome://tracing or
// Perfetto.
func (t *tracer) writeChromeTrace(path string) error {
	t.mu.Lock()
	spans := append([]spanRecord(nil), t.spans...)
	ops := append([]opRecord(nil), t.ops...)
	t.mu.Unlock()
	sort.Slice(ops, func(i, j int) bool { return ops[i].start < ops[j].start })

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	first := true
	emit := func(ev chromeEvent) error {
		if first {
			first = false
		} else if _, err := w.WriteString(","); err != nil {
			return err
		}
		return enc.Encode(ev)
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	if _, err := w.WriteString(`{"traceEvents":[` + "\n"); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		ev := chromeEvent{Name: s.name, Cat: "call", Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: 1, Tid: 0, Args: map[string]any{"cycle": s.cycle}}
		if err := emit(ev); err != nil {
			f.Close()
			return err
		}
	}
	var laneEnd []int64
	for _, op := range ops {
		lane := -1
		for i, e := range laneEnd {
			if e <= op.start {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = op.end
		ev := chromeEvent{Name: op.kind.String(), Cat: op.class.String(), Ph: "X", Ts: us(op.start),
			Dur: us(op.end - op.start), Pid: 1, Tid: lane + 1,
			Args: map[string]any{"key": op.key, "bytes": op.bytes, "span": op.span}}
		if err := emit(ev); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := w.WriteString("]}\n"); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close trace: %w", err)
	}
	return nil
}

// manifestName reports whether a path names a metadata document, staged or
// final: what ckpt.manifest_bytes counts.
func manifestName(p string) bool {
	return strings.HasSuffix(p, ".json") || strings.HasSuffix(p, ".ltmf") || strings.HasSuffix(p, ".ltom")
}
