package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"llmtailor/internal/storage"
)

const testDigest = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"

func TestClassify(t *testing.T) {
	cases := map[string]keyClass{
		// staging
		"run/checkpoint-5.tmp/model.ltsf":           classStaging,
		"run/checkpoint-5.tmp/COMMITTED":            classStaging,
		"hub/objects/shard-2/.stage/77-3":           classStaging,
		"run/objects/.trash/" + testDigest:          classStaging,
		"merged/checkpoint-8.tmp/zero/rank_00.ltos": classStaging,
		// blobs: flat store, sharded hub store, fan-out dirs, plain containers
		"run/objects/01/" + testDigest:                    classBlob,
		"hub/objects/shard-1/01/" + testDigest:            classBlob,
		"hub/objects/shard-1/01":                          classBlob,
		"run/objects":                                     classBlob,
		"run/checkpoint-5/model.ltsf":                     classBlob,
		"run/checkpoint-5/zero/rank_01_optim_states.ltos": classBlob,
		// journal, run-local and hub-namespaced, staged or final
		"run/objects/refs/gen-000000000007-checkpoint-7.ref":          classJournal,
		"hub/objects/refs/main/gen-000000000007-checkpoint-7.ref":     classJournal,
		"hub/objects/refs/main/gen-000000000007-checkpoint-7.ref.tmp": classJournal,
		"hub/objects/refs/main":                                       classJournal,
		// manifests, hub redirect and registry
		"run/checkpoint-5/manifest.json":     classManifest,
		"run/checkpoint-5/model.ltmf":        classManifest,
		"run/checkpoint-5/zero/rank_00.ltom": classManifest,
		"runs/main/objects/hubref.json":      classManifest,
		"hub/objects/shards.json":            classManifest,
		"hub/hub.json":                       classManifest,
		"hub/runs/main.json":                 classManifest,
		"run/checkpoint-5/zero":              classManifest,
		// commit
		"run/checkpoint-5/COMMITTED": classCommit,
		"run/checkpoint-5":           classCommit,
		"runs/main/checkpoint-12":    classCommit,
		// pointer
		"run/latest":     classPointer,
		"run/latest.tmp": classPointer,
		"latest":         classPointer,
		"run":            classPointer,
		"runs/main":      classPointer,
		"":               classPointer,
		// nothing the layout names
		"a/b/c/d": classOther,
	}
	for p, want := range cases {
		if got := classify(p); got != want {
			t.Errorf("classify(%q) = %s, want %s", p, got, want)
		}
	}
}

// spy is a Backend that logs the calls reaching it and answers the
// capability probes from fields.
type spy struct {
	storage.Backend
	calls   []string
	rename  bool
	compose bool
}

func (s *spy) log(c string) { s.calls = append(s.calls, c) }

func (s *spy) WriteFile(n string, d []byte) error {
	s.log("WriteFile")
	return s.Backend.WriteFile(n, d)
}
func (s *spy) ReadFile(n string) ([]byte, error) { s.log("ReadFile"); return s.Backend.ReadFile(n) }
func (s *spy) Create(n string) (io.WriteCloser, error) {
	s.log("Create")
	return s.Backend.Create(n)
}
func (s *spy) Open(n string) (io.ReadCloser, error) { s.log("Open"); return s.Backend.Open(n) }
func (s *spy) OpenRange(n string, off, k int64) (io.ReadCloser, error) {
	s.log("OpenRange")
	return s.Backend.OpenRange(n, off, k)
}
func (s *spy) ReadAt(n string, off int64, p []byte) error {
	s.log("ReadAt")
	return s.Backend.ReadAt(n, off, p)
}
func (s *spy) Stat(n string) (int64, error)    { s.log("Stat"); return s.Backend.Stat(n) }
func (s *spy) List(d string) ([]string, error) { s.log("List"); return s.Backend.List(d) }
func (s *spy) Exists(n string) bool            { s.log("Exists"); return s.Backend.Exists(n) }
func (s *spy) Remove(n string) error           { s.log("Remove"); return s.Backend.Remove(n) }
func (s *spy) Rename(a, b string) error        { s.log("Rename"); return s.Backend.Rename(a, b) }
func (s *spy) RenameSupported() bool           { s.log("RenameSupported"); return s.rename }
func (s *spy) ComposeSupported() bool          { s.log("ComposeSupported"); return s.compose }
func (s *spy) NewSpool() (storage.Spool, error) {
	s.log("NewSpool")
	return storage.NewSpool(s.Backend)
}
func (s *spy) Compose(dst string, parts ...string) error {
	s.log("Compose")
	return errors.New("spy compose")
}

// drive calls every Backend method and capability probe once through b and
// returns what the caller observed.
func drive(t *testing.T, b storage.Backend) []any {
	t.Helper()
	var seen []any
	note := func(v ...any) { seen = append(seen, v...) }
	note(b.WriteFile("d/a", []byte("hello")))
	data, err := b.ReadFile("d/a")
	note(string(data), err)
	w, err := b.Create("d/b")
	if err != nil {
		t.Fatal(err)
	}
	n, err := w.Write([]byte("stream"))
	note(n, err, w.Close())
	r, err := b.Open("d/b")
	if err != nil {
		t.Fatal(err)
	}
	data, err = io.ReadAll(r)
	note(string(data), err, r.Close())
	r, err = b.OpenRange("d/b", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	data, err = io.ReadAll(r)
	note(string(data), err, r.Close())
	p := make([]byte, 2)
	note(b.ReadAt("d/a", 1, p), string(p))
	sz, err := b.Stat("d/a")
	note(sz, err)
	names, err := b.List("d")
	note(names, err)
	note(b.Exists("d/a"), b.Exists("d/missing"))
	note(b.Rename("d/a", "d/c"))
	note(b.Remove("d/c"))
	_, err = b.ReadFile("d/c")
	note(storage.IsNotExist(err))
	note(storage.RenameSupported(b), storage.ComposeSupported(b))
	err = storage.Compose(b, "d/x", "d/b")
	note(err != nil)
	sp, err := storage.NewSpool(b)
	note(sp != nil, err)
	return seen
}

func TestTracerForwardsEveryMethodAndProbe(t *testing.T) {
	want := []string{"WriteFile", "ReadFile", "Create", "Open", "OpenRange", "ReadAt", "Stat", "List",
		"Exists", "Exists", "Rename", "Remove", "ReadFile", "RenameSupported", "ComposeSupported",
		"Compose", "NewSpool"}
	for _, caps := range []struct{ rename, compose bool }{{true, false}, {false, true}} {
		direct := &spy{Backend: storage.NewMem(), rename: caps.rename, compose: caps.compose}
		plain := drive(t, direct)
		for _, on := range []bool{true, false} {
			inner := &spy{Backend: storage.NewMem(), rename: caps.rename, compose: caps.compose}
			tr := newTracer(inner)
			tr.on.Store(on)
			got := drive(t, tr)
			if !reflect.DeepEqual(inner.calls, want) {
				t.Errorf("on=%v: backend saw %v, want %v", on, inner.calls, want)
			}
			if !reflect.DeepEqual(got, plain) {
				t.Errorf("on=%v: caller saw %v through the tracer, %v without", on, got, plain)
			}
			if on && len(tr.ops) != 14 {
				t.Errorf("enabled tracer recorded %d ops, want 14", len(tr.ops))
			}
			if !on && len(tr.ops)+len(tr.calls) != 0 {
				t.Errorf("disabled tracer recorded %d ops", len(tr.ops))
			}
		}
	}
}

func TestTracerRecordsSpansStreamsAndClasses(t *testing.T) {
	tr := newTracer(storage.NewMem())
	tr.on.Store(true)
	id := tr.begin("save", 4)
	w, err := tr.Create("run/checkpoint-1.tmp/model.ltsf")
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("abcd"))
	w.Write([]byte("ef"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Rename("run/checkpoint-1.tmp", "run/checkpoint-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.ReadFile("run/objects/hubref.json"); !storage.IsNotExist(err) {
		t.Fatalf("missing file: %v", err)
	}
	tr.end(id)
	tr.Exists("run/latest") // outside every span

	spans := tr.bySpan()
	if len(spans) != 1 || spans[0].span.name != "save" || spans[0].span.cycle != 4 {
		t.Fatalf("spans = %+v", spans)
	}
	ops := spans[0].ops
	if len(ops) != 3 {
		t.Fatalf("span holds %d ops, want 3 (the op outside the span is dropped)", len(ops))
	}
	byKind := map[opKind]opRecord{}
	for _, op := range ops {
		byKind[op.kind] = op
	}
	if op := byKind[opCreate]; !op.stream || op.bytes != 6 || op.class != classStaging {
		t.Errorf("stream op = %+v", op)
	}
	if op := byKind[opRename]; op.class != classCommit {
		t.Errorf("rename is classed by destination: %+v", op)
	}
	if op := byKind[opReadFile]; op.failed || op.class != classManifest {
		t.Errorf("a not-exist probe is not an op error: %+v", op)
	}
	// Busy intervals: create + 2 writes + close of the stream, the rename
	// and the read; the stream's own lifetime is not among them.
	if len(spans[0].busy) != 6 {
		t.Errorf("busy intervals = %d, want 6", len(spans[0].busy))
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChromeTrace(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace does not load: %v", err)
	}
	if len(doc.TraceEvents) != 5 {
		t.Errorf("trace holds %d events, want 1 span + 4 ops", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 || strings.TrimSpace(ev.Name) == "" {
			t.Errorf("malformed event %+v", ev)
		}
	}
}
