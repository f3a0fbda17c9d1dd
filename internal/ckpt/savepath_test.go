package ckpt

// The save-path identity matrix. Both savers — the synchronous Save and the
// lazy capture AsyncSaver — feed the one write stage, so for every output
// mode and backend kind they must publish byte-identical run roots and
// drive the backend through the identical sequence of mutating operations:
// the property that lets each crash exploration stand for both savers.
// The publish loop overlaps its blob puts, a plain save writes its
// containers side by side, and either writes its manifests and trailer files
// side by side once those are done, so each of those three phases is
// compared as a multiset — a partial order: the staged phase follows the
// blob puts or the containers and precedes the marker. Everything else (the
// journal append before the puts; marker, pointer after the staged files) is
// compared in exact order, and the run roots byte for byte.

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
)

// opLog records every mutating backend operation as "kind key". (Stream
// chunk writes are not operations of their own: a feeder replaying a spool
// hands a payload over in fewer, wider writes than one encoding live state.)
// It also counts read requests per "kind class" — which storage.Fault does
// not see — for the request-budget test, counts the GETs, removes, creates and
// whole-object writes waiting on the backend at once, and calls hook, when
// set, before a mutating operation reaches the backend (readHook: before a
// read request).
type opLog struct {
	*storage.Fault
	mu       sync.Mutex
	ops      []string
	reads    map[string]int
	hook     func(kind, key string)
	readHook func(kind, key string)
	// getting is how many GETs are waiting on the backend right now, peak its
	// high-water mark since the last reset; busy and busyPeak the same for
	// removes, creates and writes, by "verb area", and for GETs, by "get
	// keyClass".
	getting, peak  int
	busy, busyPeak map[string]int
	// gates parks each request of a busy class until that many of the class
	// are in flight together — from then on the class runs free — or until
	// gateWait passes, which missed records: a "several in flight" bound then
	// holds whatever the scheduler does, and a serial phase fails it.
	gates  map[string]int
	opened map[string]chan struct{}
	missed []string
}

// gateWait is how long a gated request waits for the rest of its class.
const gateWait = 5 * time.Second

// blobStageName matches the process-global sequence in blob staging names,
// the one nondeterministic key component.
var blobStageName = regexp.MustCompile(`/put-\d+-\d+$`)

func (l *opLog) note(kind, key string) {
	l.mu.Lock()
	l.ops = append(l.ops, kind+" "+blobStageName.ReplaceAllString(key, "/put-*"))
	hook := l.hook
	l.mu.Unlock()
	if hook != nil {
		hook(kind, key)
	}
}

// reset forgets everything recorded so far.
func (l *opLog) reset() {
	l.mu.Lock()
	l.ops, l.reads, l.peak, l.busyPeak = nil, nil, 0, nil
	l.mu.Unlock()
}

// area names the part of a run a mutating request lands in — the unit one
// maintenance phase fans out over: journal records, trashed blobs, blobs,
// checkpoint directories.
func area(key string) string {
	switch {
	case strings.Contains(key, "/objects/refs/"):
		return "record"
	case strings.Contains(key, "/.trash/"):
		return "trash"
	case strings.Contains(key, "/objects/"):
		return "blob"
	}
	return "dir"
}

// inFlight counts one request of class c as waiting on the backend until the
// returned func is called, parking it first while its class is gated.
func (l *opLog) inFlight(c string) func() {
	l.mu.Lock()
	if l.busy == nil {
		l.busy = map[string]int{}
	}
	if l.busyPeak == nil {
		l.busyPeak = map[string]int{}
	}
	l.busy[c]++
	l.busyPeak[c] = max(l.busyPeak[c], l.busy[c])
	var wait chan struct{}
	if want := l.gates[c]; want > 0 {
		if l.opened == nil {
			l.opened = map[string]chan struct{}{}
		}
		if wait = l.opened[c]; wait == nil {
			wait = make(chan struct{})
			l.opened[c] = wait
		}
		if l.busy[c] >= want {
			delete(l.gates, c)
			close(wait)
		}
	}
	l.mu.Unlock()
	if wait != nil {
		select {
		case <-wait:
		case <-time.After(gateWait):
			l.mu.Lock()
			if _, open := l.gates[c]; open {
				delete(l.gates, c)
				l.missed = append(l.missed, c)
				close(wait)
			}
			l.mu.Unlock()
		}
	}
	return func() {
		l.mu.Lock()
		l.busy[c]--
		l.mu.Unlock()
	}
}

// keyClass sorts a key into what the request budget is stated over: the two
// store-configuration documents, blob objects, checkpoint manifests, the rest.
func keyClass(key string) string {
	switch {
	case strings.HasSuffix(key, "/"+storage.HubRefName), strings.HasSuffix(key, "/"+storage.ShardConfigName):
		return "config"
	case strings.Contains(key, "/objects/") && !strings.Contains(key, "/objects/refs"):
		return "blob"
	case strings.HasSuffix(key, ".ltmf"), strings.HasSuffix(key, ".ltom"):
		return "manifest"
	}
	return "other"
}

func (l *opLog) read(kind, key string) {
	l.mu.Lock()
	if l.reads == nil {
		l.reads = map[string]int{}
	}
	l.reads[kind+" "+keyClass(key)]++
	if kind == "get" {
		if l.getting++; l.getting > l.peak {
			l.peak = l.getting
		}
	}
	hook := l.readHook
	l.mu.Unlock()
	if hook != nil {
		hook(kind, key)
	}
}

// got ends the wait of one GET.
func (l *opLog) got() {
	l.mu.Lock()
	l.getting--
	l.mu.Unlock()
}

func (l *opLog) ReadFile(name string) ([]byte, error) {
	l.read("get", name)
	defer l.got()
	defer l.inFlight("get " + keyClass(name))()
	return l.Fault.ReadFile(name)
}

func (l *opLog) Open(name string) (io.ReadCloser, error) {
	l.read("get", name)
	defer l.got()
	defer l.inFlight("get " + keyClass(name))()
	return l.Fault.Open(name)
}

func (l *opLog) OpenRange(name string, off, n int64) (io.ReadCloser, error) {
	l.read("get", name)
	defer l.got()
	defer l.inFlight("get " + keyClass(name))()
	return l.Fault.OpenRange(name, off, n)
}

func (l *opLog) ReadAt(name string, off int64, p []byte) error {
	l.read("get", name)
	defer l.got()
	defer l.inFlight("get " + keyClass(name))()
	return l.Fault.ReadAt(name, off, p)
}

func (l *opLog) Stat(name string) (int64, error) {
	l.read("probe", name)
	return l.Fault.Stat(name)
}

func (l *opLog) Exists(name string) bool {
	l.read("probe", name)
	return l.Fault.Exists(name)
}

func (l *opLog) List(dir string) ([]string, error) {
	l.read("list", dir)
	return l.Fault.List(dir)
}

func (l *opLog) WriteFile(name string, data []byte) error {
	l.note("write", name)
	defer l.inFlight("write " + area(name))()
	return l.Fault.WriteFile(name, data)
}

func (l *opLog) Create(name string) (io.WriteCloser, error) {
	l.note("create", name)
	defer l.inFlight("create " + area(name))()
	return l.Fault.Create(name)
}

func (l *opLog) Rename(oldName, newName string) error {
	l.note("rename", blobStageName.ReplaceAllString(oldName, "/put-*")+" -> "+newName)
	return l.Fault.Rename(oldName, newName)
}

func (l *opLog) Remove(name string) error {
	l.note("remove", name)
	defer l.inFlight("remove " + area(name))()
	return l.Fault.Remove(name)
}

func (l *opLog) Compose(dst string, parts ...string) error {
	l.note("compose", dst)
	return l.Fault.Compose(dst, parts...)
}

// blobOp reports whether a recorded op touches the blob store proper (staging
// included) rather than the ref journal under it or a checkpoint directory.
func blobOp(op string) bool {
	return strings.Contains(op, " run/objects/") && !strings.Contains(op, " run/objects/refs/")
}

// containerOp reports whether a recorded op creates a plain container.
func containerOp(op string) bool {
	return strings.HasPrefix(op, "create ") && (strings.HasSuffix(op, ".ltsf") || strings.HasSuffix(op, ".ltos"))
}

// stagedOp reports whether a recorded op writes a file staged before the
// marker: a manifest or a trailer file.
func stagedOp(op string) bool {
	if !strings.HasPrefix(op, "write ") {
		return false
	}
	for _, name := range []string{".ltmf", ".ltom", "/config.json", "/trainer_state.json", "/manifest.json"} {
		if strings.HasSuffix(op, name) {
			return true
		}
	}
	return false
}

// canonicalOps sorts the three concurrent phases of a save's op log — the
// blob puts of a dedup save, the container creates of a plain one, then the
// staged manifests and trailer files of either — leaving the rest in recorded
// order. Each phase must be contiguous: blob ops anywhere else (before the
// journal append above all) are a protocol violation, and so is a container
// created after the first staged write, or a staged write that does not
// follow the blob puts or the containers and precede the marker.
func canonicalOps(t *testing.T, who string, ops []string) []string {
	t.Helper()
	out := append([]string(nil), ops...)
	for _, phase := range []struct {
		name string
		in   func(string) bool
	}{{"blob-put", blobOp}, {"container", containerOp}, {"staged", stagedOp}} {
		first, last := -1, -1
		for i, op := range ops {
			if phase.in(op) {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		if first < 0 {
			continue
		}
		for i := first; i <= last; i++ {
			if !phase.in(ops[i]) {
				t.Fatalf("%s: %q interrupts the %s phase (ops %d..%d)", who, ops[i], phase.name, first, last)
			}
		}
		switch {
		case phase.name == "blob-put" && (first == 0 || !strings.Contains(ops[first-1], " run/objects/refs/")):
			t.Fatalf("%s: blob-put phase starts at op %d without the journal append right before it", who, first)
		case phase.name == "container" && (last+1 == len(ops) || !stagedOp(ops[last+1])):
			t.Fatalf("%s: container phase (ops %d..%d) does not end right before the staged writes", who, first, last)
		case phase.name == "staged" && (first == 0 || !blobOp(ops[first-1]) && !containerOp(ops[first-1])):
			t.Fatalf("%s: staged phase starts at op %d without the blob puts or containers right before it", who, first)
		case phase.name == "staged" && (last+1 == len(ops) || !strings.HasSuffix(ops[last+1], "/"+CommitMarkerName)):
			t.Fatalf("%s: staged phase (ops %d..%d) does not end right before the marker write", who, first, last)
		}
		sort.Strings(out[first : last+1])
	}
	return out
}

// pathBackends are the two backend kinds the save paths are proven on: one
// with rename, one without.
var pathBackends = []struct {
	name string
	mk   func() storage.Backend
}{
	{"mem", func() storage.Backend { return storage.NewMem() }},
	{"objstore", func() storage.Backend { return storage.NewObjStore() }},
}

// A saver runs the two saves to completion; between is called once the
// first is fully committed.
type pathSaver func(b storage.Backend, first, second SaveSpec, between func()) error

var pathSavers = []struct {
	name string
	run  pathSaver
}{
	{"sync", func(b storage.Backend, first, second SaveSpec, between func()) error {
		if err := Save(b, first); err != nil {
			return err
		}
		between()
		return Save(b, second)
	}},
	{"lazy", func(b storage.Backend, first, second SaveSpec, between func()) error {
		// One saver across both saves, so the second exercises the
		// generation cache as a training loop would.
		s := NewLazyAsyncSaver(b, 1, CaptureOptions{})
		for i, spec := range []SaveSpec{first, second} {
			if err := s.Save(spec); err != nil {
				return err
			}
			if err := s.WaitCaptured(); err != nil {
				return err
			}
			if err := s.Flush(); err != nil {
				return err
			}
			if i == 0 {
				between()
			}
		}
		return s.Wait()
	}},
}

func TestSavePathIdentityMatrix(t *testing.T) {
	cfg := modelcfg.Tiny()
	m1, o1 := buildOptim(t, cfg, 190)
	// The second state differs from the first in one layer, advanced the
	// way a training step advances it (generation counters included), so
	// the second save mixes dedup hits, gen-proof reuse and moved payloads.
	m2 := m1.Clone()
	o2 := o1.Clone(m2)
	mutateLayer(t, m2, o2, modelcfg.Block(1), 1)

	modes := []struct {
		name  string
		dedup bool
		codec string
	}{
		{"plain", false, ""},
		{"dedup-raw", true, ""},
		{"dedup-xor", true, "xor"},
	}
	for _, mode := range modes {
		for _, bk := range pathBackends {
			t.Run(mode.name+"/"+bk.name, func(t *testing.T) {
				spec := func(step int, m *model.Model, o *optim.AdamW) SaveSpec {
					return SaveSpec{Dir: fmt.Sprintf("run/checkpoint-%d", step), Model: m, Optim: o,
						WorldSize: 2, Strategy: "full", Dedup: mode.dedup, Codec: mode.codec,
						LayerGens: o.LayerGens(), State: TrainerState{Step: step, Seed: 190}}
				}
				type outcome struct {
					digest string
					ops    []string
				}
				got := map[string]outcome{}
				for _, sv := range pathSavers {
					log := &opLog{Fault: storage.NewFault(bk.mk())}
					err := sv.run(log, spec(100, m1, o1), spec(200, m2, o2), log.reset)
					if err != nil {
						t.Fatalf("%s: %v", sv.name, err)
					}
					got[sv.name] = outcome{digest: treeDigest(t, log, "run"), ops: canonicalOps(t, sv.name, log.ops)}
				}
				want := got["sync"]
				if len(want.ops) == 0 {
					t.Fatal("recorded no mutating operation for the second sync save")
				}
				for _, sv := range pathSavers[1:] {
					o := got[sv.name]
					if o.digest != want.digest {
						t.Errorf("%s: run root differs from the sync saver's", sv.name)
					}
					if len(o.ops) != len(want.ops) {
						t.Errorf("%s: %d mutating ops, sync has %d", sv.name, len(o.ops), len(want.ops))
						continue
					}
					for i := range o.ops {
						if o.ops[i] != want.ops[i] {
							t.Errorf("%s: mutating op %d is %q, sync does %q", sv.name, i, o.ops[i], want.ops[i])
							break
						}
					}
				}
			})
		}
	}
}
