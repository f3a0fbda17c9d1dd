package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestObjStoreCreateIsAtomic(t *testing.T) {
	s := NewObjStore()
	w, err := s.Create("a/blob")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := w.Write([]byte("hello ")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if s.Exists("a/blob") {
		t.Fatalf("object visible before Close — PUT must be atomic")
	}
	if _, err := w.Write([]byte("world")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := s.ReadFile("a/blob")
	if err != nil || string(data) != "hello world" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
}

func TestObjStoreCompose(t *testing.T) {
	s := NewObjStore()
	for i, part := range []string{"aa", "bbb", "c"} {
		if err := s.WriteFile(fmt.Sprintf("p/part-%d", i), []byte(part)); err != nil {
			t.Fatalf("put part: %v", err)
		}
	}
	if !ComposeSupported(s) {
		t.Fatalf("ComposeSupported(ObjStore) = false")
	}
	if err := Compose(s, "p/all", "p/part-0", "p/part-1", "p/part-2"); err != nil {
		t.Fatalf("Compose: %v", err)
	}
	data, err := s.ReadFile("p/all")
	if err != nil || string(data) != "aabbbc" {
		t.Fatalf("composed = %q, %v; want aabbbc", data, err)
	}
	for i := 0; i < 3; i++ {
		if s.Exists(fmt.Sprintf("p/part-%d", i)) {
			t.Fatalf("part %d survived Compose", i)
		}
	}
}

func TestObjStoreComposeMissingPartLeavesEverythingUnchanged(t *testing.T) {
	s := NewObjStore()
	if err := s.WriteFile("p/part-0", []byte("xx")); err != nil {
		t.Fatal(err)
	}
	if err := Compose(s, "p/all", "p/part-0", "p/part-1"); err == nil {
		t.Fatalf("Compose with a missing part succeeded")
	}
	if s.Exists("p/all") {
		t.Fatalf("failed Compose published dst")
	}
	if !s.Exists("p/part-0") {
		t.Fatalf("failed Compose consumed a part")
	}
}

func TestObjStoreComposeUnsupportedOnMem(t *testing.T) {
	if ComposeSupported(NewMem()) {
		t.Fatalf("ComposeSupported(Mem) = true")
	}
	if err := Compose(NewMem(), "x", "y"); !errors.Is(err, ErrNotSupported) {
		t.Fatalf("Compose on Mem: %v, want ErrNotSupported", err)
	}
}

func TestObjStoreFlakeEvery(t *testing.T) {
	s := NewObjStore()
	s.SetFlakeEvery(3)
	var transients int
	for i := 0; i < 9; i++ {
		err := s.WriteFile(fmt.Sprintf("k%d", i), []byte("v"))
		if err != nil {
			if !isTransient(err) {
				t.Fatalf("flake error %v is not transient", err)
			}
			if s.Exists(fmt.Sprintf("k%d", i)) {
				t.Fatalf("flaked PUT %d mutated the store", i)
			}
			transients++
		}
	}
	if transients != 3 {
		t.Fatalf("flake every 3rd: %d of 9 PUTs failed, want 3", transients)
	}
}

// TestObjStoreListDelimiter pins the flat namespace's delimiter-style
// listing: common prefixes synthesize directory entries.
func TestObjStoreListDelimiter(t *testing.T) {
	s := NewObjStore()
	for _, k := range []string{"run/ckpt-1/model", "run/ckpt-1/opt", "run/ckpt-2/model", "run/latest"} {
		if err := s.WriteFile(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.List("run")
	if err != nil {
		t.Fatalf("List(run): %v", err)
	}
	want := "ckpt-1/,ckpt-2/,latest"
	if strings.Join(got, ",") != want {
		t.Fatalf("List(run) = %v, want %s", got, want)
	}
}

// partGate holds each part PUT until want of them are in flight at once, and
// records the most it saw together. A put that never gets there is released
// after a deadline, which only turns a hang into a failure.
type partGate struct {
	Backend
	want     int
	mu       sync.Mutex
	in, peak int
	open     chan struct{}
	once     sync.Once
}

func (g *partGate) Unwrap() Backend { return g.Backend }

func (g *partGate) WriteFile(name string, data []byte) error {
	g.mu.Lock()
	g.in++
	g.peak = max(g.peak, g.in)
	all := g.in >= g.want
	g.mu.Unlock()
	if all {
		g.once.Do(func() { close(g.open) })
	}
	select {
	case <-g.open:
	case <-time.After(5 * time.Second):
		g.once.Do(func() { close(g.open) })
	}
	err := g.Backend.WriteFile(name, data)
	g.mu.Lock()
	g.in--
	g.mu.Unlock()
	return err
}

// TestMultipartPutRoundTrips: a 17-part put over four workers keeps four
// part PUTs in flight at once and lands the payload intact, parts removed.
func TestMultipartPutRoundTrips(t *testing.T) {
	s := NewObjStore()
	payload := make([]byte, 1<<20+3379)
	rand.New(rand.NewSource(7)).Read(payload)
	opts := multipartOptions{PartBytes: 64 << 10, Workers: 4, PartPrefix: "stage/mp-"}
	parts := (len(payload) + opts.PartBytes - 1) / opts.PartBytes
	gate := &partGate{Backend: s, want: min(parts, opts.Workers), open: make(chan struct{})}
	if err := multipartPut(gate, "objects/big", bytes.NewReader(payload), int64(len(payload)), opts); err != nil {
		t.Fatalf("multipartPut: %v", err)
	}
	if gate.peak != gate.want {
		t.Fatalf("%d of %d part PUTs in flight at once, want %d", gate.peak, parts, gate.want)
	}
	got, err := s.ReadFile("objects/big")
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("multipart round-trip corrupted payload (%d vs %d bytes)", len(got), len(payload))
	}
	if s.Exists("stage") {
		t.Fatalf("part residue survived a successful multipart put")
	}
}

func TestMultipartPutSerialFallback(t *testing.T) {
	// One part's worth of payload — and a compose-less backend — both take
	// the serial path.
	for _, b := range []Backend{NewObjStore(), NewMem()} {
		payload := []byte("small payload")
		if err := multipartPut(b, "x/blob", bytes.NewReader(payload), int64(len(payload)), multipartOptions{}); err != nil {
			t.Fatalf("serial fallback: %v", err)
		}
		got, err := b.ReadFile("x/blob")
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("read back = %q, %v", got, err)
		}
	}
}

func TestMultipartPutFailureCleansParts(t *testing.T) {
	s := NewObjStore()
	s.SetFlakeEvery(3) // some part PUTs will fail; no retry layer here
	payload := make([]byte, 512<<10)
	opts := multipartOptions{PartBytes: 32 << 10, Workers: 4, PartPrefix: "stage/mp-"}
	err := multipartPut(s, "objects/big", bytes.NewReader(payload), int64(len(payload)), opts)
	if err == nil {
		t.Fatalf("multipartPut succeeded despite flaking part uploads")
	}
	if !isTransient(err) {
		t.Fatalf("error %v does not preserve the transient cause", err)
	}
	s.SetFlakeEvery(0)
	if s.Exists("objects/big") {
		t.Fatalf("failed multipart published dst")
	}
	if s.Exists("stage") {
		t.Fatalf("failed multipart left part residue behind")
	}
}

// TestMultipartPutRetryComposable proves the standard stack — Retry over
// the flaky store — turns part-level transients into a successful put.
func TestMultipartPutRetryComposable(t *testing.T) {
	obj := NewObjStore()
	obj.SetFlakeEvery(4)
	r := NewRetry(obj, 1)
	r.Sleep = func(time.Duration) {}
	payload := make([]byte, 512<<10)
	rand.New(rand.NewSource(11)).Read(payload)
	opts := multipartOptions{PartBytes: 32 << 10, Workers: 4, PartPrefix: "stage/mp-"}
	if err := multipartPut(r, "objects/big", bytes.NewReader(payload), int64(len(payload)), opts); err != nil {
		t.Fatalf("multipartPut over Retry: %v", err)
	}
	got, err := r.ReadFile("objects/big")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round-trip failed: %v", err)
	}
	if r.Retries() == 0 {
		t.Fatalf("flake every 4th PUT caused zero retries")
	}
}

func TestObjStoreRemovePrefix(t *testing.T) {
	s := NewObjStore()
	for _, k := range []string{"d/a", "d/sub/b", "e/c"} {
		if err := s.WriteFile(k, []byte("1")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Remove("d"); err != nil {
		t.Fatalf("Remove(d): %v", err)
	}
	if s.Exists("d") || s.Exists("d/a") || s.Exists("d/sub/b") {
		t.Fatalf("prefix delete left keys behind")
	}
	if !s.Exists("e/c") {
		t.Fatalf("prefix delete overreached")
	}
}
