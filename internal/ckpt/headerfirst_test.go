package ckpt

// Plain containers are written header first, once: a save's payloads have
// their CRCs before the first container opens and a stored payload carries
// its own, so the write stage asks its backend for no scratch spool, and
// bytes that change between the CRC pass and the write fail the save.

import (
	"bytes"
	"hash/crc32"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"llmtailor/internal/modelcfg"
	"llmtailor/internal/storage"
)

// spoolCounter counts the scratch spools asked of the backend under it.
type spoolCounter struct {
	storage.Backend
	spools atomic.Int64
}

func (c *spoolCounter) NewSpool() (storage.Spool, error) {
	c.spools.Add(1)
	return storage.NewSpool(c.Backend)
}

func (c *spoolCounter) Unwrap() storage.Backend { return c.Backend }

func TestPlainWritesNeedNoSpool(t *testing.T) {
	for _, name := range []string{"mem", "os"} {
		t.Run(name, func(t *testing.T) {
			var base storage.Backend = storage.NewMem()
			if name == "os" {
				var err error
				if base, err = storage.NewOS(t.TempDir()); err != nil {
					t.Fatal(err)
				}
			}
			b := &spoolCounter{Backend: base}
			m, o := buildOptim(t, modelcfg.Tiny(), 61)
			spec := SaveSpec{Dir: "run/checkpoint-1", Model: m, Optim: o, WorldSize: 3, State: TrainerState{Step: 1}}
			if err := Save(b, spec); err != nil {
				t.Fatal(err)
			}
			if n := b.spools.Load(); n != 0 {
				t.Fatalf("plain Save asked for %d spools", n)
			}
			spec.Dir, spec.State.Step = "run/checkpoint-2", 2
			s := NewLazyAsyncSaver(b, 1, CaptureOptions{})
			if err := s.Save(spec); err != nil {
				t.Fatal(err)
			}
			if err := s.Wait(); err != nil {
				t.Fatal(err)
			}
			if n := b.spools.Load(); n != 0 {
				t.Fatalf("lazy plain save asked for %d spools", n)
			}
			// A content-addressed source to materialize from, saved beside
			// the counter.
			spec.Dir, spec.Dedup = "run/checkpoint-3", true
			if err := Save(base, spec); err != nil {
				t.Fatal(err)
			}
			for _, dir := range []string{"run/checkpoint-2", "run/checkpoint-3"} {
				if err := MaterializeWeights(b, dir, "out/"+dir+"/model.ltsf", 0); err != nil {
					t.Fatal(err)
				}
				if err := MaterializeShardFile(b, dir, 1, "out/"+dir+"/rank1.ltos", 0); err != nil {
					t.Fatal(err)
				}
			}
			if n := b.spools.Load(); n != 0 {
				t.Fatalf("materialization asked for %d spools", n)
			}
			for _, f := range []string{"model.ltsf", ShardFileName(1)} {
				want, _ := base.ReadFile("run/checkpoint-2/" + f)
				for _, got := range []string{"out/run/checkpoint-2/", "out/run/checkpoint-3/"} {
					if f == ShardFileName(1) {
						got += "rank1.ltos"
					} else {
						got += f
					}
					if data, err := base.ReadFile(got); err != nil || string(data) != string(want) {
						t.Fatalf("%s differs from the saved %s (%v)", got, f, err)
					}
				}
			}
		})
	}
}

// createHook runs hook, once, when a file named with suffix is created.
type createHook struct {
	storage.Backend
	suffix string
	once   sync.Once
	hook   func()
}

func (c *createHook) Create(name string) (io.WriteCloser, error) {
	if strings.HasSuffix(name, c.suffix) {
		c.once.Do(c.hook)
	}
	return c.Backend.Create(name)
}

func (c *createHook) Unwrap() storage.Backend { return c.Backend }

// The header CRC of a save's payload is taken by the CRC pass, the bytes by a
// second replay of the encoder: a state that changes in between fails the
// save, naming the container, before anything commits.
func TestSaveFailsWhenReplayDiffers(t *testing.T) {
	b := storage.NewMem()
	m, o := buildOptim(t, modelcfg.Tiny(), 62)
	spec := SaveSpec{Dir: "run/checkpoint-1", Model: m, Optim: o, WorldSize: 2, State: TrainerState{Step: 1}}
	if err := Save(b, spec); err != nil {
		t.Fatal(err)
	}
	w := m.Tensors()[0]
	hooked := &createHook{Backend: b, suffix: "/model.ltsf", hook: func() { w.Set(0, w.At(0)+1) }}
	spec.Dir, spec.State.Step = "run/checkpoint-2", 2
	err := Save(hooked, spec)
	if err == nil || !strings.Contains(err.Error(), "checkpoint-2.tmp/model.ltsf") || !strings.Contains(err.Error(), "streamed CRC") {
		t.Fatalf("save over a changed encoder: err = %v, want a CRC failure naming model.ltsf", err)
	}
	if b.Exists("run/checkpoint-2") {
		t.Fatal("failed save left run/checkpoint-2")
	}
	if latest, err := readLatestPointer(b, "run"); err != nil || latest != "run/checkpoint-1" {
		t.Fatalf("latest = %q, %v; want run/checkpoint-1", latest, err)
	}
}

// writeSizes records the size of every write to the streams it creates.
type writeSizes struct {
	storage.Backend
	mu    sync.Mutex
	sizes []int
}

func (b *writeSizes) Create(name string) (io.WriteCloser, error) {
	w, err := b.Backend.Create(name)
	return &sizedWriter{w, b}, err
}

type sizedWriter struct {
	io.WriteCloser
	b *writeSizes
}

func (w *sizedWriter) Write(p []byte) (int, error) {
	w.b.mu.Lock()
	w.b.sizes = append(w.b.sizes, len(p))
	w.b.mu.Unlock()
	return w.WriteCloser.Write(p)
}

// A container's payload reaches the backend in writes of at most a chunk,
// even when the read-ahead hands over a whole tensor in one write.
func TestContainerPayloadWritesAreChunked(t *testing.T) {
	b := &writeSizes{Backend: storage.NewMem()}
	w := newLTSFWriter(b, "out", "m", readAhead{workers: 2, chunk: 64})
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	for _, name := range []string{"a", "b"} {
		if err := w.appendRaw(RawTensor{Name: name, DType: "f32", Shape: []int{250}, Size: 1000,
			CRC32: crc32.ChecksumIEEE(data)}, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Magic and length, then the header, are one write each.
	payload, total := b.sizes[2:], 0
	for i, n := range payload {
		if n > 64 {
			t.Fatalf("payload write %d is %d bytes, chunk 64", i, n)
		}
		total += n
	}
	if total != 2000 {
		t.Fatalf("payload writes carry %d bytes, want 2000", total)
	}
}
