package ckpt

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

// The decisive async property: once WaitCaptured returns, mutations of the
// live state must not leak into the written checkpoint — it restores the
// state as of Save.
func TestAsyncSaveSnapshotIsolation(t *testing.T) {
	m, o := buildOptim(t, modelcfg.Tiny(), 51)
	wantM := m.Clone()
	wantO := o.Clone(wantM)

	b := storage.NewMem()
	s := NewLazyAsyncSaver(b, 1, CaptureOptions{})
	if err := s.Save(SaveSpec{Dir: "c", Model: m, Optim: o, WorldSize: 1,
		State: TrainerState{Step: 3, Seed: 51}}); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitCaptured(); err != nil {
		t.Fatal(err)
	}
	// Trash the live state while the write may still be in flight.
	for _, ts := range m.Tensors() {
		ts.Fill(99)
	}
	for _, st := range o.States {
		for i := range st.Master {
			st.Master[i] = -99
		}
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}

	m2, o2, _, err := Restore(b, "c", tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}
	if !model.Equal(m2, wantM) {
		t.Fatal("weights mutated after WaitCaptured leaked into the checkpoint")
	}
	if !sameOptim(o2, wantO) {
		t.Fatal("optimizer state mutated after WaitCaptured leaked into the checkpoint")
	}
}

func TestAsyncSaveMultipleQueued(t *testing.T) {
	m, o := buildOptim(t, modelcfg.Tiny(), 52)
	b := storage.NewMem()
	s := NewLazyAsyncSaver(b, 2, CaptureOptions{})
	for i := 1; i <= 5; i++ {
		if err := s.Save(SaveSpec{Dir: fmt.Sprintf("run/checkpoint-%d", i),
			Model: m, Optim: o, WorldSize: 1,
			State: TrainerState{Step: i, Seed: 52}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	dirs, err := List(b, "run")
	if err != nil || len(dirs) != 5 {
		t.Fatalf("dirs = %v, %v", dirs, err)
	}
	if n := s.CaptureStats().Saves; n != 5 {
		t.Fatalf("stats.Saves = %d, want 5", n)
	}
}

// A training run captures the same payload sizes every save, so once the
// first save's spools are back in the pool a second save of the same shapes
// is served from the free list: no new pooled buffer.
func TestLazySaverReusesPooledBuffers(t *testing.T) {
	m, o := buildOptim(t, modelcfg.Tiny(), 54)
	s := NewLazyAsyncSaver(storage.NewMem(), 1, CaptureOptions{})
	defer s.Wait()
	var first storage.BufferPoolStats
	for i := 1; i <= 2; i++ {
		if err := s.Save(SaveSpec{Dir: fmt.Sprintf("run/checkpoint-%d", i),
			Model: m, Optim: o, WorldSize: 2,
			State: TrainerState{Step: i, Seed: 54}}); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			first = s.CaptureStats().Pool
		}
	}
	st := s.CaptureStats().Pool
	if first.Allocated == 0 || first.FileSpools != 0 {
		t.Fatalf("first save: %+v, want pooled spools only", first)
	}
	if st.Allocated != first.Allocated || st.Reused != first.Spools {
		t.Fatalf("second save allocated: pool %+v after the first save, %+v after the second", first, st)
	}
}

// pendingTickets reads the saver's outstanding-capture list.
func pendingTickets(s *AsyncSaver) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

func TestAsyncSaveAfterWaitRejected(t *testing.T) {
	m, o := buildOptim(t, modelcfg.Tiny(), 53)
	s := NewLazyAsyncSaver(storage.NewMem(), 1, CaptureOptions{})
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(SaveSpec{Dir: "c", Model: m, Optim: o, WorldSize: 1}); err == nil {
		t.Fatal("save after Wait accepted")
	}
	if n := s.CaptureStats().Saves; n != 0 {
		t.Fatalf("refused save counted: stats.Saves = %d", n)
	}
	if n := pendingTickets(s); n != 0 {
		t.Fatalf("refused save left %d pending tickets", n)
	}
	if err := s.Flush(); err == nil {
		t.Fatal("flush after Wait accepted")
	}
	// Wait is idempotent.
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// A Save racing Wait is either enqueued whole — captured, written and
// committed before Wait returns — or refused; never accepted and then
// dropped, which is what happens if Wait can close the capture pipeline
// between a Save's unit pushes and its write push. Run with -race.
func TestAsyncSaveWaitRaceDoesNotPanic(t *testing.T) {
	m, o := buildOptim(t, modelcfg.Tiny(), 57)
	for iter := 0; iter < 30; iter++ {
		b := storage.NewMem()
		s := NewLazyAsyncSaver(b, 2, CaptureOptions{})
		var accepted []string
		var captureErr atomic.Value
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 1; i <= 4; i++ {
				dir := fmt.Sprintf("run/checkpoint-%d", i)
				if err := s.Save(SaveSpec{Dir: dir, Model: m, Optim: o, WorldSize: 1,
					State: TrainerState{Step: i, Seed: 57}}); err != nil {
					// Losing the race to Wait is the accepted outcome.
					return
				}
				accepted = append(accepted, dir)
				if err := s.WaitCaptured(); err != nil {
					captureErr.Store(err)
					return
				}
			}
		}()
		if err := s.Wait(); err != nil {
			t.Fatalf("iter %d: Wait = %v", iter, err)
		}
		<-done
		if err := captureErr.Load(); err != nil {
			t.Fatalf("iter %d: WaitCaptured after an accepted save: %v", iter, err)
		}
		if n := s.CaptureStats().Saves; n != int64(len(accepted)) {
			t.Fatalf("iter %d: stats.Saves = %d, accepted %d", iter, n, len(accepted))
		}
		if n := pendingTickets(s); n != 0 {
			t.Fatalf("iter %d: %d tickets left pending", iter, n)
		}
		// Whatever was accepted before Wait won must be fully written.
		for _, d := range accepted {
			if err := VerifyCommit(b, d); err != nil {
				t.Fatalf("iter %d: accepted save %s not committed: %v", iter, d, err)
			}
			if _, _, _, err := Restore(b, d, tensor.BF16); err != nil {
				t.Fatalf("iter %d: accepted save %s not restorable: %v", iter, d, err)
			}
		}
	}
}

// failingBackend rejects every write, to exercise async error collection.
type failingBackend struct{ storage.Backend }

func (f failingBackend) WriteFile(name string, data []byte) error {
	return fmt.Errorf("disk full")
}

func TestAsyncSaveCollectsErrors(t *testing.T) {
	m, o := buildOptim(t, modelcfg.Tiny(), 54)
	s := NewLazyAsyncSaver(failingBackend{storage.NewMem()}, 1, CaptureOptions{})
	for i := 1; i <= 3; i++ {
		if err := s.Save(SaveSpec{Dir: fmt.Sprintf("c%d", i), Model: m, Optim: o,
			WorldSize: 1, State: TrainerState{Step: i}}); err != nil {
			t.Fatal(err)
		}
	}
	err := s.Wait()
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "3 async saves failed") {
		t.Fatalf("err should count failures: %v", err)
	}
}

// slowBackend delays writes so the stall benchmark below is measurable.
type slowBackend struct {
	storage.Backend
	delay time.Duration
}

func (s slowBackend) WriteFile(name string, data []byte) error {
	time.Sleep(s.delay)
	return s.Backend.WriteFile(name, data)
}

// parkedBackend holds every mutating call — WriteFile, Create, Rename,
// Remove — until release is closed, and counts the calls entered and
// completed. A call that parks announces itself on parked (never blocking on
// it).
type parkedBackend struct {
	storage.Backend
	release       chan struct{}
	parked        chan struct{}
	entered, done atomic.Int64
}

func newParkedBackend(b storage.Backend) *parkedBackend {
	return &parkedBackend{Backend: b, release: make(chan struct{}), parked: make(chan struct{}, 1)}
}

func (p *parkedBackend) Unwrap() storage.Backend { return p.Backend }

// hold parks the caller until release, then runs the call and counts it.
func (p *parkedBackend) hold(call func() error) error {
	p.entered.Add(1)
	select {
	case <-p.release:
	default:
		select {
		case p.parked <- struct{}{}:
		default:
		}
		<-p.release
	}
	err := call()
	p.done.Add(1)
	return err
}

func (p *parkedBackend) WriteFile(name string, data []byte) error {
	return p.hold(func() error { return p.Backend.WriteFile(name, data) })
}

func (p *parkedBackend) Create(name string) (io.WriteCloser, error) {
	var w io.WriteCloser
	err := p.hold(func() (err error) { w, err = p.Backend.Create(name); return err })
	return w, err
}

func (p *parkedBackend) Rename(oldName, newName string) error {
	return p.hold(func() error { return p.Backend.Rename(oldName, newName) })
}

func (p *parkedBackend) Remove(name string) error {
	return p.hold(func() error { return p.Backend.Remove(name) })
}

// The point of async checkpointing: the trainer's stall under the lazy saver
// excludes backend I/O, and the synchronous Save's includes all of it —
// proven on a backend that holds every write, not timed (the timing is
// BenchmarkAsyncVsSyncSaveStall's): lazy Save + WaitCaptured return while no write has
// completed, and a sync Save is still inside the backend while one is held
// and has completed every write it issued by the time it returns.
func TestAsyncSaveReducesStall(t *testing.T) {
	m, o := buildOptim(t, modelcfg.Tiny(), 55)
	wantM := m.Clone()
	wantO := o.Clone(wantM)
	for _, dedup := range []bool{false, true} {
		spec := SaveSpec{Dir: "run/checkpoint-1", Model: m, Optim: o, WorldSize: 4,
			Dedup: dedup, State: TrainerState{Step: 1, Seed: 55}}

		// Lazy: the foreground returns with every write still held. A saver
		// that wrote in the foreground would never return; the deadline only
		// turns that hang into a failure.
		parked := newParkedBackend(storage.NewMem())
		s := NewLazyAsyncSaver(parked, 1, CaptureOptions{})
		fg := make(chan error, 1)
		go func() {
			err := s.Save(spec)
			if err == nil {
				err = s.WaitCaptured()
			}
			fg <- err
		}()
		select {
		case err := <-fg:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("dedup %v: lazy Save + WaitCaptured blocked on a held backend write", dedup)
		}
		if n := parked.done.Load(); n != 0 {
			t.Fatalf("dedup %v: %d backend writes completed inside the lazy stall, want 0", dedup, n)
		}
		trash(m, o)
		close(parked.release)
		if err := s.Wait(); err != nil {
			t.Fatal(err)
		}
		restoreEquals(t, parked, spec.Dir, wantM, wantO)
		m = wantM.Clone()
		o = wantO.Clone(m)
		spec.Model, spec.Optim = m, o

		// Sync: still inside Save while a write is held; every write it
		// issued done at return.
		parked = newParkedBackend(storage.NewMem())
		var entered, done int64
		returned := make(chan struct{})
		go func() {
			defer close(returned)
			if err := Save(parked, spec); err != nil {
				t.Error(err)
			}
			entered, done = parked.entered.Load(), parked.done.Load()
		}()
		<-parked.parked
		select {
		case <-returned:
			t.Fatalf("dedup %v: sync Save returned while its first write was held", dedup)
		default:
		}
		close(parked.release)
		<-returned
		if done == 0 || done != entered {
			t.Fatalf("dedup %v: sync Save returned with %d of its %d writes done", dedup, done, entered)
		}
		restoreEquals(t, parked, spec.Dir, wantM, wantO)
	}
}

func BenchmarkAsyncVsSyncSaveStall(b *testing.B) {
	m, o := buildOptim(b, modelcfg.Tiny(), 56)
	slow := slowBackend{storage.NewMem(), time.Millisecond}
	spec := SaveSpec{Dir: "c", Model: m, Optim: o, WorldSize: 2,
		State: TrainerState{Step: 1, Seed: 56}}
	b.Run("sync", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := Save(slow, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("async-stall", func(b *testing.B) {
		s := NewLazyAsyncSaver(slow, 4, CaptureOptions{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Save(spec); err != nil {
				b.Fatal(err)
			}
			if err := s.WaitCaptured(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := s.Wait(); err != nil {
			b.Fatal(err)
		}
	})
}
