package ckpt

import (
	"fmt"
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

// slowBackend delays writes so the stall comparison below is measurable.
type slowBackend struct {
	storage.Backend
	delay time.Duration
}

func (s slowBackend) WriteFile(name string, data []byte) error {
	time.Sleep(s.delay)
	return s.Backend.WriteFile(name, data)
}

// The point of async checkpointing: the trainer's stall — Save plus
// WaitCaptured — is far shorter than the write itself.
func TestAsyncSaveReducesStall(t *testing.T) {
	m, o := buildOptim(t, modelcfg.Tiny(), 55)
	slow := slowBackend{storage.NewMem(), 3 * time.Millisecond}
	spec := SaveSpec{Dir: "c", Model: m, Optim: o, WorldSize: 4,
		State: TrainerState{Step: 1, Seed: 55}}

	start := time.Now()
	if err := Save(slow, spec); err != nil {
		t.Fatal(err)
	}
	syncStall := time.Since(start)

	s := NewLazyAsyncSaver(slow, 1, CaptureOptions{})
	start = time.Now()
	if err := s.Save(spec); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitCaptured(); err != nil {
		t.Fatal(err)
	}
	asyncStall := time.Since(start)
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	// 9 files × 3ms ≈ 27ms sync; the async stall should be well under half
	// of that (capture only spools the state in memory).
	if asyncStall*2 >= syncStall {
		t.Fatalf("async stall %v not clearly below sync %v", asyncStall, syncStall)
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
