package ckpt

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"llmtailor/internal/modelcfg"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

// The decisive async property: mutations after Save must not leak into the
// written checkpoint (snapshot isolation).
func TestAsyncSaveSnapshotIsolation(t *testing.T) {
	m, o := buildOptim(t, modelcfg.Tiny(), 51)
	want := m.Tensors()[0].At(0)

	b := storage.NewMem()
	s := NewAsyncSaver(b, 1)
	if err := s.Save(SaveSpec{Dir: "c", Model: m, Optim: o, WorldSize: 1,
		State: TrainerState{Step: 3, Seed: 51}}); err != nil {
		t.Fatal(err)
	}
	// Trash the live state immediately.
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
	if got := m2.Tensors()[0].At(0); got != want {
		t.Fatalf("snapshot leaked mutation: %v, want %v", got, want)
	}
	master, _, _, _ := o2.TensorState(m2.Tensors()[0].Name)
	if master[0] == -99 {
		t.Fatal("optimizer snapshot leaked mutation")
	}
}

func TestAsyncSaveMultipleQueued(t *testing.T) {
	m, o := buildOptim(t, modelcfg.Tiny(), 52)
	b := storage.NewMem()
	s := NewAsyncSaver(b, 2)
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
}

func TestAsyncSaveAfterWaitRejected(t *testing.T) {
	m, o := buildOptim(t, modelcfg.Tiny(), 53)
	s := NewAsyncSaver(storage.NewMem(), 1)
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(SaveSpec{Dir: "c", Model: m, Optim: o, WorldSize: 1}); err == nil {
		t.Fatal("save after Wait accepted")
	}
	// Wait is idempotent.
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// Regression for the seed's Save/Wait race: Save checked done under the
// mutex but sent on the jobs channel after releasing it, so a Save racing
// Wait could send on a closed channel and panic. Run with -race.
func TestAsyncSaveWaitRaceDoesNotPanic(t *testing.T) {
	m, o := buildOptim(t, modelcfg.Tiny(), 57)
	for iter := 0; iter < 30; iter++ {
		b := storage.NewMem()
		s := NewAsyncSaver(b, 2)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 1; i <= 4; i++ {
				if err := s.Save(SaveSpec{Dir: fmt.Sprintf("run/checkpoint-%d", i),
					Model: m, Optim: o, WorldSize: 1,
					State: TrainerState{Step: i, Seed: 57}}); err != nil {
					// Losing the race to Wait is the accepted outcome —
					// an error, never a panic.
					return
				}
			}
		}()
		if err := s.Wait(); err != nil {
			t.Fatal(err)
		}
		<-done
		// Whatever was accepted before Wait won must be fully written.
		if dirs, err := List(b, "run"); err == nil {
			for _, d := range dirs {
				if _, _, _, err := Restore(b, d, tensor.BF16); err != nil {
					t.Fatalf("accepted save %s not restorable: %v", d, err)
				}
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
	s := NewAsyncSaver(failingBackend{storage.NewMem()}, 1)
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

// The point of async checkpointing: the Save call returns far faster than
// the write itself.
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

	s := NewAsyncSaver(slow, 1)
	start = time.Now()
	if err := s.Save(spec); err != nil {
		t.Fatal(err)
	}
	asyncStall := time.Since(start)
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	// 9 files × 3ms ≈ 27ms sync; the async call should stall well under
	// half of that (it only clones the state).
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
		s := NewAsyncSaver(slow, 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Save(spec); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := s.Wait(); err != nil {
			b.Fatal(err)
		}
	})
}
