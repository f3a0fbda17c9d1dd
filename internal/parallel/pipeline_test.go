package parallel

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPipelineOrdering(t *testing.T) {
	// Workers finish out of order (earlier jobs sleep longer); the sink
	// must still observe push order.
	var got []int
	p := NewPipeline(4, 4,
		func(i int) (int, error) {
			time.Sleep(time.Duration(20-i) * time.Millisecond)
			return i, nil
		},
		func(v int) error {
			got = append(got, v)
			return nil
		})
	for i := 0; i < 10; i++ {
		if err := p.Push(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("sink order %v", got)
		}
	}
	if len(got) != 10 {
		t.Fatalf("consumed %d of 10", len(got))
	}
}

func TestPipelineWorkError(t *testing.T) {
	boom := errors.New("boom")
	var consumed atomic.Int32
	p := NewPipeline(2, 2,
		func(i int) (int, error) {
			if i == 3 {
				return 0, boom
			}
			return i, nil
		},
		func(v int) error {
			consumed.Add(1)
			return nil
		})
	for i := 0; i < 8; i++ {
		if err := p.Push(i); err != nil {
			break
		}
	}
	if err := p.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want %v", err, boom)
	}
	// Jobs before the failing one are consumed; jobs after it are not.
	if n := consumed.Load(); n < 3 {
		t.Fatalf("consumed %d, want >= 3", n)
	}
}

func TestPipelineSinkError(t *testing.T) {
	boom := errors.New("sink boom")
	p := NewPipeline(2, 2,
		func(i int) (int, error) { return i, nil },
		func(v int) error {
			if v == 2 {
				return boom
			}
			return nil
		})
	for i := 0; i < 6; i++ {
		if err := p.Push(i); err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("Push failed with %v, want %v", err, boom)
			}
			break
		}
	}
	if err := p.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want %v", err, boom)
	}
}

func TestPipelinePushAfterClose(t *testing.T) {
	p := NewPipeline(1, 1,
		func(i int) (int, error) { return i, nil }, nil)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Push(1); !errors.Is(err, errPipelineClosed) {
		t.Fatalf("Push after Close = %v", err)
	}
	// Close is idempotent.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// The regression the AsyncSaver race fix depends on: Push racing Close must
// never panic on a closed channel — it either enqueues or reports closed.
func TestPipelinePushCloseRace(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		p := NewPipeline(2, 2,
			func(i int) (int, error) { return i, nil }, nil)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					if err := p.Push(i); err != nil {
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Close()
		}()
		wg.Wait()
		p.Close()
	}
}

func TestPipelineCleanupRunsExactlyOnce(t *testing.T) {
	boom := errors.New("boom")
	var cleanups atomic.Int32
	p := NewPipeline(2, 2,
		func(i int) (int, error) {
			if i == 2 {
				return 0, boom
			}
			return i, nil
		}, nil)
	pushed := 0
	for i := 0; i < 10; i++ {
		if err := p.PushWithCleanup(i, func() { cleanups.Add(1) }); err != nil {
			break
		}
		pushed++
	}
	p.Close()
	// Every job that entered the pipeline must be cleaned up, consumed or
	// dropped alike.
	if int(cleanups.Load()) != pushed {
		t.Fatalf("cleanups = %d, pushed = %d", cleanups.Load(), pushed)
	}
}

// The depth contract AsyncSaver's queueing depends on: with a free depth
// slot, Push must return without waiting for the busy worker.
func TestPipelineDepthQueuesWithoutBlocking(t *testing.T) {
	release := make(chan struct{})
	p := NewPipeline(1, 1,
		func(i int) (int, error) {
			<-release // worker stays busy on job 0
			return i, nil
		}, nil)
	done := make(chan struct{})
	go func() {
		p.Push(0) // taken by the worker
		p.Push(1) // must queue in the free depth slot, not block
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Push blocked despite a free depth slot")
	}
	close(release)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestByteGateBoundsAndPeak(t *testing.T) {
	g := NewByteGate(100)
	g.Acquire(60)
	g.Acquire(40)
	if got := g.InFlight(); got != 100 {
		t.Fatalf("in flight = %d", got)
	}
	acquired := make(chan struct{})
	go func() {
		g.Acquire(10) // must wait: 100 + 10 > 100
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("acquire beyond capacity did not block")
	case <-time.After(20 * time.Millisecond):
	}
	g.Release(60)
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("acquire did not wake after release")
	}
	g.Release(40)
	g.Release(10)
	if got := g.Peak(); got != 100 {
		t.Fatalf("peak = %d, want 100", got)
	}
	if got := g.InFlight(); got != 0 {
		t.Fatalf("in flight after drain = %d", got)
	}
}

func TestByteGateOversizeItem(t *testing.T) {
	g := NewByteGate(10)
	done := make(chan struct{})
	go func() {
		g.Acquire(50) // larger than capacity: admitted alone
		g.Release(50)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("oversize acquire deadlocked")
	}
	if g.Peak() != 50 {
		t.Fatalf("peak = %d", g.Peak())
	}
}

func TestByteGateUnbounded(t *testing.T) {
	g := NewByteGate(0)
	g.Acquire(1 << 40)
	g.Acquire(1 << 40)
	if g.Peak() != 2<<40 {
		t.Fatalf("peak = %d", g.Peak())
	}
	g.Release(1 << 40)
	g.Release(1 << 40)
}
