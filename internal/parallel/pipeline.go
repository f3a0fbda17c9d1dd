package parallel

import (
	"errors"
	"sync"
	"sync/atomic"
)

// errPipelineClosed is returned by Pipeline.Push after Close has begun.
var errPipelineClosed = errors.New("parallel: pipeline closed")

// Pipeline is an ordered producer → bounded workers → in-order consumer
// primitive: jobs pushed in are processed by a bounded worker pool, and the
// sink sees every result in push order regardless of which worker finished
// first. It is the streaming backbone of the merge engine (per-tensor read
// jobs feeding a single ordered file writer) and of the async checkpoint
// saver.
//
// At most depth results may be queued between workers and sink; a Push
// beyond that blocks, bounding in-flight work. After the first work or sink
// error the pipeline keeps draining (so Close never hangs) but stops calling
// the sink, and Push fails fast with that error.
type Pipeline[J, R any] struct {
	work func(J) (R, error)
	sink func(R) error

	jobs  chan pipeJob[J, R]
	order chan chan pipeResult[R]

	workerWg sync.WaitGroup
	sinkWg   sync.WaitGroup

	failed atomic.Bool

	// mu serialises pushers against Close: Push holds it across the enqueue
	// so a concurrent Close cannot close the channels between the closed
	// check and the send (the panic a naive check-then-send design has).
	mu       sync.Mutex
	closed   bool
	firstErr error
	errMu    sync.Mutex
}

type pipeJob[J, R any] struct {
	j       J
	out     chan pipeResult[R]
	cleanup func()
}

type pipeResult[R any] struct {
	v       R
	err     error
	cleanup func()
}

// NewPipeline starts workers goroutines running work and one sink goroutine.
// workers < 1 means 1. depth < 0 means 0 (fully synchronous hand-off: one
// job in flight beyond the one being pushed). A nil sink discards results.
func NewPipeline[J, R any](workers, depth int, work func(J) (R, error), sink func(R) error) *Pipeline[J, R] {
	if workers < 1 {
		workers = 1
	}
	if depth < 0 {
		depth = 0
	}
	p := &Pipeline[J, R]{
		work: work,
		sink: sink,
		// At most depth+1 jobs can be admitted before workers pick them up
		// (depth order-buffer slots plus the one in the sink's hand), so
		// this buffer guarantees Push only ever blocks on the order
		// channel — the depth bound — never on worker availability.
		jobs:  make(chan pipeJob[J, R], depth+1),
		order: make(chan chan pipeResult[R], depth),
	}
	for w := 0; w < workers; w++ {
		p.workerWg.Add(1)
		go func() {
			defer p.workerWg.Done()
			for job := range p.jobs {
				if p.failed.Load() {
					// Drain without working; the sink is no longer
					// consuming results for real.
					var zero R
					job.out <- pipeResult[R]{zero, errPipelineClosed, job.cleanup}
					continue
				}
				v, err := p.work(job.j)
				job.out <- pipeResult[R]{v, err, job.cleanup}
			}
		}()
	}
	p.sinkWg.Add(1)
	go func() {
		defer p.sinkWg.Done()
		for out := range p.order {
			res := <-out
			if !p.failed.Load() {
				err := res.err
				if err == nil && p.sink != nil {
					err = p.sink(res.v)
				}
				if err != nil {
					p.fail(err)
				}
			}
			// The cleanup contract: exactly once per admitted job, whether
			// its result was consumed or dropped after a failure. Callers
			// use it to return byte-gate reservations, so skipping it
			// would wedge a blocked producer.
			if res.cleanup != nil {
				res.cleanup()
			}
		}
	}()
	return p
}

func (p *Pipeline[J, R]) fail(err error) {
	p.errMu.Lock()
	if p.firstErr == nil {
		p.firstErr = err
	}
	p.errMu.Unlock()
	p.failed.Store(true)
}

// Err returns the first work or sink error observed so far.
func (p *Pipeline[J, R]) Err() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.firstErr
}

// Push submits a job, blocking while the pipeline is at depth. It returns
// errPipelineClosed after Close, and fails fast with the pipeline's first
// error once a previous job or sink call has failed (the job is then not
// submitted).
func (p *Pipeline[J, R]) Push(j J) error { return p.PushWithCleanup(j, nil) }

// PushWithCleanup is Push with a per-job cleanup hook the pipeline runs
// exactly once when the job leaves it — after the sink consumed the result,
// or when the result is dropped because an earlier job failed. If Push
// itself returns an error the job never entered the pipeline and cleanup is
// NOT run; the caller still owns it.
func (p *Pipeline[J, R]) PushWithCleanup(j J, cleanup func()) error {
	if p.failed.Load() {
		if err := p.Err(); err != nil {
			return err
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errPipelineClosed
	}
	out := make(chan pipeResult[R], 1)
	// Reserving the ordering slot first is what bounds in-flight work and
	// guarantees the sink's view matches push order.
	p.order <- out
	p.jobs <- pipeJob[J, R]{j, out, cleanup}
	return nil
}

// Close drains the pipeline and returns its first error. Idempotent; no
// Push may be accepted afterwards.
func (p *Pipeline[J, R]) Close() error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
		close(p.order)
	}
	p.mu.Unlock()
	p.workerWg.Wait()
	p.sinkWg.Wait()
	return p.Err()
}
