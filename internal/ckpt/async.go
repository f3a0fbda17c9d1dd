package ckpt

import (
	"fmt"
	"sync"
	"time"

	"llmtailor/internal/parallel"
	"llmtailor/internal/storage"
)

// AsyncSaver overlaps checkpoint writes with continued training, in the
// spirit of CheckFreq/DataStates-LLM (§6.1 of the paper — optimizations the
// paper notes are composable with partial checkpointing), by lazy layer-wise
// capture (capture.go): Save only enumerates the checkpoint and enqueues
// per-layer capture units; workers drain each layer out of the live state
// into pooled spools (or straight to a manifest reference when the content
// already exists as a blob), and the caller blocks in WaitCaptured —
// typically after computing the next gradients — only until the changed
// layers are landed. The stall is O(changed layers); a capture in which
// every layer changed is a snapshot.
//
// Captured saves are written in Save order by a one-worker pipeline. At most
// `depth` writes may be in flight; further Saves block, bounding pooled
// memory at the spool budget.
type AsyncSaver struct {
	base    storage.Backend
	pool    *storage.BufferPool
	capture *parallel.Pipeline[*captureUnit, struct{}]
	// writes runs a save's commit or a Flush marker, in push order. Save
	// errors travel as values into errs: checkpoint saves must attempt
	// every write and report the combined outcome, where the pipeline's own
	// error channel would abort on the first failure.
	writes *parallel.Pipeline[func() error, error]

	// admit serialises Save's enqueue against Wait's close: a Save either
	// enqueues its capture units and its write, or is refused whole.
	admit  sync.Mutex
	closed bool

	mu      sync.Mutex
	cache   map[string]*layerCacheEntry
	pending []*captureTicket
	stats   CaptureStats
	errs    []error
}

// NewLazyAsyncSaver starts a saver over the backend with the given in-flight
// write depth (minimum 1). Callers must not mutate the model or optimizer
// between Save and the next WaitCaptured.
func NewLazyAsyncSaver(b storage.Backend, depth int, opts CaptureOptions) *AsyncSaver {
	opts = opts.withDefaults()
	if depth < 1 {
		depth = 1
	}
	s := &AsyncSaver{
		base:  b,
		pool:  storage.NewBufferPool(opts.spoolBytes),
		cache: map[string]*layerCacheEntry{},
	}
	// Units fan in unordered (each lands in its ticket slot), so the
	// capture pipeline's ordered sink is a no-op; errors travel through
	// tickets.
	s.capture = parallel.NewPipeline(opts.Workers, opts.Workers*4,
		func(u *captureUnit) (struct{}, error) {
			s.runUnit(u)
			return struct{}{}, nil
		},
		func(struct{}) error { return nil })
	s.writes = parallel.NewPipeline(1, depth-1,
		func(job func() error) (error, error) { return job(), nil },
		func(saveErr error) error {
			if saveErr != nil {
				s.mu.Lock()
				s.errs = append(s.errs, saveErr)
				s.mu.Unlock()
			}
			return nil
		})
	return s
}

// Save validates the spec, carves it into per-layer capture units and
// enqueues them with the save's write. It reads no payload bytes; the caller
// must call WaitCaptured before the next mutation of the live state. A Save
// racing Wait is either enqueued whole — captured and written before Wait
// returns — or refused with an error.
func (s *AsyncSaver) Save(spec SaveSpec) error {
	start := time.Now()
	s.admit.Lock()
	defer s.admit.Unlock()
	if s.closed {
		return fmt.Errorf("ckpt: async save after Wait")
	}
	t, units, err := newTicket(spec)
	if err != nil {
		return err
	}
	// Neither push is refused: only Wait closes the pipelines, after taking
	// admit, and neither pipeline's work or sink ever fails.
	for _, u := range units {
		s.capture.Push(u)
	}
	s.writes.Push(func() error { return s.write(t) })
	s.mu.Lock()
	s.pending = append(s.pending, t)
	s.stats.Saves++
	s.stats.StallNs += int64(time.Since(start))
	s.mu.Unlock()
	return nil
}

// Flush blocks until every save enqueued so far has been fully written
// (committed or failed — failures surface through Wait). Unlike Wait the
// saver stays usable. Callers that retire or sweep old checkpoints while
// a save is in flight can Flush first so the new save's ref record is on
// disk before the sweep scans.
func (s *AsyncSaver) Flush() error {
	ch := make(chan struct{})
	if err := s.writes.Push(func() error { close(ch); return nil }); err != nil {
		return fmt.Errorf("ckpt: flush after Wait")
	}
	<-ch
	return nil
}

// WaitCaptured blocks until every enqueued save has finished reading the
// live model and optimizer state — the point after which the caller may
// mutate them again. The first capture failure is returned early (the
// combined Wait error reports it too).
func (s *AsyncSaver) WaitCaptured() error {
	start := time.Now()
	s.mu.Lock()
	tickets := s.pending
	s.pending = nil
	s.mu.Unlock()
	var first error
	for _, t := range tickets {
		<-t.done
		if err := t.failure(); err != nil && first == nil {
			first = err
		}
	}
	s.mu.Lock()
	s.stats.StallNs += int64(time.Since(start))
	s.mu.Unlock()
	return first
}

// CaptureStats reports the saver's capture accounting.
func (s *AsyncSaver) CaptureStats() CaptureStats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.SpoolPeakBytes = s.pool.Peak()
	st.Pool = s.pool.Stats()
	return st
}

// Wait drains all pending captures and writes and returns the combined error
// of every failed save. The saver cannot be reused afterwards; Wait is
// idempotent.
func (s *AsyncSaver) Wait() error {
	s.admit.Lock()
	first := !s.closed
	s.closed = true
	s.admit.Unlock()
	if first {
		// Close only drains (nothing fails inside either pipeline). Capture
		// first: every enqueued unit lands, then the ordered writes consume
		// the tickets.
		s.capture.Close()
		s.writes.Close()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch len(s.errs) {
	case 0:
		return nil
	case 1:
		return s.errs[0]
	}
	return fmt.Errorf("ckpt: %d async saves failed, first: %w", len(s.errs), s.errs[0])
}
