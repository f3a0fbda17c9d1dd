// Package parallel provides a minimal bounded worker pool used to
// parallelise shard loading in the merge engine — the Go analogue of the
// paper's ProcessPoolExecutor (§4.2). Stdlib only.
package parallel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// run calls fn(i) for every i in [0, n) on at most workers goroutines, the
// calling one included. Indices are handed out by an atomic counter, so a
// fan-out over a handful of cheap tasks costs a few atomic adds and
// workers-1 goroutine starts, not a channel handoff per task.
func run(workers, n int, fn func(i int)) {
	workers = max(1, min(workers, n))
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// ForEach runs fn(i) for i in [0, n) using at most workers goroutines.
// It waits for all tasks and returns the combined error (errors.Join) of
// every failed task, preserving index order. workers < 1 means serial.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	run(workers, n, func(i int) {
		if err := fn(i); err != nil {
			errs[i] = fmt.Errorf("task %d: %w", i, err)
		}
	})
	return errors.Join(errs...)
}

// ForEachFirst runs fn(i) for i in [0, n) like ForEach and returns the error
// of the lowest failing index exactly as fn returned it: what a serial loop
// stopping at its first failure would have returned, whichever task failed
// first in time. Every task runs all the same.
func ForEachFirst(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	run(workers, n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
