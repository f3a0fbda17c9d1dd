package parallel

import "sync"

// Lease is a value several jobs of one pipeline share — a loaded shard file,
// a decoded group — loaded by the first Get, dropped after the Uses-th Done,
// and loaded again by any Get after that. Load runs under the lease's lock,
// so jobs waiting on the same value wait for one load.
type Lease[T any] struct {
	Load func() (T, error)
	Uses int

	mu   sync.Mutex
	val  T
	held bool
	left int
}

// Get returns the value, loading it if it is not held. A successful Get must
// be paired with a Done.
func (l *Lease[T]) Get() (T, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.held {
		v, err := l.Load()
		if err != nil {
			return v, err
		}
		l.val, l.held, l.left = v, true, l.Uses
	}
	return l.val, nil
}

// Done records one use; the last drops the value.
func (l *Lease[T]) Done() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.left--; l.left <= 0 {
		var zero T
		l.val, l.held = zero, false
	}
}
