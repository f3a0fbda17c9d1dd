// Spool admission: the one memory-or-file rule for payloads parked under a
// memory budget. A lazy save parks each changed layer between capture and its
// background write; an output's hash pass parks each payload it hashes so the
// put replays it. Both must never block for the budget (a blocked worker
// would hold up the release that frees it), and both park the same few sizes
// again and again: BufferPool.Spool hands out a pooled memory spool when the
// budget admits the payload right now, a temp-file spool otherwise.

package storage

import (
	"sync"

	"llmtailor/internal/parallel"
)

// BufferPoolStats counts what a pool handed out, for capture accounting.
type BufferPoolStats struct {
	// Spools is the total number of spools handed out (pooled + file).
	Spools int64
	// Reused counts pooled spools satisfied from the free list.
	Reused int64
	// Allocated counts pooled spools that needed a fresh allocation.
	Allocated int64
	// FileSpools counts file-backed fallback spools.
	FileSpools int64
}

// BufferPool admits spools under a memory budget and recycles their buffers.
// Released buffers join a bounded free list; a pooled spool takes the
// smallest free buffer that fits (best fit keeps a run's few distinct layer
// sizes from all mapping onto the one largest buffer).
type BufferPool struct {
	budget *parallel.ByteGate
	mu     sync.Mutex
	free   [][]byte
	stats  BufferPoolStats
}

// maxFreeBuffers bounds the free list; beyond it, released buffers are
// dropped for the allocator to reclaim.
const maxFreeBuffers = 64

// NewBufferPool returns an empty pool whose memory spools hold at most
// budget bytes at once (budget <= 0: unbounded).
func NewBufferPool(budget int64) *BufferPool {
	return &BufferPool{budget: parallel.NewByteGate(budget)}
}

// Stats returns a snapshot of the pool's counters.
func (p *BufferPool) Stats() BufferPoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Peak returns the high-water mark of memory admitted under the budget.
func (p *BufferPool) Peak() int64 { return p.budget.Peak() }

// Spool returns scratch space for a payload of size bytes without ever
// blocking: a memory spool with capacity for size bytes, reusing a free
// buffer when one fits, if the budget admits size right now (a payload
// larger than the whole budget is admitted alone); a temp-file spool
// otherwise. Releasing a memory spool returns its buffer and its budget.
func (p *BufferPool) Spool(size int64) (Spool, error) {
	size = max(size, 0)
	admitted := p.budget.TryAcquire(size)
	p.mu.Lock()
	p.stats.Spools++
	if !admitted {
		p.stats.FileSpools++
		p.mu.Unlock()
		return newFileSpool()
	}
	best := -1
	for i, b := range p.free {
		if int64(cap(b)) >= size && (best < 0 || cap(b) < cap(p.free[best])) {
			best = i
		}
	}
	var buf []byte
	if best >= 0 {
		buf = p.free[best]
		p.free = append(p.free[:best], p.free[best+1:]...)
		p.stats.Reused++
	} else {
		p.stats.Allocated++
	}
	p.mu.Unlock()
	if buf == nil {
		buf = make([]byte, 0, size)
	}
	return &memSpool{data: buf, pool: p, admitted: size}, nil
}

// put returns a released spool's buffer to the free list (or drops it when
// the list is full) and its admitted bytes to the budget.
func (p *BufferPool) put(buf []byte, admitted int64) {
	p.mu.Lock()
	if buf != nil && len(p.free) < maxFreeBuffers {
		p.free = append(p.free, buf[:0])
	}
	p.mu.Unlock()
	p.budget.Release(admitted)
}
