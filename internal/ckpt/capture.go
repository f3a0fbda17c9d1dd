// Lazy layer-wise checkpoint capture.
//
// The snapshot-mode AsyncSaver stalls training for a full deep copy of the
// model and optimizer before any background work begins — O(model size)
// per save no matter how little changed. The capture engine here bounds
// that stall by the *changed-layer set* instead, the lazy asynchronous
// capture idea of DataStates-LLM combined with ByteCheckpoint's
// decomposition of save into pipelined stages:
//
//   - Save enumerates the checkpoint (buildSavePlan — metadata only) and
//     enqueues one capture unit per layer on a worker pipeline, returning
//     immediately.
//   - Capture workers drain each layer out of the live state: a dedup save
//     streams the layer through SHA-256 first and consults the blob store —
//     a digest hit short-circuits to a manifest reference with zero payload
//     bytes moved — and only content misses are copied into a spool (a
//     pooled buffer under a ByteGate budget, or an unmetered temp file when
//     the budget is exhausted, so a worker never blocks holding a layer).
//     When the optimizer's per-layer mutation counters (SaveSpec.LayerGens)
//     prove a layer untouched since the previous capture, even the hash is
//     skipped and the cached digests are reused.
//   - The ordered save pipeline hands each ticket's payload set to the
//     write stage (write.go) once every unit lands — the same stage the
//     synchronous Save runs, so the output is byte-identical and crash
//     exploration carries over.
//
// The trainer calls WaitCaptured before the next optimizer step; from that
// point the live tensors are free to mutate while manifests and blobs are
// still being written in the background.

package ckpt

import (
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"strconv"
	"sync"

	"llmtailor/internal/modelcfg"
	"llmtailor/internal/parallel"
	"llmtailor/internal/storage"
	"llmtailor/internal/zero"
)

// CaptureOptions tunes the lazy capture scheduler.
type CaptureOptions struct {
	// Workers is the number of concurrent capture workers (hash + spool).
	// Defaults to 4.
	Workers int
	// SpoolBytes bounds the pooled spool memory held by in-flight captures.
	// Payloads that do not fit fall back to unmetered temp files rather
	// than blocking a worker. Defaults to 256 MiB.
	SpoolBytes int64
}

func (o CaptureOptions) withDefaults() CaptureOptions {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.SpoolBytes <= 0 {
		o.SpoolBytes = 256 << 20
	}
	return o
}

// CaptureStats is a snapshot of the engine's accounting. The stall-bound
// claim is measured in bytes: BytesHashed + BytesSpooled is the data the
// engine actually touched for a save, while BytesReferenced (digest hits)
// and gen-reused layers cost nothing — so on a workload where one of L
// layers changes per step, the touched bytes shrink by ~L× versus a
// snapshot of everything.
type CaptureStats struct {
	// Saves is the number of scheduled captures.
	Saves int64
	// LayersReused counts layer units short-circuited by the mutation-
	// counter proof (no hash, no copy).
	LayersReused int64
	// PayloadsSpooled / PayloadsReferenced count payloads copied into
	// spools vs deduplicated to existing blobs.
	PayloadsSpooled    int64
	PayloadsReferenced int64
	// BytesHashed is the payload bytes streamed through SHA-256.
	BytesHashed int64
	// BytesSpooled is the payload bytes copied out of live state.
	BytesSpooled int64
	// BytesReferenced is the payload bytes resolved to existing blobs
	// without moving.
	BytesReferenced int64
	// StallNs is the cumulative wall time the training loop was blocked in
	// Save and WaitCaptured.
	StallNs int64
	// SpoolPeakBytes is the pooled-spool memory high-water mark.
	SpoolPeakBytes int64
	// Pool reports buffer reuse.
	Pool storage.BufferPoolStats
}

// captureTicket tracks one save through capture: the plan, the payload set
// whose slots the units fill, and a latch that closes when every unit has
// landed (or failed). The write stage waits on the latch; WaitCaptured waits
// on every outstanding ticket's latch. A slot whose payload lands with a
// nil write resolved to an existing blob (dedup hit or gen-proof reuse).
type captureTicket struct {
	spec SaveSpec
	plan *savePlan
	// set.weights is parallel to plan.weights; set.ranks[rank].groups is
	// parallel to plan.metas.
	set *payloadSet

	// store is the dedup save's store handle, opened by the first capture
	// unit that needs it and shared with the write stage.
	storeOnce sync.Once
	store     *saveStore
	storeErr  error

	mu        sync.Mutex
	remaining int
	err       error
	done      chan struct{}
}

// openStore resolves the ticket's store once for all its units.
func (t *captureTicket) openStore(b storage.Backend) (*saveStore, error) {
	t.storeOnce.Do(func() { t.store, t.storeErr = openSaveStore(b, t.spec.Dir) })
	return t.store, t.storeErr
}

// fail records the ticket's first error.
func (t *captureTicket) fail(err error) {
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.mu.Unlock()
}

func (t *captureTicket) failure() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// unitDone counts down the latch.
func (t *captureTicket) unitDone() {
	t.mu.Lock()
	t.remaining--
	last := t.remaining == 0
	t.mu.Unlock()
	if last {
		close(t.done)
	}
}

// captureUnit is one layer's slice of a ticket: the weight tensors and
// optimizer groups the layer owns. Auxiliary groups without a layer (the
// two-group layout) ride in their own units.
type captureUnit struct {
	t        *captureTicket
	layer    modelcfg.LayerRef
	hasLayer bool
	// weightIdx / groupIdx index into the plan's weights / metas.
	weightIdx []int
	groupIdx  []int
}

// layerCacheEntry remembers one layer's payload identities (digest, CRC,
// size; keyed by codec-plan slot) as of a mutation-counter generation: if
// the counter has not moved, the layer's bytes are provably identical and
// the digests can be reused without hashing.
type layerCacheEntry struct {
	gen int64
	ids map[string]payload
}

// slots visits the unit's payload slots in plan order — its weights, then
// each of its groups rank by rank — until fn returns false.
func (u *captureUnit) slots(fn func(p *payload, key string) bool) bool {
	set := u.t.set
	for _, i := range u.weightIdx {
		if w := &set.weights[i]; !fn(&w.payload, weightSlot(w.name)) {
			return false
		}
	}
	for _, gi := range u.groupIdx {
		for r := range set.ranks {
			if g := &set.ranks[r].groups[gi]; !fn(&g.payload, groupSlotKey(r, g.meta.Index)) {
				return false
			}
		}
	}
	return true
}

// captureEngine owns the capture pipeline, the spool pool and budget gate,
// the per-layer generation cache, and the outstanding-ticket set.
type captureEngine struct {
	base storage.Backend
	pool *storage.BufferPool
	gate *parallel.ByteGate
	pipe *parallel.Pipeline[*captureUnit, struct{}]

	mu      sync.Mutex
	cache   map[string]*layerCacheEntry
	pending []*captureTicket
	stats   CaptureStats
}

func newCaptureEngine(b storage.Backend, opts CaptureOptions) *captureEngine {
	opts = opts.withDefaults()
	e := &captureEngine{
		base:  b,
		pool:  storage.NewBufferPool(),
		gate:  parallel.NewByteGate(opts.SpoolBytes),
		cache: map[string]*layerCacheEntry{},
	}
	// Units fan in unordered (each lands in its ticket slot), so the
	// pipeline's ordered sink is a no-op; errors travel through tickets.
	e.pipe = parallel.NewPipeline(opts.Workers, opts.Workers*4,
		func(u *captureUnit) (struct{}, error) {
			e.runUnit(u)
			return struct{}{}, nil
		},
		func(struct{}) error { return nil })
	return e
}

func (e *captureEngine) addStall(ns int64) {
	e.mu.Lock()
	e.stats.StallNs += ns
	e.mu.Unlock()
}

func (e *captureEngine) snapshot() CaptureStats {
	e.mu.Lock()
	s := e.stats
	e.mu.Unlock()
	s.SpoolPeakBytes = e.gate.Peak()
	s.Pool = e.pool.Stats()
	return s
}

// cacheKey scopes gen-proof reuse to one blob store, world size and layer:
// a different run root or resharding must never hit another run's entries.
func cacheKey(spec *SaveSpec, layer modelcfg.LayerRef) string {
	return ObjectsRoot(spec.Dir) + "|" + strconv.Itoa(spec.WorldSize) + "|" + layer.String()
}

// schedule validates a spec, carves it into per-layer units and enqueues
// them. It reads no payload bytes — the foreground cost of a lazy save.
func (e *captureEngine) schedule(spec SaveSpec) (*captureTicket, error) {
	plan, err := buildSavePlan(&spec)
	if err != nil {
		return nil, err
	}
	t := &captureTicket{spec: spec, plan: plan, set: plan.newPayloadSet(), done: make(chan struct{})}
	units := unitsFor(t)
	t.remaining = len(units)
	if len(units) == 0 {
		close(t.done)
	}
	e.mu.Lock()
	e.pending = append(e.pending, t)
	e.stats.Saves++
	e.mu.Unlock()
	for i, u := range units {
		if err := e.pipe.Push(u); err != nil {
			t.fail(fmt.Errorf("ckpt: capture scheduler closed"))
			for j := i; j < len(units); j++ {
				t.unitDone()
			}
			break
		}
	}
	return t, nil
}

// unitsFor groups a plan's payloads by owning layer, preserving plan order
// within each unit so capture output matches the synchronous payload order.
func unitsFor(t *captureTicket) []*captureUnit {
	plan := t.plan
	var units []*captureUnit
	byLayer := map[modelcfg.LayerRef]*captureUnit{}
	unitOf := func(ref modelcfg.LayerRef) *captureUnit {
		u, ok := byLayer[ref]
		if !ok {
			u = &captureUnit{t: t, layer: ref, hasLayer: true}
			byLayer[ref] = u
			units = append(units, u)
		}
		return u
	}
	for i, ref := range plan.weightLayers {
		u := unitOf(ref)
		u.weightIdx = append(u.weightIdx, i)
	}
	for i := range plan.metas {
		if plan.hasLayer[i] {
			u := unitOf(plan.groupLayers[i])
			u.groupIdx = append(u.groupIdx, i)
		} else {
			units = append(units, &captureUnit{t: t, groupIdx: []int{i}})
		}
	}
	return units
}

// runUnit is the pipeline work function: capture one unit, routing any
// failure into the ticket instead of the pipeline's abort channel (every
// unit must land so the latch closes).
func (e *captureEngine) runUnit(u *captureUnit) {
	defer u.t.unitDone()
	if u.t.failure() != nil {
		return
	}
	if err := e.captureUnit(u); err != nil {
		u.t.fail(err)
	}
}

// captureUnit drains one layer out of the live state. On return, every
// slot of the unit is either filled or being cleaned up by the ticket's
// eventual release.
func (e *captureEngine) captureUnit(u *captureUnit) error {
	t := u.t
	plan := t.plan
	dedup := t.spec.Dedup
	var store *storage.BlobStore
	if dedup {
		ss, err := t.openStore(e.base)
		if err != nil {
			return err
		}
		store = ss.BlobStore
	}

	// Mutation-counter short-circuit: if the layer's counter matches the
	// cached capture and every cached blob still exists, reuse the digests
	// without touching a payload byte.
	var gen int64
	var haveGen bool
	if dedup && u.hasLayer && t.spec.LayerGens != nil {
		gen, haveGen = t.spec.LayerGens[u.layer]
		if haveGen && e.tryReuse(u, gen, store) {
			e.mu.Lock()
			e.stats.LayersReused++
			e.mu.Unlock()
			return nil
		}
	}

	buf := make([]byte, storage.ChunkOrDefault(0))
	for _, i := range u.weightIdx {
		tns := plan.weights[i]
		err := e.capturePayload(dedup, store, &t.set.weights[i].payload, func(w io.Writer) (int64, error) {
			return tns.EncodeTo(w, buf)
		})
		if err != nil {
			return fmt.Errorf("ckpt: capture tensor %q: %w", tns.Name, err)
		}
	}
	for _, gi := range u.groupIdx {
		m := plan.metas[gi]
		shards, err := zero.ShardGroup(m.Index, plan.states[gi], plan.worldSize)
		if err != nil {
			return fmt.Errorf("ckpt: capture group %d: %w", m.Index, err)
		}
		for r, s := range shards {
			err := e.capturePayload(dedup, store, &t.set.ranks[r].groups[gi].payload, func(w io.Writer) (int64, error) {
				return encodeGroupPayload(w, buf, s)
			})
			if err != nil {
				return fmt.Errorf("ckpt: capture rank %d group %d: %w", r, m.Index, err)
			}
		}
	}

	if haveGen {
		e.updateCache(u, gen)
	}
	return nil
}

// tryReuse fills the unit's slots from the layer's cached capture when the
// generation matches and every cached blob is still present. A missing
// blob (retention swept it) falls back to the hash path, which re-creates
// the content from live state.
func (e *captureEngine) tryReuse(u *captureUnit, gen int64, store *storage.BlobStore) bool {
	e.mu.Lock()
	entry := e.cache[cacheKey(&u.t.spec, u.layer)]
	e.mu.Unlock()
	if entry == nil || entry.gen != gen {
		return false
	}
	var hits []payload
	if !u.slots(func(p *payload, key string) bool {
		id, ok := entry.ids[key]
		if !ok || id.size != p.size || !store.Has(id.digest) {
			return false
		}
		hits = append(hits, id)
		return true
	}) {
		return false
	}
	// Commit the reuse only once every slot checked out.
	e.mu.Lock()
	e.stats.PayloadsReferenced += int64(len(hits))
	for _, id := range hits {
		e.stats.BytesReferenced += id.size
	}
	e.mu.Unlock()
	u.slots(func(p *payload, _ string) bool {
		*p, hits = hits[0], hits[1:]
		return true
	})
	return true
}

// updateCache records the unit's landed identities under the layer's
// generation. Out-of-order lands from back-to-back saves only ever move
// the entry forward (generations are monotonic).
func (e *captureEngine) updateCache(u *captureUnit, gen int64) {
	entry := &layerCacheEntry{gen: gen, ids: map[string]payload{}}
	u.slots(func(p *payload, key string) bool {
		entry.ids[key] = payload{size: p.size, digest: p.digest, crc: p.crc, hasCRC: true}
		return true
	})
	key := cacheKey(&u.t.spec, u.layer)
	e.mu.Lock()
	if old := e.cache[key]; old == nil || old.gen <= gen {
		e.cache[key] = entry
	}
	e.mu.Unlock()
}

// capturePayload lands one payload in its slot (whose size the plan preset).
// Dedup saves hash first (no storage I/O), short-circuit on an existing blob,
// and spool only content misses — paying a second encode pass for the bytes
// that actually move. Plain saves spool everything in a single pass with the
// CRC computed inline.
func (e *captureEngine) capturePayload(dedup bool, store *storage.BlobStore, p *payload,
	encode func(io.Writer) (int64, error)) error {

	p.hasCRC = true
	if dedup {
		var err error
		if p.digest, p.crc, err = hashStream(p.size, encode); err != nil {
			return err
		}
		hit := store.Has(p.digest)
		e.mu.Lock()
		e.stats.BytesHashed += p.size
		if hit {
			e.stats.PayloadsReferenced++
			e.stats.BytesReferenced += p.size
		}
		e.mu.Unlock()
		if hit {
			return nil
		}
	}
	sp, gated, err := e.newSpool(p.size)
	if err != nil {
		return err
	}
	p.write = replay(sp.Open)
	p.release = func() {
		sp.Release()
		e.gate.Release(gated)
	}
	var sink io.Writer = sp
	var crc hash.Hash32
	if !dedup {
		crc = crc32.NewIEEE()
		sink = io.MultiWriter(sp, crc)
	}
	n, err := encode(sink)
	if err == nil && n != p.size {
		err = fmt.Errorf("ckpt: payload encoded %d bytes, expected %d", n, p.size)
	}
	if err != nil {
		return err // the ticket's release frees the spool
	}
	if crc != nil {
		p.crc = crc.Sum32()
	}
	e.mu.Lock()
	e.stats.PayloadsSpooled++
	e.stats.BytesSpooled += p.size
	e.mu.Unlock()
	return nil
}

// newSpool admits a payload under the memory budget without ever blocking:
// a full gate routes the payload to an unmetered temp file instead (a
// blocked capture worker would hold up the very layer release the trainer
// is waiting on).
func (e *captureEngine) newSpool(size int64) (storage.CaptureSpool, int64, error) {
	if e.gate.TryAcquire(size) {
		return e.pool.PooledSpool(size), size, nil
	}
	sp, err := e.pool.FileSpool()
	if err != nil {
		return nil, 0, err
	}
	return sp, 0, nil
}

// abandon waits out a ticket whose save was never enqueued and frees it.
func (e *captureEngine) abandon(t *captureTicket) {
	<-t.done
	t.set.releaseAll()
}

// waitCaptured blocks until every outstanding ticket's live-state reads
// are finished — the point after which the caller may mutate the model and
// optimizer again. It returns the first capture failure (the write stage
// reports it too; the caller gets to abort early).
func (e *captureEngine) waitCaptured() error {
	e.mu.Lock()
	tickets := e.pending
	e.pending = nil
	e.mu.Unlock()
	var first error
	for _, t := range tickets {
		<-t.done
		if err := t.failure(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// close drains the capture pipeline. Scheduled units finish; later
// schedules fail their tickets.
func (e *captureEngine) close() error { return e.pipe.Close() }

// write commits one captured save — the ordered (depth-1) stage of the
// saver: wait for the ticket's units to land, then run the write stage over
// its payload set.
func (e *captureEngine) write(t *captureTicket) error {
	<-t.done
	// Safe after the write stage released some payloads inline (release is
	// idempotent per slot).
	defer t.set.releaseAll()
	if err := t.failure(); err != nil {
		return err
	}
	return commitSave(e.base, &t.spec, t.plan, t.set, t.store)
}
