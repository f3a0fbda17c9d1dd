// The checkpoint write stage (DESIGN.md "The write stage").
//
// Every checkpoint writer — the synchronous Save, the lazy AsyncSaver, and
// merge, blend and reshard through Output — describes what it writes as an
// ordered payloadSet and hands it to the one stage in this file; writers
// differ only in where the bytes come from. The protocol that makes them
// durable exists once:
//
//	plain:  Begin → LTSF/LTOS containers → trailer → Commit
//	dedup:  Begin → journal the digest set → publish missing blobs →
//	        LTMF/LTOM manifests → trailer → Commit
//
// An Output's payloads come by reference — a source checkpoint's payload,
// replayed through its check, with the digest, codec and lineage a
// content-addressed source recorded — or computed by the feeder (a converted
// or blended tensor, a repartitioned group). The dedup row hashes only what
// has no digest, so a referenced blob already in the output's store moves no
// bytes. Nothing converts a published directory.
//
// The dedup order is load-bearing: the full digest set, xor-parent ancestors
// included, is journaled before the first blob is published, so a sweep
// always finds a record pinning a blob (and its decode ancestry) before the
// blob exists, and blobs are published before the commit seals the manifests
// that reference them.

package ckpt

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"

	"llmtailor/internal/optim"
	"llmtailor/internal/parallel"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
	"llmtailor/internal/zero"
)

// payload describes one checkpoint payload — a weight tensor, or one rank's
// shard of an optimizer group — to the write stage.
type payload struct {
	size int64
	// digest is the content digest (dedup only; plain saves never hash).
	digest string
	// crc is the payload's CRC32 when hasCRC is set; otherwise the plain
	// container writers compute it inline as the bytes stream through.
	crc    uint32
	hasCRC bool
	// write replays the payload's exact bytes. nil means the blob is already
	// in the store and nothing needs to move (dedup only).
	write func(io.Writer) (int64, error)
	// release, when set, frees whatever backs write once the bytes have
	// been consumed.
	release func()
	// open ranges over the stored, uncompressed bytes (read stage only).
	open func(off, n int64) (io.ReadCloser, error)
	// store is the blob store a content-addressed source's payload is in
	// (read stage only): an output publishing into the same store takes the
	// blob's recorded codec, size and lineage as the store's answer.
	store *storage.BlobStore
	// cost is what producing a weight payload holds in flight in an
	// output's read-ahead (0: its size).
	cost int64

	// opts and planned are the codec plan's put request; written, codec,
	// stored and parents record how the blob actually landed. publishBlobs
	// fills all of them, the manifest entries copy the latter three.
	opts    storage.BlobPutOptions
	planned []string
	written bool
	codec   string
	stored  int64
	parents []string
}

// consumed releases the payload's backing bytes, once.
func (p *payload) consumed() {
	if p.release != nil {
		p.release()
		p.release = nil
	}
}

// weightPayload is a tensor payload with its container header fields.
type weightPayload struct {
	payload
	name, dtype string
	shape       []int
}

// groupPayload is one rank's shard of an optimizer group. meta carries the
// group's identity (Index, Numel, NoDecay, Layer); a writer derives ShardLen,
// CRC and offsets from the payload, the read stage fills them in as recorded.
type groupPayload struct {
	payload
	meta ShardGroupMeta
}

// rankPayloads is one rank's shard file: header scalars plus group payloads
// in file order.
type rankPayloads struct {
	rank, worldSize, step int
	layout                optim.LayoutKind
	groups                []groupPayload
	// Read stage only. name is the shard file or manifest the rank is listed
	// in, fileBytes what a whole load moves off the backend. stream, when set,
	// is the backend of a plain shard file not listed yet (streamedRank); err
	// a listing failure, which the load driver reports in the rank's place.
	name      string
	fileBytes int64
	stream    storage.Backend
	err       error
}

// payloadSet lists a checkpoint's payloads in write order — weights, then
// rank-major groups — the order of the journal, the blob puts, the manifest
// entries and the container payload sections alike.
type payloadSet struct {
	// label is the container or manifest the weights are listed in, for
	// errors (read stage only).
	label   string
	model   string
	weights []weightPayload
	ranks   []rankPayloads
}

// each visits every payload in write order with its slot key (which doubles
// as its label in errors) and codec plane width.
func (s *payloadSet) each(fn func(p *payload, slot string, width int) error) error {
	for i := range s.weights {
		w := &s.weights[i]
		dt, err := tensor.ParseDType(w.dtype)
		if err == nil {
			err = fn(&w.payload, weightSlot(w.name), dt.Size())
		}
		if err != nil {
			return err
		}
	}
	for i := range s.ranks {
		rs := &s.ranks[i]
		for j := range rs.groups {
			g := &rs.groups[j]
			// Group payloads are FP32 triples, so the plane width is 4.
			if err := fn(&g.payload, groupSlotKey(rs.rank, g.meta.Index), 4); err != nil {
				return err
			}
		}
	}
	return nil
}

// releaseAll frees every payload still holding resources (the stage
// releases each one as it is consumed; this covers early exits).
func (s *payloadSet) releaseAll() {
	for i := range s.weights {
		s.weights[i].consumed()
	}
	for i := range s.ranks {
		for j := range s.ranks[i].groups {
			s.ranks[i].groups[j].consumed()
		}
	}
}

// hashAll gives every payload without a digest its content digest and CRC
// by streaming write through the hashes — no storage I/O beyond what write
// reads — so the full digest set is known before anything is published. A
// CRC the feeder already holds (a container header's) is verified against
// the bytes instead of replaced. A save (zero workers) hashes
// runtime.GOMAXPROCS payloads side by side straight off the live state, each
// worker holding one pooled chunk, and encodes again to put. An output hashes
// ra.workers payloads side by side and spools each one as it is hashed, so
// the put replays the spool: every computed payload is computed once and
// every referenced one read once. Spools are pooled memory up to
// hashSpoolBytes, temp files past it.
func (s *payloadSet) hashAll(ra readAhead) error {
	type job struct {
		p    *payload
		slot string
	}
	var jobs []job
	s.each(func(p *payload, slot string, _ int) error {
		if p.digest == "" {
			jobs = append(jobs, job{p, slot})
		}
		return nil
	})
	workers := runtime.GOMAXPROCS(0)
	var pool *storage.BufferPool
	if ra.workers > 0 {
		workers, pool = ra.workers, storage.NewBufferPool(hashSpoolBytes)
	}
	var failed atomic.Bool
	return parallel.ForEachFirst(workers, len(jobs), func(i int) error {
		if failed.Load() {
			return nil
		}
		err := jobs[i].p.hash(jobs[i].slot, pool)
		if err != nil {
			failed.Store(true)
		}
		return err
	})
}

// hash gives p its digest and CRC. With a pool (an output's hash pass; nil
// for a save), it spools the bytes as they are hashed and replays the spool
// from then on.
func (p *payload) hash(slot string, pool *storage.BufferPool) error {
	write := p.write
	var sp storage.Spool
	if pool != nil {
		var err error
		if sp, err = pool.Spool(p.size); err != nil {
			return fmt.Errorf("ckpt: hash %s: %w", slot, err)
		}
		write = func(w io.Writer) (int64, error) { return p.write(io.MultiWriter(w, sp)) }
	}
	digest, crc, err := hashStream(p.size, write)
	switch {
	case err != nil:
		err = fmt.Errorf("ckpt: hash %s: %w", slot, err)
	case p.hasCRC && crc != p.crc:
		err = p.crcMismatch("", slot, crc)
	}
	if err != nil {
		if sp != nil {
			sp.Release()
		}
		return err
	}
	if sp != nil {
		p.consumed()
		p.write, p.release = replay(sp.Open), func() { sp.Release() }
	}
	p.digest, p.crc, p.hasCRC = digest, crc, true
	return nil
}

// replay adapts a reopenable byte source (a spool, a committed
// payload's extent) to a payload's write function.
func replay(open func() (io.ReadCloser, error)) func(io.Writer) (int64, error) {
	return withChunkBuf(func(w io.Writer, buf []byte) (int64, error) {
		rc, err := open()
		if err != nil {
			return 0, err
		}
		n, err := io.CopyBuffer(w, rc, buf)
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
		return n, err
	})
}

// saveStore is the store side of one dedup save: the content-addressed store
// and the run's ref journal, resolved from the hub redirect and the shard map
// once. Per save, not per saver: attach and detach may legitimately move the
// redirect between saves.
type saveStore struct {
	*storage.BlobStore
	refs *storage.RefIndex
}

func openSaveStore(b storage.Backend, finalDir string) (*saveStore, error) {
	scope, err := openRunScope(b, runRootOf(finalDir))
	if err != nil {
		return nil, err
	}
	cas, err := scope.store()
	if err != nil {
		return nil, err
	}
	return &saveStore{BlobStore: cas, refs: scope.self.ix}, nil
}

// A save keeps storage.RequestWidth requests in flight — the publish loop's
// probes and puts, the parent-manifest reads — and admits payloads that may
// move bytes to the loop under publishBytes. The read stage's load driver runs
// at the same width, its payloads admitted under loadBytes.
const (
	publishBytes = 256 << 20
	loadBytes    = 256 << 20
	// hashSpoolBytes bounds the pooled memory an output's hash pass spools
	// into; payloads past it spool to temp files.
	hashSpoolBytes = 256 << 20
)

// publishBlobs journals the set's reference record, then publishes every blob
// the store lacks — the only place a checkpoint's ref record is appended and
// its payload blobs are put. Each payload must carry its digest. view is the
// save's parent lineage (nil when the writer has none): what it answers is
// not asked of the store again. The returned generation is what the
// checkpoint's manifest.json records as ref_gen, binding the published
// directory to its journal record.
func (s *payloadSet) publishBlobs(store *saveStore, view *lineage, finalDir string, step int, cplan *codecPlan) (int64, error) {
	var digests []string
	payloads := 0
	s.each(func(p *payload, slot string, width int) error {
		payloads++
		digests = append(digests, p.digest)
		if cplan != nil {
			// The record must pin a planned parent before a delta
			// depending on it can exist.
			p.opts, p.planned = cplan.optsFor(slot, p.digest, width)
			digests = append(digests, p.planned...)
		}
		// A blob that already exists may carry an xor lineage this writer
		// did not plan (stored by an earlier save from another parent, or by
		// a codec-enabled save when this one runs raw); the record must pin
		// those actual ancestors too, or retiring the blob's original
		// record could orphan them under our feet. The parent's manifests
		// name them; container headers are read only for a blob they do not.
		if ref, ok := view.blob(p.digest); ok {
			digests = append(digests, ref.Parents...)
		} else if chain, err := blobChain(store.BlobStore, p.digest); err == nil {
			digests = append(digests, chain...)
		}
		return nil
	})
	gen, err := appendRefRecord(store.refs, finalDir, step, digests)
	if err != nil {
		return 0, err
	}
	// Results land in their payload slots, so the manifests keep payload
	// order whatever order the puts finish in, and the pipeline's in-order
	// window is sized to the whole set: a slow put never holds back the
	// dispatch of the probes and puts queued behind it. The gate is what
	// bounds the bytes in flight; it is acquired here and released by the
	// pipeline as each put leaves it, so it only ever waits on publish
	// completions, never on a feeder's own budget.
	gate := parallel.NewByteGate(publishBytes)
	type job struct {
		p    *payload
		slot string
	}
	pipe := parallel.NewPipeline(storage.RequestWidth, payloads, func(j job) (struct{}, error) {
		if err := j.p.land(store.BlobStore, view); err != nil {
			return struct{}{}, fmt.Errorf("ckpt: blob %s (%s): %w", j.p.digest, j.slot, err)
		}
		return struct{}{}, nil
	}, nil)
	// A digest is landed once: payloads repeating one (identical tensors,
	// all-zero shards) take the first one's outcome as the dedup hits they
	// are, instead of racing it to publish the same blob.
	first := map[string]*payload{}
	var repeats []*payload
	err = s.each(func(p *payload, slot string, _ int) error {
		if _, dup := first[p.digest]; dup {
			repeats = append(repeats, p)
			return nil
		}
		first[p.digest] = p
		var cost int64
		if _, known := view.blob(p.digest); p.write != nil && !known {
			cost = p.size
		}
		gate.Acquire(cost)
		if err := pipe.PushWithCleanup(job{p, slot}, func() { gate.Release(cost) }); err != nil {
			gate.Release(cost)
			return err
		}
		return nil
	})
	if cerr := pipe.Close(); cerr != nil {
		err = cerr // the first failure; a refused push only echoes it
	}
	if err != nil {
		return 0, err
	}
	for _, p := range repeats {
		f := first[p.digest]
		p.consumed()
		p.codec, p.stored, p.parents = f.codec, f.stored, f.parents
	}
	return gen, nil
}

// land moves one payload's bytes into the store — or, with nothing to move,
// finds the blob already there — and records how the blob is stored: a dedup
// hit may resolve to a container another save stored. It runs after the
// journal append, and its first request is the reuse check the sweep proof
// rests on (storage.BlobStore.Sweep).
func (p *payload) land(store *storage.BlobStore, view *lineage) error {
	if ref, ok := view.blob(p.digest); ok {
		// The parent's manifest already says how this blob is stored; one
		// Stat proves it is still there, and still in that form.
		size, err := store.Stat(p.digest)
		switch {
		case err == nil && size == ref.storedSize():
			p.consumed()
			p.codec, p.stored, p.parents = ref.Codec, ref.Stored, ref.Parents
			return nil
		case err != nil && p.write == nil:
			return fmt.Errorf("reused blob missing from store: %w", err)
		}
		// Gone with the bytes in hand: re-publish. There at another size: it
		// was collected and re-stored in another form since the parent was
		// written, so the store describes it.
	}
	var res storage.PutResult
	var err error
	if p.write == nil {
		// The blob must still exist (the record just appended pins it
		// against any sweep's recheck). If it is gone anyway, fail honestly
		// — the bytes are no longer available to re-create it.
		meta, err := store.Meta(p.digest)
		if err != nil {
			return fmt.Errorf("reused blob missing from store: %w", err)
		}
		res = storage.PutResult{
			Codec: meta.Codec, Parent: meta.Parent,
			RawBytes: meta.RawSize, StoredBytes: meta.StoredSize,
		}
	} else {
		// Zero-valued opts (no codec plan) is a plain raw put.
		if res, err = store.PutStreamOpts(p.digest, p.opts, p.write); err != nil {
			return err
		}
		p.consumed()
	}
	p.written = res.Written
	p.codec, p.stored, p.parents, err = codecEntryMeta(store, res, p.planned)
	return err
}

// stageManifests writes the LTMF and per-rank LTOM manifests referencing the
// set's published blobs, entries in payload order, under dir.
func (s *payloadSet) stageManifests(sb storage.Backend, dir string) error {
	wm := &WeightManifest{Version: FormatVersion, Model: s.model}
	for _, w := range s.weights {
		wm.Tensors = append(wm.Tensors, WeightEntry{
			Name: w.name, DType: w.dtype, Shape: w.shape,
			Size: w.size, CRC32: w.crc, Digest: w.digest,
			Codec: w.codec, Stored: w.stored, Parents: w.parents,
		})
	}
	if err := WriteWeightManifest(sb, dir+"/"+WeightManifestName, wm); err != nil {
		return err
	}
	for i, rs := range s.ranks {
		sm := &ShardManifest{
			Version: FormatVersion, Rank: rs.rank, WorldSize: rs.worldSize,
			Step: rs.step, Layout: rs.layout.String(),
		}
		for _, g := range rs.groups {
			sm.Groups = append(sm.Groups, ShardGroupEntry{
				Index: g.meta.Index, Numel: g.meta.Numel, ShardLen: g.size / 12,
				NoDecay: g.meta.NoDecay, Layer: g.meta.Layer,
				Size: g.size, CRC32: g.crc, Digest: g.digest,
				Codec: g.codec, Stored: g.stored, Parents: g.parents,
			})
		}
		if err := WriteShardManifest(sb, dir+"/"+ShardManifestName(i), sm); err != nil {
			return err
		}
	}
	return nil
}

// stageContainers writes the set as plain LTSF/LTOS containers into a
// staging directory, returning the read-ahead's peak bytes in flight and the
// container bytes written.
func (s *payloadSet) stageContainers(sb storage.Backend, dir string, ra readAhead) (peak, written int64, err error) {
	lw, err := newLTSFWriter(sb, dir+"/model.ltsf", s.model, ra.chunk)
	if err != nil {
		return 0, 0, err
	}
	defer lw.Abort()
	rws := make([]*shardFileWriter, len(s.ranks))
	for i := range s.ranks {
		rs := &s.ranks[i]
		w, err := newShardFileWriter(sb, dir+"/"+ShardFileName(i), rs.rank, rs.worldSize, rs.step, rs.layout, ra.chunk)
		if err != nil {
			return 0, 0, err
		}
		defer w.Abort()
		rws[i] = w
	}
	return s.writeContainers(lw, rws, ra)
}

// readAhead is how an output's containers are filled: workers weight
// payloads are produced side by side — each replayed or computed into a
// pooled buffer — and appended in order, admitted under a gate of inFlight
// bytes (0: unbounded), and workers ranks' shard files are written side by
// side, each streaming its groups in order. Zero workers is a save's: every
// payload streams from its encoder straight into its container, one
// container at a time.
type readAhead struct {
	workers  int
	inFlight int64
	chunk    int
}

// writeContainers fills the given containers — lw takes the weights (nil:
// the set has none), rws[i] the groups of s.ranks[i] — each in set order,
// and closes them.
func (s *payloadSet) writeContainers(lw *ltsfWriter, rws []*shardFileWriter, ra readAhead) (peak, written int64, err error) {
	// Every payload's size is known upfront: in-memory spools allocate once
	// instead of growing payload by payload.
	if lw != nil {
		var total int64
		for i := range s.weights {
			total += s.weights[i].size
		}
		lw.reserve(total)
		if peak, err = ra.weights(lw, s.weights); err == nil {
			err = lw.Close()
		}
		if err != nil {
			return 0, 0, err
		}
		written = lw.BytesWritten()
	}
	var failed atomic.Bool
	err = parallel.ForEachFirst(max(1, ra.workers), len(rws), func(i int) error {
		if failed.Load() {
			return nil
		}
		rs, w := &s.ranks[i], rws[i]
		err := func() error {
			var total int64
			for j := range rs.groups {
				total += rs.groups[j].size
			}
			w.reserve(total)
			for j := range rs.groups {
				g := &rs.groups[j]
				m := g.meta
				m.ShardLen, m.CRC32 = g.size/12, g.crc
				if err := w.appendPayload(m, g.size, g.hasCRC, g.write); err != nil {
					return err
				}
				g.consumed()
			}
			// A feeder may learn a rank's step from the payloads it produced.
			w.hdr.Step = rs.step
			return w.Close()
		}()
		if err != nil {
			failed.Store(true)
		}
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	for _, w := range rws {
		written += w.BytesWritten()
	}
	return peak, written, nil
}

// weights appends the weight payloads to lw in order through the one
// ordered fan-out of the write stage, returning its peak bytes in flight.
func (ra readAhead) weights(lw *ltsfWriter, list []weightPayload) (int64, error) {
	put := func(wp *weightPayload, write func(io.Writer) (int64, error)) error {
		rt := RawTensor{Name: wp.name, DType: wp.dtype, Shape: wp.shape, Size: wp.size, CRC32: wp.crc}
		if err := lw.appendPayload(rt, wp.hasCRC, write); err != nil {
			return err
		}
		wp.consumed()
		return nil
	}
	if ra.workers < 1 {
		for i := range list {
			if err := put(&list[i], list[i].write); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
	type filled struct {
		wp  *weightPayload
		buf *[]byte
	}
	gate := parallel.NewByteGate(ra.inFlight)
	pipe := parallel.NewPipeline(ra.workers, ra.workers, func(wp *weightPayload) (filled, error) {
		bp := loadBufs.Get().(*[]byte)
		if int64(cap(*bp)) < wp.size {
			*bp = make([]byte, 0, wp.size)
		}
		bb := bytes.NewBuffer((*bp)[:0])
		_, err := wp.write(bb)
		*bp = bb.Bytes()
		return filled{wp, bp}, err
	}, func(f filled) error {
		defer loadBufs.Put(f.buf)
		return put(f.wp, func(w io.Writer) (int64, error) {
			n, err := w.Write(*f.buf)
			return int64(n), err
		})
	})
	for i := range list {
		wp := &list[i]
		cost := wp.cost
		if cost == 0 {
			cost = wp.size
		}
		gate.Acquire(cost)
		if err := pipe.PushWithCleanup(wp, func() { gate.Release(cost) }); err != nil {
			gate.Release(cost)
			break
		}
	}
	err := pipe.Close()
	return gate.Peak(), err
}

// knownBlobs is what the set's content-addressed sources recorded about the
// blobs they hold in store: the lineage an output publishing there reuses, so
// a referenced blob costs one Stat, not a header read and a put.
func (s *payloadSet) knownBlobs(store *storage.BlobStore) *lineage {
	v := &lineage{blobs: map[string]blobRef{}}
	s.each(func(p *payload, _ string, _ int) error {
		if p.store != nil && p.store.Root() == store.Root() {
			v.blobs[p.digest] = blobRef{Digest: p.digest, Codec: p.codec, Size: p.size, Stored: p.stored, Parents: p.parents}
		}
		return nil
	})
	return v
}

// Trailer is the small files a checkpoint ends with — config.json and
// trainer_state.json as given, manifest.json — and the step its commit
// marker records. The write stage sets the manifest's Dedup and RefGen.
type Trailer struct {
	Config, State []byte
	Manifest      Manifest
	Step          int
}

func (tr *Trailer) stage(sb storage.Backend, dir string) error {
	if err := sb.WriteFile(dir+"/config.json", tr.Config); err != nil {
		return err
	}
	if err := sb.WriteFile(dir+"/trainer_state.json", tr.State); err != nil {
		return err
	}
	return writeJSON(sb, dir+"/manifest.json", &tr.Manifest)
}

// writeStage is the one publish-and-commit stage: it turns a filled
// payloadSet into a committed checkpoint directory under the commit protocol.
// Feeders only build the set; all that touches the backend happens in run.
type writeStage struct {
	b     storage.Backend
	dir   string
	dedup bool
	// step is what the journal record carries (a save's optimizer step
	// count, an output's trailer step).
	step int
	ra   readAhead
	// cplan is a dedup save's codec plan (nil = raw blobs), view its parent
	// lineage and store the handle a feeder already resolved (all optional).
	cplan *codecPlan
	view  *lineage
	store *saveStore
}

func (ws writeStage) run(set *payloadSet, tr *Trailer) (peak, written int64, err error) {
	txn, err := Begin(ws.b, ws.dir)
	if err != nil {
		return 0, 0, err
	}
	defer txn.Abort()
	sb, staging := txn.Backend(), txn.Dir()
	tr.Manifest.Dedup, tr.Manifest.RefGen = ws.dedup, 0
	if ws.dedup {
		// Blobs go to the store on the base backend, addressed from the
		// checkpoint's final path; only the manifests are staged.
		store := ws.store
		if store == nil {
			if store, err = openSaveStore(ws.b, ws.dir); err != nil {
				return 0, 0, err
			}
		}
		view := ws.view
		if view == nil {
			view = set.knownBlobs(store.BlobStore)
		}
		if err = set.hashAll(ws.ra); err == nil {
			tr.Manifest.RefGen, err = set.publishBlobs(store, view, ws.dir, ws.step, ws.cplan)
		}
		if err == nil {
			err = set.stageManifests(sb, staging)
		}
	} else {
		peak, written, err = set.stageContainers(sb, staging, ws.ra)
	}
	if err == nil {
		err = tr.stage(sb, staging)
	}
	if err != nil {
		return 0, 0, err
	}
	return peak, written, txn.Commit(tr.Step)
}

// newPayloadSet lays out a save's payloads in write order with their
// container metadata; the save feeders fill in sizes, bytes and identities.
func (p *savePlan) newPayloadSet() *payloadSet {
	set := &payloadSet{
		model:   p.cfg.Name,
		weights: make([]weightPayload, len(p.weights)),
		ranks:   make([]rankPayloads, p.worldSize),
	}
	for i, t := range p.weights {
		set.weights[i] = weightPayload{
			payload: payload{size: int64(t.Bytes())},
			name:    t.Name, dtype: t.DType.String(),
			shape: append([]int(nil), t.Shape...),
		}
	}
	for r := range set.ranks {
		groups := make([]groupPayload, len(p.metas))
		for gi, m := range p.metas {
			groups[gi] = groupPayload{payload: payload{size: p.parts[gi].ShardLen() * 12}, meta: m}
		}
		set.ranks[r] = rankPayloads{
			rank: r, worldSize: p.worldSize, step: p.stepCount,
			layout: p.layoutKind, groups: groups,
		}
	}
	return set
}

// commitSave is the tail both save feeders share: run the write stage over
// the filled set with the save's trailer, then move the run root's latest
// pointer. store is the handle the feeder captured against, if it has one.
func commitSave(b storage.Backend, spec *SaveSpec, plan *savePlan, set *payloadSet, store *saveStore) error {
	tr, err := saveTrailer(spec, plan)
	if err != nil {
		return err
	}
	ws := writeStage{b: b, dir: spec.Dir, dedup: spec.Dedup, step: plan.stepCount, store: store}
	if spec.Dedup {
		// One read of the parent's manifests serves the codec plan and the
		// publish loop alike.
		ws.view = loadLineage(b, spec.Dir)
		if ws.cplan, err = newCodecPlan(spec.Codec, spec.CodecRebase, ws.view); err != nil {
			return err
		}
	}
	if _, _, err := ws.run(set, tr); err != nil {
		return err
	}
	return WriteLatestPointer(b, spec.Dir)
}

// Output is a checkpoint built out of other checkpoints' payloads: how
// merge, blend and reshard write. A feeder adds the weights and each rank's
// groups in output order — by reference or computed — and commits the
// output with its trailer through the write stage.
type Output struct {
	set payloadSet
}

// NewOutput starts an output checkpoint of the named model.
func NewOutput(model string) *Output { return &Output{set: payloadSet{model: model}} }

// Tensor adds the named tensor of w by reference when it is stored as dt,
// and reports false (adding nothing) when it is not. Its bytes are replayed
// through the source's check — the digest, or the CRC when there is none —
// and not moved at all when its blob is already in the output's store.
func (o *Output) Tensor(w *Weights, name string, dt tensor.DType) (bool, error) {
	p, err := w.lookup(name)
	if err != nil || !w.rawEligible(name, dt) {
		return false, err
	}
	wp := *p
	wp.checked(weightSlot(name))
	o.set.weights = append(o.set.weights, wp)
	return true, nil
}

// Weights adds every tensor of w by reference, in stored order, and returns
// their payload bytes.
func (o *Output) Weights(w *Weights) int64 {
	var total int64
	for i := range w.list {
		wp := w.list[i]
		wp.checked(weightSlot(wp.name))
		o.set.weights = append(o.set.weights, wp)
		total += wp.size
	}
	return total
}

// ComputeTensor adds a tensor the feeder computes: compute runs once, when
// the output is written (a content-addressed output spools it as it hashes
// it), and must return a tensor of dt and shape. cost is what computing it
// holds in flight.
func (o *Output) ComputeTensor(name string, dt tensor.DType, shape []int, cost int64, compute func() (*tensor.Tensor, error)) {
	numel := int64(1)
	for _, d := range shape {
		numel *= int64(d)
	}
	write := withChunkBuf(func(w io.Writer, buf []byte) (int64, error) {
		t, err := compute()
		if err != nil {
			return 0, err
		}
		return t.EncodeTo(w, buf)
	})
	o.set.weights = append(o.set.weights, weightPayload{
		payload: payload{size: numel * int64(dt.Size()), write: write, cost: cost},
		name:    name, dtype: dt.String(), shape: append([]int(nil), shape...),
	})
}

// OutputRank is one rank's shard of an Output under construction.
type OutputRank struct {
	o *Output
	i int
}

// Rank adds the output's next rank. step is its recorded optimizer step;
// SetStep may raise it while the output is written.
func (o *Output) Rank(rank, world, step int, layout optim.LayoutKind) OutputRank {
	o.set.ranks = append(o.set.ranks, rankPayloads{rank: rank, worldSize: world, step: step, layout: layout})
	return OutputRank{o, len(o.set.ranks) - 1}
}

func (r OutputRank) rs() *rankPayloads { return &r.o.set.ranks[r.i] }

// SetStep records the rank's optimizer step. A computed group may call it
// once it has read the step off its sources.
func (r OutputRank) SetStep(step int) { r.rs().step = step }

// Group adds a source rank's stored group (Checkpoint.OptimExtents) by
// reference, checked and moved like Tensor's.
func (r OutputRank) Group(e GroupExtent) error {
	if e.p == nil {
		return fmt.Errorf("ckpt: group %d: not a stored extent", e.Index)
	}
	g := groupPayload{payload: *e.p, meta: e.ShardGroupMeta}
	g.checked(groupSlotKey(r.rs().rank, e.Index))
	r.rs().groups = append(r.rs().groups, g)
	return nil
}

// ComputeGroup adds a group shard the feeder computes: meta names it (Index,
// Numel, NoDecay, Layer) and sizes it (ShardLen), and write delivers its
// 12×ShardLen payload bytes, once, when the output is written.
func (r OutputRank) ComputeGroup(meta ShardGroupMeta, write func(io.Writer) (int64, error)) {
	r.rs().groups = append(r.rs().groups, groupPayload{payload: payload{size: meta.ShardLen * 12, write: write}, meta: meta})
}

// EncodeGroup writes one group shard's payload — master, exp_avg and
// exp_avg_sq, FP32 little-endian — as a computed group delivers it.
func EncodeGroup(w io.Writer, s *zero.GroupShard) (int64, error) {
	return withChunkBuf(func(w io.Writer, buf []byte) (int64, error) { return encodeGroupPayload(w, buf, s) })(w)
}

// OutputOptions shapes an Output's commit.
type OutputOptions struct {
	// Dedup publishes the output content-addressed, into the store of its
	// run root (or of the hub the run is attached to).
	Dedup bool
	// Latest moves the run root's latest pointer to the output.
	Latest bool
	// A plain output reads Workers tensors ahead (at least 1), at most
	// MaxInFlight bytes of them at once (0: unbounded), writes Workers
	// ranks' shard files side by side, and streams in ChunkBytes chunks (0:
	// default).
	Workers     int
	MaxInFlight int64
	ChunkBytes  int
}

// OutputReport is what committing an Output did: the blob counters of a
// content-addressed output, and a plain output's read-ahead high-water mark
// and container bytes written.
type OutputReport struct {
	DedupifyReport
	PeakInFlightBytes, BytesWritten int64
}

// Commit writes the output at dir with its trailer — Begin, containers or
// journal, blobs and manifests, trailer, Commit — and then, with
// opts.Latest, moves the latest pointer. tr.Step is what the commit marker
// and the journal record carry.
func (o *Output) Commit(b storage.Backend, dir string, tr *Trailer, opts OutputOptions) (*OutputReport, error) {
	set := &o.set
	defer set.releaseAll()
	ws := writeStage{b: b, dir: dir, dedup: opts.Dedup, step: tr.Step,
		ra: readAhead{workers: max(1, opts.Workers), inFlight: opts.MaxInFlight, chunk: opts.ChunkBytes}}
	rep := &OutputReport{}
	var err error
	if rep.PeakInFlightBytes, rep.BytesWritten, err = ws.run(set, tr); err != nil {
		return nil, err
	}
	set.each(func(p *payload, _ string, _ int) error {
		switch {
		case !opts.Dedup:
		case p.written:
			rep.BlobsPut++
			rep.BlobBytesWritten += p.size
		default:
			rep.BlobsReused++
			rep.BytesDeduped += p.size
		}
		return nil
	})
	if opts.Latest {
		err = WriteLatestPointer(b, dir)
	}
	return rep, err
}
