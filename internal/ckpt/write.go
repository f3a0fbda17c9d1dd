// The checkpoint write stage (DESIGN.md "The write stage").
//
// Every checkpoint writer — the synchronous Save, the lazy AsyncSaver, and
// merge, blend and reshard through Output — describes what it writes as an
// ordered payloadSet and hands it to the one stage in this file; writers
// differ only in where the bytes come from. The protocol that makes them
// durable exists once:
//
//	plain:  begin → CRC pass → LTSF/LTOS containers, header first and
//	        side by side → trailer wave → Commit
//	dedup:  begin → journal the digest set → publish missing blobs →
//	        LTMF/LTOM manifests and trailer in one wave → Commit
//
// The files a checkpoint stages before its marker — manifests and trailer —
// go in one wave, side by side (writeStaged): none depends on another, and
// only the marker, written once the whole wave has returned, makes any of
// them visible.
//
// Both rows settle every payload's identity before the first write: the
// dedup row its digest (hashAll), the plain row its CRC, so each container
// is written once, its header first — a save's CRCs from the CRC pass, a
// stored payload's from its source, an output's computed payload's from the
// one spool its container keeps for them.
//
// An Output's payloads come by reference — a source checkpoint's payload,
// replayed through its checks, with the digest, codec and lineage a
// content-addressed source recorded — or computed by the feeder (a converted
// or blended tensor, a repartitioned group). The dedup row hashes only what
// has no digest, and a digest enters a manifest without its bytes only
// through carry: a referenced blob already in the output's store moves no
// bytes, and meets the checks a copied payload meets. Nothing converts a
// published directory.
//
// The dedup order is load-bearing: the full digest set, xor-parent ancestors
// included, is journaled before the first blob is published, so a sweep
// always finds a record pinning a blob (and its decode ancestry) before the
// blob exists, and every blob put has returned before the manifests, which
// record how each blob landed, are staged and the commit seals them.

package ckpt

import (
	"bytes"
	"cmp"
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
	// crc is the payload's CRC32 when hasCRC is set; otherwise a save's CRC
	// pass or, for an output's computed payload, its container's spool
	// gives it one before the container's header is written.
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
	// src is the content-addressed source the payload is read from (read
	// stage only): an output publishing into the same store takes the blob's
	// recorded codec, size and lineage as the store's answer (recorded).
	src *source
	// pad is the padding rule of a group shard holding padding that no check
	// has read yet (OptimExtents): a replay meets it, carry reads its tails.
	pad *padRule
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
	// in, fileBytes what a whole load moves off the backend, want the rank
	// the set lists it as (which rank must match). stream, when set, is the
	// backend of a plain shard file not listed yet (streamedRank); err a
	// listing failure, which the load driver reports in the rank's place, or
	// once a load that goes on past failures has run, the rank's first.
	name      string
	fileBytes int64
	stream    storage.Backend
	err       error
	want      int
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

// hashAll gives payloads their identity before anything is written, by
// streaming write through the hashes — no storage I/O beyond what write
// reads, a stored payload's replay checking its CRC. The dedup row (digests
// set) gives every payload without a digest its digest and CRC, so the full
// digest set is known before anything is published; a plain save gives every
// payload without a CRC its CRC, so each container is written header first,
// once. A save (zero workers) hashes runtime.GOMAXPROCS payloads side by side
// straight off the live state, each worker holding one pooled chunk, and
// encodes again to write. An output hashes ra.workers payloads side by side
// and spools each one as it is hashed, so the put replays the spool: every
// computed payload is computed once and every referenced one read once.
// Spools are pooled memory up to hashSpoolBytes, temp files past it.
func (s *payloadSet) hashAll(ra readAhead, digests bool) error {
	type job struct {
		p    *payload
		slot string
	}
	var jobs []job
	s.each(func(p *payload, slot string, _ int) error {
		if digests && p.digest == "" || !digests && !p.hasCRC {
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
		err := jobs[i].p.hash(jobs[i].slot, pool, digests)
		if err != nil {
			failed.Store(true)
		}
		return err
	})
}

// hash gives p its CRC, and its digest when asked. With a pool (an output's
// hash pass; nil for a save), it spools the bytes as they are hashed and
// replays the spool from then on.
func (p *payload) hash(slot string, pool *storage.BufferPool, digests bool) error {
	write := p.write
	var sp storage.Spool
	if pool != nil {
		var err error
		if sp, err = pool.Spool(p.size); err != nil {
			return fmt.Errorf("ckpt: hash %s: %w", slot, err)
		}
		write = func(w io.Writer) (int64, error) { return p.write(io.MultiWriter(w, sp)) }
	}
	digest, crc, err := hashStream(p.size, digests, write)
	if err != nil {
		err = fmt.Errorf("ckpt: hash %s: %w", slot, err)
		if sp != nil {
			sp.Release()
		}
		return err
	}
	if sp != nil {
		p.consumed()
		p.write, p.release = replay(sp.Open), func() { sp.Release() }
	}
	// The bytes just hashed met the padding rule as they streamed.
	p.digest, p.crc, p.hasCRC, p.pad = digest, crc, true, nil
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
		if ref, ok := p.recorded(view, store.BlobStore); ok {
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
	// are, instead of racing it to publish the same blob — unless a repeat's
	// padding is unproven, which its own carry reads.
	first := map[string]*payload{}
	var repeats []*payload
	err = s.each(func(p *payload, slot string, _ int) error {
		if _, dup := first[p.digest]; dup && p.pad == nil {
			repeats = append(repeats, p)
			return nil
		}
		first[p.digest] = p
		var cost int64
		if _, known := p.recorded(view, store.BlobStore); p.write != nil && !known {
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

// recorded is how a record says p's blob is stored in store: by the
// checkpoint p was taken from, in the same store, or the save's parent.
func (p *payload) recorded(view *lineage, store *storage.BlobStore) (blobRef, bool) {
	if p.src != nil && p.src.root == store.Root() {
		return blobRef{Digest: p.digest, Codec: p.codec, Size: p.size, Stored: p.stored, Parents: p.parents}, true
	}
	return view.blob(p.digest)
}

// land moves one payload's bytes into the store — or, with nothing to move,
// carries its digest — and records how the blob is stored: a dedup hit may
// resolve to a container another save stored. It runs after the journal
// append, and its first request is the reuse check the sweep proof rests on
// (storage.BlobStore.Sweep).
func (p *payload) land(store *storage.BlobStore, view *lineage) error {
	ref, known := p.recorded(view, store)
	if known || p.pad != nil {
		ok, err := p.carry(store, p.size, ref, known)
		if err != nil {
			return err
		}
		if ok && known {
			p.consumed()
			p.codec, p.stored, p.parents = ref.Codec, ref.Stored, ref.Parents
			return nil
		}
		// Gone with the bytes in hand: re-publish. There in a form nothing
		// records (collected and re-stored since it was recorded): the store
		// describes it.
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

// carry is the one way a digest enters a checkpoint without its bytes passing
// the read stage's checks (DESIGN.md "The carry rule"). It proves, in order:
// the rank passed checkLayout (only OptimExtents, after checkRank, gives a
// shard a padding rule; a save's slots are its plan's); the store holds the
// blob (one Stat); its size is the claim, and the stored object's what ref
// records (known); a shard holding padding holds zeros there — by provenance
// for bytes this writer hashed, which keep no rule, and by reading the tails
// of its three sections for a digest another checkpoint recorded. It reports
// false when a step short of the padding fails: the caller moves the bytes,
// through every check, or has the store describe the blob.
func (p *payload) carry(store *storage.BlobStore, claim int64, ref blobRef, known bool) (bool, error) {
	stored, err := store.Stat(p.digest)
	if err != nil || p.size != claim {
		return false, nil
	}
	if p.pad != nil {
		tails, n := p.pad.tails()
		for _, off := range tails {
			if c, err := copyRange(&padWriter{w: io.Discard, padRule: p.pad, off: off}, p.open, off, n); err != nil || c != n {
				return false, cmp.Or(err, io.ErrUnexpectedEOF)
			}
		}
		p.pad = nil
	}
	return !known || stored == ref.storedSize(), nil
}

// stageManifests encodes the LTMF and per-rank LTOM manifests referencing the
// set's published blobs, entries in payload order, as files under dir.
func (s *payloadSet) stageManifests(dir string) ([]stagedFile, error) {
	wm := &WeightManifest{Version: formatVersion, Model: s.model}
	for _, w := range s.weights {
		wm.Tensors = append(wm.Tensors, WeightEntry{
			Name: w.name, DType: w.dtype, Shape: w.shape,
			Size: w.size, CRC32: w.crc, Digest: w.digest,
			Codec: w.codec, Stored: w.stored, Parents: w.parents,
		})
	}
	data, err := encodeManifest(ltmfMagic, wm)
	if err != nil {
		return nil, err
	}
	files := []stagedFile{{dir + "/" + WeightManifestName, data}}
	for i, rs := range s.ranks {
		sm := &ShardManifest{
			Version: formatVersion, Rank: rs.rank, WorldSize: rs.worldSize,
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
		if data, err = encodeManifest(ltomMagic, sm); err != nil {
			return nil, err
		}
		files = append(files, stagedFile{dir + "/" + ShardManifestName(i), data})
	}
	return files, nil
}

// readAhead is how a container's sections are produced (readAhead.stream):
// an output's weights workers at a time — each replayed or computed into a
// pooled buffer — and appended in order, admitted under a gate of inFlight
// bytes (0: unbounded); with zero workers, a save's, and every shard file's,
// each straight from its write function into the container. The set's
// containers are written side by side (payloadSet.writeContainers): an
// output's workers at a time, a save's runtime.GOMAXPROCS.
type readAhead struct {
	workers  int
	inFlight int64
	chunk    int
}

// writeContainers writes the set as plain LTSF/LTOS containers side by side
// — the weights at model (none when ""), the groups of s.ranks[i] at
// ranks[i] — returning the weights' peak read-ahead bytes in flight and the
// container bytes written.
func (s *payloadSet) writeContainers(b storage.Backend, model string, ranks []string, ra readAhead) (peak, written int64, err error) {
	var ws []*containerWriter
	defer func() {
		for _, w := range ws {
			w.Abort()
		}
	}()
	var closes []func() error
	if model != "" {
		lw := newLTSFWriter(b, model, s.model, ra)
		for i := range s.weights {
			if err := lw.appendPayload(&s.weights[i]); err != nil {
				return 0, 0, err
			}
		}
		ws, closes = append(ws, &lw.containerWriter), append(closes, lw.Close)
	}
	for i := range s.ranks {
		rs := &s.ranks[i]
		w := newShardFileWriter(b, ranks[i], rs.rank, rs.worldSize, rs.step, rs.layout, ra.chunk)
		for j := range rs.groups {
			if err := w.appendPayload(&rs.groups[j]); err != nil {
				return 0, 0, err
			}
		}
		ws = append(ws, &w.containerWriter)
		closes = append(closes, func() error {
			// A feeder may learn a rank's step from the payloads it computes.
			if err := w.settle(); err != nil {
				return err
			}
			w.hdr.Step = rs.step
			return w.Close()
		})
	}
	workers := ra.workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	var failed atomic.Bool
	err = parallel.ForEachFirst(workers, len(closes), func(i int) error {
		if failed.Load() {
			return nil
		}
		err := closes[i]()
		if err != nil {
			failed.Store(true)
		}
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	for _, w := range ws {
		peak, written = max(peak, w.peak), written+w.wrote
	}
	return peak, written, nil
}

// stream hands the sections to put in order, each with a write function
// delivering its bytes, through the one ordered fan-out of the write stage,
// and returns its peak bytes in flight.
func (ra readAhead) stream(list []section, put func(s section, write func(io.Writer) (int64, error)) error) (int64, error) {
	if ra.workers < 1 {
		for _, s := range list {
			if err := put(s, s.write); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
	type filled struct {
		s   section
		buf *[]byte
		crc uint32
	}
	gate := parallel.NewByteGate(ra.inFlight)
	pipe := parallel.NewPipeline(ra.workers, ra.workers, func(s section) (filled, error) {
		bp := loadBufs.Get().(*[]byte)
		if int64(cap(*bp)) < s.size {
			*bp = make([]byte, 0, s.size)
		}
		bb := bytes.NewBuffer((*bp)[:0])
		c := &crcWriter{w: bb}
		_, err := s.write(c)
		*bp = bb.Bytes()
		return filled{s, bp, c.crc}, err
	}, func(f filled) error {
		defer loadBufs.Put(f.buf)
		return put(f.s, func(w io.Writer) (int64, error) {
			if c, ok := w.(*crcWriter); ok { // summed as they were read ahead
				c.crc, w = f.crc, c.w
			}
			n, err := w.Write(*f.buf)
			return int64(n), err
		})
	})
	for _, s := range list {
		cost := s.cost
		if cost == 0 {
			cost = s.size
		}
		gate.Acquire(cost)
		if err := pipe.PushWithCleanup(s, func() { gate.Release(cost) }); err != nil {
			gate.Release(cost)
			break
		}
	}
	err := pipe.Close()
	return gate.Peak(), err
}

// Trailer is the small files a checkpoint ends with — config.json and
// trainer_state.json as given, manifest.json — and the step its commit
// marker records. The write stage sets the manifest's Dedup and RefGen.
type Trailer struct {
	Config, State []byte
	Manifest      Manifest
	Step          int
}

// files encodes the trailer as files under dir.
func (tr *Trailer) files(dir string) ([]stagedFile, error) {
	manifest, err := marshalJSON(dir+"/manifest.json", &tr.Manifest)
	if err != nil {
		return nil, err
	}
	return []stagedFile{
		{dir + "/config.json", tr.Config},
		{dir + "/trainer_state.json", tr.State},
		{dir + "/manifest.json", manifest},
	}, nil
}

// stagedFile is one small file the write stage writes before the marker: a
// manifest or a trailer file.
type stagedFile struct {
	name string
	data []byte
}

// writeStaged writes the files staged before the marker side by side,
// storage.RequestWidth at a time. The error is the first failure in file
// order.
func writeStaged(sb storage.Backend, files []stagedFile) error {
	return parallel.ForEachFirst(storage.RequestWidth, len(files), func(i int) error {
		return sb.WriteFile(files[i].name, files[i].data)
	})
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
	txn, err := begin(ws.b, ws.dir)
	if err != nil {
		return 0, 0, err
	}
	defer txn.Abort()
	sb, staging := txn.Backend(), txn.Dir()
	tr.Manifest.Dedup, tr.Manifest.RefGen = ws.dedup, 0
	var files []stagedFile
	if ws.dedup {
		// Blobs go to the store on the base backend, addressed from the
		// checkpoint's final path; only the manifests are staged.
		store := ws.store
		if store == nil {
			if store, err = openSaveStore(ws.b, ws.dir); err != nil {
				return 0, 0, err
			}
		}
		if err = set.hashAll(ws.ra, true); err == nil {
			tr.Manifest.RefGen, err = set.publishBlobs(store, ws.view, ws.dir, ws.step, ws.cplan)
		}
		if err == nil {
			// After every put returned: the manifests record each blob's
			// landed codec and stored size.
			files, err = set.stageManifests(staging)
		}
	} else {
		// A save's payloads get their CRCs before the first container
		// opens (an output's computed ones, in their container's spool).
		if ws.ra.workers < 1 {
			err = set.hashAll(ws.ra, false)
		}
		ranks := make([]string, len(set.ranks))
		for i := range ranks {
			ranks[i] = staging + "/" + ShardFileName(i)
		}
		if err == nil {
			peak, written, err = set.writeContainers(sb, staging+"/model.ltsf", ranks, ws.ra)
		}
	}
	var trailer []stagedFile
	if err == nil {
		trailer, err = tr.files(staging)
	}
	if err == nil {
		err = writeStaged(sb, append(files, trailer...))
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
		if ws.cplan, err = newCodecPlan(spec.Codec, ws.view); err != nil {
			return err
		}
	}
	if _, _, err := ws.run(set, tr); err != nil {
		return err
	}
	return writeLatestPointer(b, spec.Dir)
}

// Output is a checkpoint built out of other checkpoints' payloads: how
// merge, blend and reshard write. A feeder adds the weights and each rank's
// groups in output order — by reference or computed — and commits the
// output with its trailer through the write stage.
type Output struct {
	set payloadSet
	// checked totals the source payload bytes read to check sources that are
	// not copied: the whole payloads of spliced groups, and the padding tails
	// of carried ones, counted as each check runs.
	checked atomic.Int64
}

// NewOutput starts an output checkpoint of the named model.
func NewOutput(model string) *Output { return &Output{set: payloadSet{model: model}} }

// Tensor adds the named tensor of w by reference when it is stored as dt,
// and reports false (adding nothing) when it is not. Its bytes are replayed
// through the source's checks — the CRC, and the digest when there is one —
// or, when its blob is already in the output's store, not moved at all: the
// digest is carried (payload.carry).
func (o *Output) Tensor(w *Weights, name string, dt tensor.DType) (bool, error) {
	p, err := w.lookup(name)
	if err != nil || !w.rawEligible(name, dt) {
		return false, err
	}
	o.set.weights = append(o.set.weights, *p)
	return true, nil
}

// Weights adds every tensor of w by reference, in stored order, and returns
// their payload bytes.
func (o *Output) Weights(w *Weights) int64 {
	o.set.weights = append(o.set.weights, w.list...)
	var total int64
	for i := range w.list {
		total += w.list[i].size
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

// Group adds the rank's shard of one group out of the group's stored extents
// on every source rank (Checkpoint.OptimExtents), in source rank order, with
// no FP32 decoded: the unpadded vector [0, numel) is the invariant, and the
// rank's range of it under the output's partition is made of byte ranges of
// the source payloads — both partitions address the same FP32 grid — and
// zeros for its own pad tail. It is one of three things:
//   - where the two partitions coincide, the source rank's payload itself,
//     by reference, replayed through its checks or carried like Tensor's
//     (carried);
//   - past the data, all padding (zeroed);
//   - otherwise stitched, section by section (master, exp_avg,
//     exp_avg_sq), from the extents it overlaps, once every source payload
//     of the group has been checked whole (spliced).
//
// It reports the source payload bytes the shard takes and the pad bytes it
// synthesizes.
func (r OutputRank) Group(src []GroupExtent) (raw, zeros int64, err error) {
	if len(src) == 0 {
		return 0, 0, fmt.Errorf("ckpt: rank %d: no source extents", r.rs().rank)
	}
	m := src[0].ShardGroupMeta
	sN := m.ShardLen
	for _, e := range src {
		if e.p == nil || e.Index != m.Index || e.Numel != m.Numel || e.ShardLen != sN {
			return 0, 0, fmt.Errorf("ckpt: group %d: not one stored group's extents", m.Index)
		}
	}
	if int64(len(src))*sN < m.Numel {
		return 0, 0, fmt.Errorf("ckpt: group %d: %d extents of %d elements hold less than its %d", m.Index, len(src), sN, m.Numel)
	}
	rank := r.rs().rank
	pM, err := zero.NewPartition(m.Numel, r.rs().worldSize)
	if err != nil {
		return 0, 0, fmt.Errorf("ckpt: group %d: %w", m.Index, err)
	}
	sM := pM.ShardLen()
	lo, hi := pM.Range(rank)
	dataHi := min(hi, m.Numel)
	meta := ShardGroupMeta{Index: m.Index, Numel: m.Numel, ShardLen: sM, NoDecay: m.NoDecay, Layer: m.Layer}
	switch {
	case sM == sN && rank < len(src):
		g := groupPayload{payload: *src[rank].p, meta: src[rank].ShardGroupMeta}
		if open := g.open; g.pad != nil {
			// The padding tails a carry reads are checked bytes, as a
			// splice's whole reads are.
			g.open = func(off, n int64) (io.ReadCloser, error) {
				r.o.checked.Add(n)
				return open(off, n)
			}
		}
		r.rs().groups = append(r.rs().groups, g)
		return sM * 12, 0, nil
	case lo >= m.Numel:
		r.ComputeGroup(meta, func(w io.Writer) (int64, error) { return writeZeros(w, sM*12) })
		return 0, sM * 12, nil
	}
	r.ComputeGroup(meta, func(w io.Writer) (int64, error) {
		if err := r.o.checkExtents(src); err != nil {
			return 0, err
		}
		return spliceShard(w, src, lo, hi, dataHi)
	})
	return (dataHi - lo) * 12, (hi - dataHi) * 12, nil
}

// checkExtents reads each source payload of a group whole through its
// checks (once, however often asked) before any range of it is read.
func (o *Output) checkExtents(src []GroupExtent) error {
	for _, e := range src {
		n, err := e.check()
		if o.checked.Add(n); err != nil {
			return err
		}
	}
	return nil
}

// spliceShard writes one output shard's three sections — elements [lo, hi)
// of the group, data up to dataHi — from byte extents of the source payloads,
// with zeros for the pad tail. Source pad bytes are never read: padding moves
// with the partition.
func spliceShard(w io.Writer, src []GroupExtent, lo, hi, dataHi int64) (n int64, err error) {
	for k := int64(0); k < 3 && err == nil; k++ {
		var c, z int64
		c, err = spliceSection(w, src, k, lo, dataHi)
		if err == nil {
			z, err = writeZeros(w, (hi-dataHi)*4)
		}
		n += c + z
	}
	return n, err
}

// spliceSection writes elements [lo, hi) of section k of a group (master,
// exp_avg, exp_avg_sq) from the intersections of the range with each source
// shard's.
func spliceSection(w io.Writer, src []GroupExtent, k, lo, hi int64) (int64, error) {
	sN := src[0].ShardLen
	var n int64
	for cur := lo; cur < hi; {
		rn := cur / sN
		segHi := min((rn+1)*sN, hi)
		c, err := copyRange(w, src[rn].p.open, k*sN*4+(cur-rn*sN)*4, (segHi-cur)*4)
		if n += c; err != nil {
			return n, fmt.Errorf("ckpt: group %d: read extent from source rank %d: %w", src[rn].Index, rn, err)
		}
		cur = segHi
	}
	return n, nil
}

// MasterTensor adds the named tensor as its master weights rounded to dt, as
// optim writes them back: elements [off, off+numel) of the master section of
// the group whose extents on every source rank src lists, read by range once
// checked whole — how an output that keeps the optimizer converts a weight.
// It reports the master bytes read.
func (o *Output) MasterTensor(name string, dt tensor.DType, shape []int, src []GroupExtent, off int64) (int64, error) {
	n := int64(1)
	for _, d := range shape {
		n *= int64(d)
	}
	if len(src) == 0 || off < 0 || off+n > src[0].Numel || int64(len(src))*src[0].ShardLen < src[0].Numel {
		return 0, fmt.Errorf("ckpt: tensor %q: elements [%d, %d) not in %d extents of a group", name, off, off+n, len(src))
	}
	o.ComputeTensor(name, dt, shape, n*int64(4+dt.Size()), func() (*tensor.Tensor, error) {
		var buf bytes.Buffer
		if err := o.checkExtents(src); err != nil {
			return nil, err
		}
		if _, err := spliceSection(&buf, src, 0, off, off+n); err != nil {
			return nil, err
		}
		master, t := make([]float32, n), tensor.New(name, dt, shape...)
		tensor.DecodeLE(master, buf.Bytes())
		t.CopyFromF32(master)
		return t, nil
	})
	return n * 4, nil
}

// copyRange copies the n payload bytes at off, opened through open, to w.
func copyRange(w io.Writer, open func(off, n int64) (io.ReadCloser, error), off, n int64) (int64, error) {
	rc, err := open(off, n)
	if err != nil {
		return 0, err
	}
	c, err := io.Copy(w, rc)
	return c, cmp.Or(err, rc.Close())
}

var zeroBuf [4096]byte

func writeZeros(w io.Writer, n int64) (int64, error) {
	var total int64
	for total < n {
		k, err := w.Write(zeroBuf[:min(n-total, int64(len(zeroBuf)))])
		if total += int64(k); err != nil {
			return total, err
		}
	}
	return total, nil
}

// ComputeGroup adds a group shard the feeder computes: meta names it (Index,
// Numel, NoDecay, Layer) and sizes it (ShardLen), and write delivers its
// 12×ShardLen payload bytes, once, when the output is written.
func (r OutputRank) ComputeGroup(meta ShardGroupMeta, write func(io.Writer) (int64, error)) {
	r.rs().groups = append(r.rs().groups, groupPayload{payload: payload{size: meta.ShardLen * 12, write: write}, meta: meta})
}

// OutputOptions shapes an Output's commit.
type OutputOptions struct {
	// Dedup publishes the output content-addressed, into the store of its
	// run root (or of the hub the run is attached to).
	Dedup bool
	// Latest moves the run root's latest pointer to the output.
	Latest bool
	// A plain output writes Workers of its containers (model.ltsf and the
	// ranks' shard files; at least 1) side by side; inside model.ltsf's,
	// Workers tensors are read ahead, at most MaxInFlight bytes of them at
	// once (0: unbounded). Containers stream in ChunkBytes chunks (0:
	// default).
	Workers     int
	MaxInFlight int64
	ChunkBytes  int
}

// OutputReport is what committing an Output did: the blob counters of a
// content-addressed output, a plain output's read-ahead high-water mark and
// container bytes written, and the source payload bytes read to check
// sources that were not copied: each spliced group's source payloads whole,
// once, and each carried group's padding tails.
type OutputReport struct {
	BlobReport
	PeakInFlightBytes, BytesWritten, BytesChecked int64
}

// Commit writes the output at dir with its trailer — begin, containers or
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
	rep.BytesChecked = o.checked.Load()
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
		err = writeLatestPointer(b, dir)
	}
	return rep, err
}
