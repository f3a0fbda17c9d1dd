// The checkpoint write stage (DESIGN.md "The write stage").
//
// Every checkpoint writer — the synchronous Save, the lazy AsyncSaver, a
// merge, blend or reshard making a content-addressed output — describes what
// it writes as an ordered payloadSet and hands it to the one stage in this
// file; writers differ only in where the bytes come from. The protocol that
// makes them durable exists once:
//
//	plain:  Begin → LTSF/LTOS containers → trailer → Commit
//	dedup:  Begin → journal the digest set → publish missing blobs →
//	        LTMF/LTOM manifests → trailer → Commit
//
// A dedup output of merge, blend or reshard is staged plain first and takes
// the dedup row inside its transaction, before Commit (Txn.contentAddress):
// hashAll → publishBlobs → stageManifests over the staged containers, which
// then leave the staging tree. Nothing converts a published directory.
//
// The dedup order is load-bearing: the full digest set, xor-parent ancestors
// included, is journaled before the first blob is published, so a sweep
// always finds a record pinning a blob (and its decode ancestry) before the
// blob exists, and blobs are published before the commit seals the manifests
// that reference them.

package ckpt

import (
	"fmt"
	"io"

	"llmtailor/internal/optim"
	"llmtailor/internal/parallel"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
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

// hashAll gives every payload its content digest and CRC by streaming write
// through the hashes — no storage I/O — so the full digest set is known
// before anything is published. A CRC the feeder already holds (a container
// header's) is verified against the bytes instead of replaced.
func (s *payloadSet) hashAll() error {
	return s.each(func(p *payload, slot string, _ int) error {
		digest, crc, err := hashStream(p.size, p.write)
		if err != nil {
			return fmt.Errorf("ckpt: hash %s: %w", slot, err)
		}
		if p.hasCRC && crc != p.crc {
			return p.crcMismatch("", slot, crc)
		}
		p.digest, p.crc, p.hasCRC = digest, crc, true
		return nil
	})
}

// replay adapts a reopenable byte source (a capture spool, a committed
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
	cas, err := scope.openStore()
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
// staging directory, payload sections in set order.
func (s *payloadSet) stageContainers(sb storage.Backend, dir string) error {
	if err := s.stageWeights(sb, dir+"/model.ltsf", 0); err != nil {
		return err
	}
	for i := range s.ranks {
		if err := s.ranks[i].stageShardFile(sb, dir+"/"+ShardFileName(i), 0); err != nil {
			return err
		}
	}
	return nil
}

func (s *payloadSet) stageWeights(sb storage.Backend, name string, chunkBytes int) error {
	w, err := NewLTSFWriter(sb, name, s.model, chunkBytes)
	if err != nil {
		return err
	}
	defer w.Abort()
	for i := range s.weights {
		wp := &s.weights[i]
		rt := RawTensor{Name: wp.name, DType: wp.dtype, Shape: wp.shape, Size: wp.size, CRC32: wp.crc}
		if err := w.appendPayload(rt, wp.hasCRC, wp.write); err != nil {
			return err
		}
		wp.consumed()
	}
	return w.Close()
}

func (rs *rankPayloads) stageShardFile(sb storage.Backend, name string, chunkBytes int) error {
	w, err := NewShardFileWriter(sb, name, rs.rank, rs.worldSize, rs.step, rs.layout, chunkBytes)
	if err != nil {
		return err
	}
	defer w.Abort()
	for i := range rs.groups {
		g := &rs.groups[i]
		m := g.meta
		m.ShardLen, m.CRC32 = g.size/12, g.crc
		if err := w.appendPayload(m, g.size, g.hasCRC, g.write); err != nil {
			return err
		}
		g.consumed()
	}
	return w.Close()
}

// writeStage is the one publish-and-commit stage: it turns a save's filled
// payloadSet into a committed checkpoint directory under the commit protocol.
// Feeders only build the set; all that touches the backend happens in run.
type writeStage struct {
	b    storage.Backend
	spec *SaveSpec
	plan *savePlan
	// cplan is a dedup save's codec plan (nil = raw blobs), view its parent
	// lineage and store the handle a feeder already resolved (both optional).
	cplan *codecPlan
	view  *lineage
	store *saveStore
}

func (ws writeStage) run(set *payloadSet) error {
	dir := ws.spec.Dir
	txn, err := Begin(ws.b, dir)
	if err != nil {
		return err
	}
	defer txn.Abort()
	sb, staging := txn.Backend(), txn.Dir()
	var refGen int64
	if ws.spec.Dedup {
		// Blobs go to the store on the base backend, addressed from the
		// checkpoint's final path; only the manifests are staged.
		store := ws.store
		if store == nil {
			if store, err = openSaveStore(ws.b, dir); err != nil {
				return err
			}
		}
		if refGen, err = set.publishBlobs(store, ws.view, dir, ws.plan.stepCount, ws.cplan); err != nil {
			return err
		}
		err = set.stageManifests(sb, staging)
	} else {
		err = set.stageContainers(sb, staging)
	}
	if err != nil {
		return err
	}
	// The trailer: config, trainer state, manifest.json carrying refGen. The
	// record journals the optimizer's step count, the marker the trainer's.
	if err := writeTrailer(sb, staging, ws.spec, ws.plan, refGen); err != nil {
		return err
	}
	return txn.Commit(ws.spec.State.Step)
}

// contentAddress gives a transaction's staged plain output content-addressed
// form, before it commits: how merge, blend and reshard make a dedup output.
// It is one more feeder of the stage's blob half. The read stage lists the
// staged containers' payloads as raw extents (no decode) and hashAll digests
// them, verifying each header CRC against the bytes in the same pass; the
// journal record and the missing blobs go to the store addressed from the
// final path; the manifests are staged; the containers leave the staging tree
// (and the transaction's record with them); manifest.json is restaged carrying
// dedup and ref_gen. No codec plan: new blobs stay raw, dedup hits on coded
// blobs keep their lineage. A crash anywhere leaves what a crashed dedup Save
// leaves — an unsealed tree, a record no directory is bound to, blobs nothing
// references — and never a published directory in an intermediate form.
func (t *Txn) contentAddress(step int) (rep DedupifyReport, err error) {
	src, err := openSource(t.base, t.staging)
	if err != nil {
		return rep, err
	}
	set, err := src.set()
	if err == nil {
		err = set.hashAll()
	}
	if err != nil {
		return rep, err
	}
	store, err := openSaveStore(t.base, t.final)
	if err != nil {
		return rep, err
	}
	gen, err := set.publishBlobs(store, nil, t.final, step, nil)
	if err != nil {
		return rep, err
	}
	if err := set.stageManifests(t.rec, t.staging); err != nil {
		return rep, err
	}
	containers := []string{"model.ltsf"}
	for rank := range set.ranks {
		containers = append(containers, ShardFileName(rank))
	}
	for _, name := range containers {
		if err := t.rec.Remove(t.staging + "/" + name); err != nil {
			return rep, err
		}
	}
	man, err := ReadManifest(t.base, t.staging)
	if err != nil {
		return rep, err
	}
	man.Dedup, man.RefGen = true, gen
	if err := writeJSON(t.rec, t.staging+"/manifest.json", &man); err != nil {
		return rep, err
	}
	set.each(func(p *payload, _ string, _ int) error {
		if p.written {
			rep.BlobsPut++
			rep.BlobBytesWritten += p.size
		} else {
			rep.BlobsReused++
			rep.BytesDeduped += p.size
		}
		return nil
	})
	return rep, nil
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
			groups[gi] = groupPayload{payload: payload{size: p.shardBytes[gi]}, meta: m}
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
	ws := writeStage{b: b, spec: spec, plan: plan, store: store}
	if spec.Dedup {
		// One read of the parent's manifests serves the codec plan and the
		// publish loop alike.
		var err error
		ws.view = loadLineage(b, spec.Dir)
		if ws.cplan, err = newCodecPlan(spec.Codec, spec.CodecRebase, ws.view); err != nil {
			return err
		}
	}
	if err := ws.run(set); err != nil {
		return err
	}
	return WriteLatestPointer(b, spec.Dir)
}
