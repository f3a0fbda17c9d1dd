// The checkpoint write stage (DESIGN.md "The write stage").
//
// Every checkpoint writer — the synchronous Save, the lazy capture engine,
// Dedupify — describes what it writes as an ordered payloadSet and hands it
// to the one stage in this file; writers differ only in where the bytes come
// from. The protocol that makes them durable exists once:
//
//	plain:  Begin → LTSF/LTOS containers → trailer → Commit
//	dedup:  Begin → journal the digest set → publish missing blobs →
//	        LTMF/LTOM manifests → trailer → Commit
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
// group's identity (Index, Numel, NoDecay, Layer); ShardLen, CRC and offsets
// derive from the payload at write time.
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
}

// payloadSet lists a checkpoint's payloads in write order — weights, then
// rank-major groups — the order of the journal, the blob puts, the manifest
// entries and the container payload sections alike.
type payloadSet struct {
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
			return fmt.Errorf("ckpt: %s payload CRC %08x, header says %08x", slot, crc, p.crc)
		}
		p.digest, p.crc, p.hasCRC = digest, crc, true
		return nil
	})
}

// replay adapts a reopenable byte source (a capture spool, a committed
// container extent) to a payload's write function.
func replay(open func() (io.ReadCloser, error)) func(io.Writer) (int64, error) {
	return func(w io.Writer) (int64, error) {
		rc, err := open()
		if err != nil {
			return 0, err
		}
		n, err := io.Copy(w, rc)
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
		return n, err
	}
}

// publishBlobs journals the set's reference record under finalDir's run
// root, then publishes every blob the store lacks — the only place a
// checkpoint's ref record is appended and its payload blobs are put. Each
// payload must carry its digest. The returned generation is what the
// checkpoint's manifest.json records as ref_gen, binding the published
// directory to its journal record.
func (s *payloadSet) publishBlobs(b storage.Backend, finalDir string, step int, cplan *codecPlan) (int64, error) {
	store, err := storeFor(b, finalDir)
	if err != nil {
		return 0, err
	}
	var digests []string
	s.each(func(p *payload, slot string, width int) error {
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
		// record could orphan them under our feet.
		if chain, err := blobChain(store, p.digest); err == nil {
			digests = append(digests, chain...)
		}
		return nil
	})
	gen, err := appendRefRecord(b, finalDir, step, digests)
	if err != nil {
		return 0, err
	}
	return gen, s.each(func(p *payload, slot string, _ int) error {
		res, err := p.land(store)
		if err == nil {
			p.written = res.Written
			p.codec, p.stored, p.parents, err = codecEntryMeta(store, res, p.planned)
		}
		if err != nil {
			return fmt.Errorf("ckpt: blob %s (%s): %w", p.digest, slot, err)
		}
		return nil
	})
}

// land moves one payload's bytes into the store — or, with nothing to move,
// finds the blob already there — and reports how the blob is stored: a dedup
// hit may resolve to a container another save stored.
func (p *payload) land(store storage.CAS) (storage.PutResult, error) {
	if p.write == nil {
		// The blob must still exist (the record just appended pins it
		// against any sweep's recheck). If it is gone anyway, fail honestly
		// — the bytes are no longer available to re-create it.
		meta, err := store.Meta(p.digest)
		if err != nil {
			return storage.PutResult{}, fmt.Errorf("reused blob missing from store: %w", err)
		}
		return storage.PutResult{
			Codec: meta.Codec, Parent: meta.Parent,
			RawBytes: meta.RawSize, StoredBytes: meta.StoredSize,
		}, nil
	}
	// Zero-valued opts (no codec plan) is a plain raw put.
	res, err := store.PutStreamOpts(p.digest, p.opts, p.write)
	if err == nil {
		p.consumed()
	}
	return res, err
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

// writeStage is the one publish-and-commit stage: it turns a payloadSet into
// a committed checkpoint directory under the commit protocol. Feeders only
// build the set; everything that touches the backend happens in run.
type writeStage struct {
	b   storage.Backend
	dir string
	// dedup selects content-addressed output (blobs + manifests) over plain
	// containers; cplan is its codec plan (nil = raw blobs).
	dedup bool
	cplan *codecPlan
	// journalStep is recorded in the ref record, markerStep in COMMITTED.
	journalStep, markerStep int
	// trailer stages the checkpoint's remaining small files (config, trainer
	// state, manifest.json carrying refGen) through the recording backend.
	trailer func(sb storage.Backend, staging string, refGen int64) error
}

func (ws writeStage) run(set *payloadSet) error {
	txn, err := Begin(ws.b, ws.dir)
	if err != nil {
		return err
	}
	defer txn.Abort()
	sb, staging := txn.Backend(), txn.Dir()
	var refGen int64
	if ws.dedup {
		// Blobs go to the store on the base backend, addressed from the
		// checkpoint's final path; only the manifests are staged.
		if refGen, err = set.publishBlobs(ws.b, ws.dir, ws.journalStep, ws.cplan); err != nil {
			return err
		}
		err = set.stageManifests(sb, staging)
	} else {
		err = set.stageContainers(sb, staging)
	}
	if err != nil {
		return err
	}
	if err := ws.trailer(sb, staging, refGen); err != nil {
		return err
	}
	return txn.Commit(ws.markerStep)
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
// pointer.
func commitSave(b storage.Backend, spec *SaveSpec, plan *savePlan, set *payloadSet) error {
	ws := writeStage{
		b: b, dir: spec.Dir, dedup: spec.Dedup,
		journalStep: plan.stepCount, markerStep: spec.State.Step,
		trailer: func(sb storage.Backend, staging string, refGen int64) error {
			return writeTrailer(sb, staging, spec, plan, refGen)
		},
	}
	if spec.Dedup {
		var err error
		if ws.cplan, err = newCodecPlan(b, spec.Dir, spec.Codec, spec.CodecRebase); err != nil {
			return err
		}
	}
	if err := ws.run(set); err != nil {
		return err
	}
	return WriteLatestPointer(b, spec.Dir)
}
