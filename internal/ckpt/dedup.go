// Content-addressed ("dedup") checkpoints.
//
// A dedup save stores every weight-tensor and optimizer-group payload as a
// blob in the run root's `objects/` store (internal/storage.BlobStore) and
// writes small manifests referencing the blobs by SHA-256 digest in place
// of the LTSF/LTOS payload containers. Payloads unchanged since any
// earlier save cost zero payload bytes — the incremental-snapshot
// observation that most tensor bytes are identical between successive
// training checkpoints, applied at the paper's layer-wise granularity.
//
// Ordering makes the commit protocol carry over unchanged: blobs are
// published (atomic rename, idempotent) before the checkpoint's COMMITTED
// marker seals the manifest directory, so a committed manifest can only
// reference durable blobs. A crash mid-save leaves an orphaned staging
// directory plus possibly unreferenced blobs — garbage that Repair and GC
// remove, never a committed checkpoint with dangling references. GC
// derives refcounts from every committed (and sealed-but-unpublished)
// manifest and sweeps only blobs with zero references.

package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strings"

	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
	"llmtailor/internal/zero"
)

// ObjectsDirName is the blob store's directory name under a run root.
const ObjectsDirName = "objects"

// objectsPath returns the blob store root for a run root.
func objectsPath(runRoot string) string {
	if runRoot == "" {
		return ObjectsDirName
	}
	return runRoot + "/" + ObjectsDirName
}

// ObjectsRoot returns the blob store root serving a checkpoint directory:
// the `objects/` sibling in its run root. A single-segment dir ("merged")
// has the backend root as its run root, mirroring LatestPointerPath.
func ObjectsRoot(dir string) string { return objectsPath(runRootOf(dir)) }

// runRootOf returns a checkpoint directory's run root: its parent directory,
// "" (the backend root) for a single-segment dir.
func runRootOf(dir string) string {
	if i := strings.LastIndexByte(dir, '/'); i >= 0 {
		return dir[:i]
	}
	return ""
}

// storeFor opens the content-addressed store serving a checkpoint directory
// (storage.OpenCAS: the hub attachment followed, the shard map honoured).
func storeFor(b storage.Backend, dir string) (*storage.BlobStore, error) {
	return storage.OpenCAS(b, ObjectsRoot(dir))
}

// IsDedup reports whether a checkpoint directory is stored content-
// addressed (weight manifest present, no weight container).
func IsDedup(b storage.Backend, dir string) bool {
	return b.Exists(dir+"/"+WeightManifestName) && !b.Exists(dir+"/model.ltsf")
}

// hashStream computes one payload's content digest and CRC by streaming
// encode() through the hashes only — no storage I/O.
func hashStream(size int64, encode func(io.Writer) (int64, error)) (digest string, crc uint32, err error) {
	c := crc32.NewIEEE()
	sum := sha256.New()
	n, err := encode(io.MultiWriter(c, sum))
	if err != nil {
		return "", 0, err
	}
	if n != size {
		return "", 0, fmt.Errorf("ckpt: payload encoded %d bytes, expected %d", n, size)
	}
	return hex.EncodeToString(sum.Sum(nil)), c.Sum32(), nil
}

// encodeGroupPayload streams one group shard's payload (master + exp_avg +
// exp_avg_sq, FP32 LE) — exactly the bytes ShardFileWriter.WriteGroup
// spools.
func encodeGroupPayload(w io.Writer, buf []byte, s *zero.GroupShard) (int64, error) {
	var n int64
	for _, sec := range [][]float32{s.Master, s.ExpAvg, s.ExpAvgSq} {
		k, err := writeF32s(w, buf, sec)
		n += k
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// DedupWeights provides the same lazy per-tensor access over a dedup
// checkpoint that LTSFReader provides over a plain one: tensors are read
// (and CRC-verified) blob by blob, raw extents open directly on the blob
// files, so resume and merge work transparently against either layout.
type DedupWeights struct {
	store *storage.BlobStore
	man   *WeightManifest
	// index maps tensor name to its manifest entry position, so per-tensor
	// lookups cost what the LTSF header map costs, not a slice scan.
	index map[string]int
}

// OpenDedupWeights opens the weight manifest of a dedup checkpoint.
func OpenDedupWeights(b storage.Backend, dir string) (*DedupWeights, error) {
	man, err := ReadWeightManifest(b, dir+"/"+WeightManifestName)
	if err != nil {
		return nil, err
	}
	index := make(map[string]int, len(man.Tensors))
	for i, e := range man.Tensors {
		index[e.Name] = i
	}
	store, err := storeFor(b, dir)
	if err != nil {
		return nil, err
	}
	return &DedupWeights{store: store, man: man, index: index}, nil
}

// entry returns the named tensor's manifest entry via the index.
func (r *DedupWeights) entry(name string) (WeightEntry, bool) {
	i, ok := r.index[name]
	if !ok {
		return WeightEntry{}, false
	}
	return r.man.Tensors[i], true
}

// Model returns the model name recorded at save time.
func (r *DedupWeights) Model() string { return r.man.Model }

// Names returns the sorted tensor names present in the manifest.
func (r *DedupWeights) Names() []string {
	out := make([]string, 0, len(r.man.Tensors))
	for _, e := range r.man.Tensors {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

// Has reports whether the manifest references the named tensor.
func (r *DedupWeights) Has(name string) bool {
	_, ok := r.entry(name)
	return ok
}

// PayloadSize returns the stored byte size of the named tensor's payload.
func (r *DedupWeights) PayloadSize(name string) (int64, bool) {
	e, ok := r.entry(name)
	if !ok {
		return 0, false
	}
	return e.Size, true
}

// ReadTensor reads the named tensor's blob, verifies its CRC and returns
// the decoded tensor.
func (r *DedupWeights) ReadTensor(name string) (*tensor.Tensor, error) {
	e, ok := r.entry(name)
	if !ok {
		return nil, fmt.Errorf("ckpt: dedup weights: no tensor %q", name)
	}
	dt, err := tensor.ParseDType(e.DType)
	if err != nil {
		return nil, fmt.Errorf("ckpt: dedup weights: tensor %q: %w", name, err)
	}
	rc, err := r.store.OpenRange(e.Digest, 0, e.Size)
	if err != nil {
		return nil, fmt.Errorf("ckpt: dedup weights: tensor %q: %w", name, err)
	}
	buf := make([]byte, e.Size)
	_, err = io.ReadFull(rc, buf)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: dedup weights: tensor %q blob %s: %w", name, e.Digest, err)
	}
	if got := crc32.ChecksumIEEE(buf); got != e.CRC32 {
		return nil, fmt.Errorf("ckpt: dedup weights: tensor %q: CRC mismatch (%08x != %08x)", name, got, e.CRC32)
	}
	t := tensor.New(name, dt, e.Shape...)
	if err := t.Decode(buf); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadAll reads every tensor in name order.
func (r *DedupWeights) ReadAll() ([]*tensor.Tensor, error) {
	names := r.Names()
	out := make([]*tensor.Tensor, 0, len(names))
	for _, n := range names {
		t, err := r.ReadTensor(n)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// RawTensor returns the named tensor's blob extent and recorded CRC.
func (r *DedupWeights) RawTensor(name string) (RawTensor, error) {
	e, ok := r.entry(name)
	if !ok {
		return RawTensor{}, fmt.Errorf("ckpt: dedup weights: no tensor %q", name)
	}
	return RawTensor{
		Name:  name,
		DType: e.DType,
		Shape: append([]int(nil), e.Shape...),
		Size:  e.Size,
		CRC32: e.CRC32,
		// A blob holds exactly the payload, so the extent starts at 0.
		Offset: 0,
	}, nil
}

// OpenRaw opens a streaming reader over the named tensor's blob.
func (r *DedupWeights) OpenRaw(name string) (RawTensor, io.ReadCloser, error) {
	rt, err := r.RawTensor(name)
	if err != nil {
		return RawTensor{}, nil, err
	}
	e, _ := r.entry(name)
	rc, err := r.store.OpenRange(e.Digest, 0, e.Size)
	if err != nil {
		return RawTensor{}, nil, fmt.Errorf("ckpt: dedup weights: open blob for %q: %w", name, err)
	}
	return rt, rc, nil
}

// RawEligible reports whether the named tensor can be raw-copied into an
// output of the given dtype.
func (r *DedupWeights) RawEligible(name string, out tensor.DType) bool {
	e, ok := r.entry(name)
	if !ok {
		return false
	}
	dt, err := tensor.ParseDType(e.DType)
	return err == nil && dt == out
}

// readDedupShardFile rebuilds one rank's decoded ShardFile from its shard
// manifest and group blobs — the dedup counterpart of ReadShardFile, with
// the same whole-groups-only access (no lazy optimizer loading, §5.4).
func readDedupShardFile(b storage.Backend, dir string, rank int) (*ShardFile, error) {
	name := dir + "/" + ShardManifestName(rank)
	man, err := ReadShardManifest(b, name)
	if err != nil {
		return nil, err
	}
	if man.Rank != rank {
		return nil, fmt.Errorf("ckpt: %s: manifest is for rank %d", name, man.Rank)
	}
	layout, err := optim.ParseLayoutKind(man.Layout)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", name, err)
	}
	store, err := storeFor(b, dir)
	if err != nil {
		return nil, err
	}
	f := &ShardFile{
		Rank: man.Rank, WorldSize: man.WorldSize, Step: man.Step,
		Layout: layout,
		Shards: make([]*zero.GroupShard, len(man.Groups)),
	}
	if size, err := b.Stat(name); err == nil {
		f.FileBytes = size
	}
	for i, g := range man.Groups {
		rc, err := store.OpenRange(g.Digest, 0, g.Size)
		if err != nil {
			return nil, fmt.Errorf("ckpt: %s: group %d blob: %w", name, g.Index, err)
		}
		seg := make([]byte, g.Size)
		_, err = io.ReadFull(rc, seg)
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("ckpt: %s: group %d blob %s: %w", name, g.Index, g.Digest, err)
		}
		if got := crc32.ChecksumIEEE(seg); got != g.CRC32 {
			return nil, fmt.Errorf("ckpt: %s: group %d CRC mismatch", name, g.Index)
		}
		meta := g.Meta()
		meta.Offsets = [2]int64{0, g.Size}
		f.Meta = append(f.Meta, meta)
		f.FileBytes += g.Size
		f.Shards[i] = &zero.GroupShard{
			GroupIndex: g.Index,
			Rank:       man.Rank,
			Master:     decodeF32(seg, g.ShardLen),
			ExpAvg:     decodeF32(seg[g.ShardLen*4:], g.ShardLen),
			ExpAvgSq:   decodeF32(seg[g.ShardLen*8:], g.ShardLen),
		}
	}
	return f, nil
}

// MaterializeWeights writes a full LTSF weight container at dst from a
// dedup checkpoint's manifest: the stored blobs feed the write stage's
// container writer in manifest (= payload) order with carried-forward CRCs.
// The output is byte-identical to what a plain Save of the same state would
// have written; every payload is re-hashed on the way through and checked
// against the manifest's digest, so a corrupt blob fails the
// materialization instead of poisoning the container.
func MaterializeWeights(b storage.Backend, dir, dst string, chunkBytes int) error {
	man, err := ReadWeightManifest(b, dir+"/"+WeightManifestName)
	if err != nil {
		return err
	}
	store, err := storeFor(b, dir)
	if err != nil {
		return err
	}
	set := &payloadSet{model: man.Model}
	for _, e := range man.Tensors {
		set.weights = append(set.weights, weightPayload{
			payload: blobPayload(store, e.Digest, e.Size, e.CRC32),
			name:    e.Name, dtype: e.DType, shape: e.Shape,
		})
	}
	if err := set.stageWeights(b, dst, chunkBytes); err != nil {
		return fmt.Errorf("ckpt: materialize %s: %w", dir, err)
	}
	return nil
}

// MaterializeShardFile writes one rank's full LTOS container at dst from a
// dedup checkpoint's shard manifest, byte-identical to the plain save's,
// verifying each group blob's digest as it streams through.
func MaterializeShardFile(b storage.Backend, dir string, rank int, dst string, chunkBytes int) error {
	man, err := ReadShardManifest(b, dir+"/"+ShardManifestName(rank))
	if err != nil {
		return err
	}
	layout, err := optim.ParseLayoutKind(man.Layout)
	if err != nil {
		return err
	}
	store, err := storeFor(b, dir)
	if err != nil {
		return err
	}
	rs := rankPayloads{rank: man.Rank, worldSize: man.WorldSize, step: man.Step, layout: layout}
	for _, g := range man.Groups {
		rs.groups = append(rs.groups, groupPayload{
			payload: blobPayload(store, g.Digest, g.Size, g.CRC32), meta: g.Meta(),
		})
	}
	if err := rs.stageShardFile(b, dst, chunkBytes); err != nil {
		return fmt.Errorf("ckpt: materialize %s rank %d: %w", dir, rank, err)
	}
	return nil
}

// blobPayload describes a stored blob as a payload whose write replays the
// decoded bytes, re-hashing them against the digest on the way through.
func blobPayload(store *storage.BlobStore, digest string, size int64, crc uint32) payload {
	open := func() (io.ReadCloser, error) { return store.OpenRange(digest, 0, size) }
	return payload{size: size, digest: digest, crc: crc, hasCRC: true,
		write: func(w io.Writer) (int64, error) {
			sum := sha256.New()
			n, err := replay(open)(io.MultiWriter(w, sum))
			if got := hex.EncodeToString(sum.Sum(nil)); err == nil && got != digest {
				err = fmt.Errorf("blob content hashes to %s, manifest says %s", got, digest)
			}
			return n, err
		}}
}

// shardManifestRanks lists the ranks that have shard manifests in a
// checkpoint directory.
func shardManifestRanks(b storage.Backend, dir string) []int {
	entries, err := b.List(dir + "/zero")
	if err != nil {
		return nil
	}
	var ranks []int
	for _, e := range entries {
		var r int
		if _, err := fmt.Sscanf(e, "rank_%d_optim_states.ltom", &r); err == nil && strings.HasSuffix(e, ".ltom") {
			ranks = append(ranks, r)
		}
	}
	sort.Ints(ranks)
	return ranks
}

// verifyDedupRefs checks that every blob a dedup checkpoint references
// exists with the manifest's exact payload size — the cheap half of
// reference integrity Scan runs on committed dedup directories (content
// digests are verified by readers and materialization). Sizes compare
// against the blob's decoded (raw) size, so compressed containers verify
// the same as raw blobs; xor entries additionally require every listed
// ancestor to be present, because decoding depends on the whole chain.
func verifyDedupRefs(b storage.Backend, dir string) error {
	if !b.Exists(dir + "/" + WeightManifestName) {
		return nil // plain checkpoint: nothing content-addressed to check
	}
	store, err := storeFor(b, dir)
	if err != nil {
		return err
	}
	return walkBlobRefs(b, dir, func(slot string, r blobRef) error {
		meta, err := store.Meta(r.Digest)
		if err != nil {
			return fmt.Errorf("ckpt: %s: %s references missing blob %s: %w", dir, slot, r.Digest, err)
		}
		if meta.RawSize != r.Size {
			return fmt.Errorf("ckpt: %s: %s blob %s holds %d payload bytes, manifest says %d", dir, slot, r.Digest, meta.RawSize, r.Size)
		}
		for _, pd := range r.Parents {
			if !store.Has(pd) {
				return fmt.Errorf("ckpt: %s: %s blob %s: xor parent %s missing", dir, slot, r.Digest, pd)
			}
		}
		return nil
	})
}

// GCReport records what a blob garbage collection did.
type GCReport struct {
	// Mode is "full" (manifest mark-and-sweep plus index validation) or
	// "generational" (journal-driven incremental sweep).
	Mode string
	// DryRun is set when nothing was actually removed.
	DryRun bool
	// Referenced is the number of distinct digests pinned by manifests
	// (full mode) or by the live index and manifest fallbacks
	// (generational mode).
	Referenced int
	// Kept is the number of examined blobs retained.
	Kept int
	// Examined is the number of stored blobs the sweep looked at — every
	// blob for a full sweep, only the retired generations' candidates for
	// a generational one.
	Examined int
	// RemovedBlobs lists swept unreferenced blob digests.
	RemovedBlobs []string
	// RemovedStaging lists deleted blob-staging residue paths.
	RemovedStaging []string
	// BytesFreed totals the removed blobs' sizes.
	BytesFreed int64
	// IndexRecords is the number of journal records considered.
	IndexRecords int
	// IndexRetired lists superseded record files removed.
	IndexRetired []string
	// IndexRepaired lists records rewritten or added from manifests
	// (full mode's index validation).
	IndexRepaired []string
	// IndexStale counts records left pinned that match no published
	// checkpoint (in-flight saves or crash residue; Repair judges them).
	IndexStale int
}

// GC is the full mark-and-sweep policy — the verification and repair path.
// The whole store is the candidate set. The mark re-derives refcounts from
// every manifest under the run root (the ground truth) and unions them with
// the journal's pins (an in-flight save's record precedes its blobs and
// manifests, and must protect them) and every peer run's. Superseded and
// unreadable records pin nothing and are retired — their exclusive digests
// are exactly the garbage the sweep reclaims; orphaned records are counted
// stale but stay pinned. After the sweep the index is fixed from the
// manifests (fixIndex), so the index a generational sweep will trust next
// time agrees with ground truth. A crashed run only leaves extra garbage
// for the next one: references are gathered before the first removal.
func GC(b storage.Backend, runRoot string) (*GCReport, error) { return gcFull(b, runRoot, false) }

// GCDryRun reports what GC would do without mutating anything: the same
// mark, the same sweep accounting, and the records it would retire or
// rebuild.
func GCDryRun(b storage.Backend, runRoot string) (*GCReport, error) { return gcFull(b, runRoot, true) }

func gcFull(b storage.Backend, runRoot string, dryRun bool) (*GCReport, error) {
	rep := &GCReport{Mode: "full", DryRun: dryRun}
	scope, err := openRunScope(b, runRoot)
	if err != nil {
		return nil, err
	}
	dirs, err := collectDirRefs(b, runRoot)
	if err != nil {
		return nil, err
	}
	own := runRefs{dirs: dirs}
	manifestPins, _ := scope.pinsWith(own, pinQuery{})
	rep.Referenced = len(manifestPins)
	query := pinQuery{journal: true, manifests: manifestsAll, peers: true, retiredRecords: map[string]bool{}}
	w, err := scope.sweeper(query, dryRun)
	if err != nil {
		return nil, err
	}
	if !b.Exists(w.store.Root()) {
		return rep, nil // no objects directory: nothing to sweep
	}

	// The audit has read every record; the ones not being retired pin.
	ix := scope.self.ix
	audit, err := auditRefs(ix, dirs)
	if err != nil {
		return nil, err
	}
	rep.IndexRecords = len(audit.records)
	for _, ar := range audit.records {
		if retiredState(ar.state, false) {
			query.retiredRecords[ar.entry.Name] = true
			continue
		}
		if ar.state == RefOrphaned {
			rep.IndexStale++
		}
		if ar.rec != nil {
			own.records = append(own.records, ar.rec)
		}
	}
	pins, err := scope.pinsWith(own, query)
	if err != nil {
		return nil, err
	}

	defer w.fillGC(rep)
	if err := w.sweep(nil, pins); err != nil {
		return rep, err
	}
	rep.IndexRetired, rep.IndexRepaired, err = fixIndex(b, ix, dirs, audit, false, dryRun)
	return rep, err
}

// BlobState classifies one entry of the run root's blob store.
type BlobState int

const (
	// BlobReferenced: at least one committed manifest references it.
	BlobReferenced BlobState = iota
	// BlobUnreferenced: no committed manifest references it (garbage a GC
	// run will sweep — harmless, but storage it would be nice to reclaim).
	BlobUnreferenced
	// BlobStaging: residue of a crashed blob put.
	BlobStaging
	// BlobStray: an entry under objects/ that is neither a valid blob nor
	// staging residue (external mutilation; never touched automatically).
	BlobStray
	// BlobTrashed: provisionally removed by a two-phase sweep that did not
	// finish. Repair (and doctor -fix) restores it when still referenced
	// and purges it otherwise.
	BlobTrashed
)

// String names the state for reports.
func (s BlobState) String() string {
	switch s {
	case BlobReferenced:
		return "referenced"
	case BlobUnreferenced:
		return "unreferenced"
	case BlobStaging:
		return "blob-staging"
	case BlobStray:
		return "stray"
	case BlobTrashed:
		return "trashed"
	}
	return fmt.Sprintf("blob-state(%d)", int(s))
}

// BlobStatus is one scanned blob-store entry.
type BlobStatus struct {
	// Path is the entry's path relative to the backend root.
	Path string
	// Digest is the blob's digest ("" for staging/stray entries).
	Digest string
	// State is the classification.
	State BlobState
	// Size is the entry's byte size when known (-1 otherwise).
	Size int64
	// Refs is the number of manifest references (referenced blobs only).
	Refs int
}

// ScanBlobs classifies every entry of the run root's blob store against
// the committed manifests' references — the blob half of the doctor view.
// A run root without an objects directory yields an empty scan.
func ScanBlobs(b storage.Backend, runRoot string) ([]BlobStatus, error) {
	scope, err := openRunScope(b, runRoot)
	if err != nil {
		return nil, err
	}
	store, err := scope.openStore()
	if err != nil {
		return nil, err
	}
	if !b.Exists(store.Root()) {
		return nil, nil
	}
	// On a hub-attached run the store is shared, so blobs referenced only by
	// peer runs still classify as referenced, not orphan.
	refs, err := scope.pins(pinQuery{manifests: manifestsAll, peers: true}, nil)
	if err != nil {
		return nil, err
	}
	blobs, staging, stray, err := store.List()
	if err != nil {
		return nil, err
	}
	var out []BlobStatus
	for _, blob := range blobs {
		st := BlobStatus{Path: store.Path(blob.Digest), Digest: blob.Digest, Size: blob.Size}
		if n := refs[blob.Digest]; n > 0 {
			st.State, st.Refs = BlobReferenced, n
		} else {
			st.State = BlobUnreferenced
		}
		out = append(out, st)
	}
	for _, p := range staging {
		out = append(out, BlobStatus{Path: p, State: BlobStaging, Size: -1})
	}
	for _, p := range stray {
		out = append(out, BlobStatus{Path: p, State: BlobStray, Size: -1})
	}
	trash, err := store.ListTrash()
	if err != nil {
		return nil, err
	}
	for _, t := range trash {
		out = append(out, BlobStatus{
			Path: store.Root() + "/.trash/" + t.Digest, Digest: t.Digest,
			State: BlobTrashed, Size: t.Size, Refs: refs[t.Digest],
		})
	}
	return out, nil
}

// DedupifyReport records what a checkpoint conversion stored and reused.
type DedupifyReport struct {
	// BlobsPut counts blobs written (new content).
	BlobsPut int
	// BlobsReused counts payloads whose blob already existed.
	BlobsReused int
	// BlobBytesWritten totals bytes of new blobs.
	BlobBytesWritten int64
	// BytesDeduped totals payload bytes that cost nothing (reused blobs).
	BytesDeduped int64
}

// Dedupify converts a committed plain checkpoint to content-addressed form
// in place: every weight-tensor and optimizer-group payload is stored as a
// blob (via the raw extent surface — no decode), the LTSF/LTOS containers
// are replaced by manifests, and the directory is republished under the
// commit protocol, so a crash mid-conversion leaves a committed, readable
// checkpoint at every instant. Already-dedup directories are a no-op.
//
// On a rename-capable backend the directory is re-staged and atomically
// renamed over itself. On a no-rename backend (object stores) the commit
// transaction cannot be reused — Begin clears the final directory, which
// here IS the input — so the conversion publishes in place instead:
//
//  1. manifests are PUT under their final keys as unlisted extras (the
//     commit contract checks only listed files, so the directory stays
//     committed under the old marker);
//  2. one marker PUT atomically swaps the file listing — manifests in,
//     payload containers and manifest.json out (manifest.json must go
//     unlisted so step 3 can rewrite it without a torn window);
//  3. manifest.json is rewritten (Dedup, RefGen) while unlisted;
//  4. a second marker PUT re-lists manifest.json under its new sum;
//  5. the now-unlisted LTSF/LTOS containers are deleted.
//
// A crash between any two steps leaves the directory committed — readers
// see the plain form until step 5 removes model.ltsf, the dedup form after
// — and a re-run converges: before step 5 the plain containers still
// exist, so the whole conversion replays idempotently; after it, the
// IsDedup no-op path sweeps any leftover unlisted shard containers.
func Dedupify(b storage.Backend, dir string, chunkBytes int) (*DedupifyReport, error) {
	rep := &DedupifyReport{}
	if IsDedup(b, dir) {
		if !storage.RenameSupported(b) {
			if err := sweepUnlistedShardFiles(b, dir); err != nil {
				return nil, err
			}
		}
		return rep, nil
	}
	marker, err := ReadCommitMarker(b, dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: dedupify %s: only committed checkpoints convert: %w", dir, err)
	}
	// The conversion is one more feeder of the write stage: it lists the raw
	// extents of the committed containers, hashes them, and lets the stage
	// journal and publish. No codec plan: new blobs stay raw, while dedup
	// hits on coded blobs are journaled and recorded with their lineage like
	// any save's.
	set, err := containerPayloads(b, dir)
	if err == nil {
		err = set.hashAll()
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: dedupify %s: %w", dir, err)
	}
	if storage.RenameSupported(b) {
		// Re-stage the directory: manifests in place of payload containers,
		// every other committed file copied verbatim.
		err = writeStage{
			b: b, dir: dir, dedup: true, journalStep: marker.Step, markerStep: marker.Step,
			trailer: func(sb storage.Backend, staging string, refGen int64) error {
				return copyCommittedExtras(b, sb, dir, staging, marker, len(set.ranks), refGen)
			},
		}.run(set)
	} else {
		var refGen int64
		var store *saveStore
		if store, err = openSaveStore(b, dir); err == nil {
			refGen, err = set.publishBlobs(store, nil, dir, marker.Step, nil)
		}
		if err == nil {
			err = dedupifyInPlace(b, dir, marker, refGen, set)
		}
	}
	if err != nil {
		return nil, err
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

// containerPayloads lists a committed plain checkpoint's payloads as raw
// extents of its LTSF/LTOS containers (no decode), with the headers' CRCs
// carried along for hashAll to verify.
func containerPayloads(b storage.Backend, dir string) (*payloadSet, error) {
	lr, err := OpenLTSF(b, dir+"/model.ltsf")
	if err != nil {
		return nil, err
	}
	// Tensors in payload order, so the manifest order (and any later
	// materialization) matches the original container byte for byte.
	names := lr.Names()
	sort.SliceStable(names, func(i, j int) bool {
		return lr.hdr.Tensors[names[i]].Offsets[0] < lr.hdr.Tensors[names[j]].Offsets[0]
	})
	set := &payloadSet{model: lr.Model()}
	for _, name := range names {
		rt, err := lr.RawTensor(name)
		if err != nil {
			return nil, err
		}
		set.weights = append(set.weights, weightPayload{
			payload: payload{size: rt.Size, crc: rt.CRC32, hasCRC: true,
				write: replay(func() (io.ReadCloser, error) {
					_, rc, err := lr.OpenRaw(name)
					return rc, err
				})},
			name: name, dtype: rt.DType, shape: rt.Shape,
		})
	}
	// Every rank file found, each group extent one payload.
	for rank := 0; ; rank++ {
		name := dir + "/" + ShardFileName(rank)
		if !b.Exists(name) {
			return set, nil
		}
		h, err := ReadShardHeader(b, name)
		if err != nil {
			return nil, err
		}
		payloadOff := h.FileBytes - h.PayloadBytes
		rs := rankPayloads{rank: h.Rank, worldSize: h.WorldSize, step: h.Step, layout: h.Layout}
		for _, g := range h.Groups {
			size := g.Offsets[1] - g.Offsets[0]
			off := payloadOff + g.Offsets[0]
			rs.groups = append(rs.groups, groupPayload{
				payload: payload{size: size, crc: g.CRC32, hasCRC: true,
					write: replay(func() (io.ReadCloser, error) { return b.OpenRange(name, off, size) })},
				meta: g,
			})
		}
		set.ranks = append(set.ranks, rs)
	}
}

// copyCommittedExtras is Dedupify's trailer on rename backends: every
// committed file except the payload containers is copied into staging
// verbatim, manifest.json gaining the dedup flag and the ref generation.
func copyCommittedExtras(b, sb storage.Backend, dir, staging string, marker CommitMarker, ranks int, refGen int64) error {
	skip := map[string]bool{"model.ltsf": true}
	for r := 0; r < ranks; r++ {
		skip[ShardFileName(r)] = true
	}
	names := make([]string, 0, len(marker.Files))
	for name := range marker.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if skip[name] {
			continue
		}
		data, err := b.ReadFile(dir + "/" + name)
		if err != nil {
			return fmt.Errorf("ckpt: dedupify %s: copy %s: %w", dir, name, err)
		}
		if name == "manifest.json" {
			if data, err = dedupManifestJSON(data, refGen); err != nil {
				return fmt.Errorf("ckpt: dedupify %s: %w", dir, err)
			}
		}
		if err := sb.WriteFile(staging+"/"+name, data); err != nil {
			return err
		}
	}
	return nil
}

// dedupManifestJSON re-encodes a converted checkpoint's manifest.json with
// the dedup flag set and its journal generation bound.
func dedupManifestJSON(data []byte, refGen int64) ([]byte, error) {
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("decode manifest.json: %w", err)
	}
	man.Dedup, man.RefGen = true, refGen
	out, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("marshal manifest.json: %w", err)
	}
	return append(out, '\n'), nil
}

// dedupifyInPlace is Dedupify's no-rename publication tail (steps 1–5 of
// the protocol described on Dedupify). The blobs and the ref record are
// already durable when it runs; every individual write here is an atomic
// whole-object PUT, and the directory verifies as committed between any
// two of them.
func dedupifyInPlace(b storage.Backend, dir string, marker CommitMarker, gen int64, set *payloadSet) error {
	// Step 1: PUT the manifests under their final keys. They are not listed
	// in the current marker, so the directory's commit contract is
	// untouched; record their sums for the marker swap.
	rec := newSumBackend(b)
	if err := set.stageManifests(rec, dir); err != nil {
		return fmt.Errorf("ckpt: dedupify %s: %w", dir, err)
	}

	// Step 2: one marker PUT swaps the listing — manifests in, payload
	// containers out. manifest.json goes unlisted too: it must be rewritten
	// (Dedup, RefGen) and a listed file can never change content without a
	// window in which the marker's CRC is wrong.
	drop := map[string]bool{"model.ltsf": true, "manifest.json": true}
	for rank := range set.ranks {
		drop[ShardFileName(rank)] = true
	}
	m2 := CommitMarker{Version: FormatVersion, Step: marker.Step, Files: rec.sumsUnder(dir)}
	for name, sum := range marker.Files {
		if !drop[name] {
			m2.Files[name] = sum
		}
	}
	if err := writeJSON(b, dir+"/"+CommitMarkerName, &m2); err != nil {
		return fmt.Errorf("ckpt: dedupify %s: swap marker: %w", dir, err)
	}

	// Step 3: rewrite manifest.json while unlisted.
	mdata, err := b.ReadFile(dir + "/manifest.json")
	if err != nil {
		return fmt.Errorf("ckpt: dedupify %s: read manifest.json: %w", dir, err)
	}
	newMan, err := dedupManifestJSON(mdata, gen)
	if err != nil {
		return fmt.Errorf("ckpt: dedupify %s: %w", dir, err)
	}
	if err := b.WriteFile(dir+"/manifest.json", newMan); err != nil {
		return fmt.Errorf("ckpt: dedupify %s: rewrite manifest.json: %w", dir, err)
	}

	// Step 4: re-list manifest.json under its new sum.
	m2.Files["manifest.json"] = FileSum{Size: int64(len(newMan)), CRC32: crc32.ChecksumIEEE(newMan)}
	if err := writeJSON(b, dir+"/"+CommitMarkerName, &m2); err != nil {
		return fmt.Errorf("ckpt: dedupify %s: reseal marker: %w", dir, err)
	}

	// Step 5: drop the now-unlisted payload containers. model.ltsf first —
	// its disappearance is what flips readers to the dedup form.
	if err := b.Remove(dir + "/model.ltsf"); err != nil && !storage.IsNotExist(err) {
		return fmt.Errorf("ckpt: dedupify %s: remove model.ltsf: %w", dir, err)
	}
	for rank := range set.ranks {
		if err := b.Remove(dir + "/" + ShardFileName(rank)); err != nil && !storage.IsNotExist(err) {
			return fmt.Errorf("ckpt: dedupify %s: remove %s: %w", dir, ShardFileName(rank), err)
		}
	}
	return nil
}

// sweepUnlistedShardFiles removes LTOS containers a crashed no-rename
// conversion left behind after its marker swap (they are unlisted extras —
// harmless to readers, but dead weight). Listed shard files are never
// touched.
func sweepUnlistedShardFiles(b storage.Backend, dir string) error {
	marker, err := ReadCommitMarker(b, dir)
	if err != nil {
		return nil // not committed: nothing to judge against
	}
	// The crashed conversion may have removed some ranks' containers
	// already, so missing files cannot end the scan — walk every rank the
	// dedup form manifests, which is exactly the set the conversion was
	// deleting when it died.
	for _, rank := range shardManifestRanks(b, dir) {
		name := ShardFileName(rank)
		if !b.Exists(dir + "/" + name) {
			continue
		}
		if _, listed := marker.Files[name]; listed {
			continue
		}
		if err := b.Remove(dir + "/" + name); err != nil {
			return fmt.Errorf("ckpt: dedupify %s: sweep %s: %w", dir, name, err)
		}
	}
	return nil
}
