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
//
// Reading a dedup checkpoint is the read stage's job (read.go) and writing
// one the write stage's (write.go), like a plain one; this file keeps the
// layout's own store, GC and scan.

package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"strings"

	"llmtailor/internal/storage"
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

// verifyDedupRefs checks that every blob a dedup checkpoint references
// exists with the manifest's exact payload size — the cheap half of
// reference integrity Scan runs on committed dedup directories (content
// digests are verified by readers and materialization). Sizes compare
// against the blob's decoded (raw) size, so compressed containers verify
// the same as raw blobs; xor entries additionally require every listed
// ancestor to be present, because decoding depends on the whole chain.
func verifyDedupRefs(e *entry) error {
	if !e.layout().blobs {
		// Plain, or manifests beside a weight container, which no reader
		// consults.
		return nil
	}
	store, err := e.c.store()
	if err != nil {
		return err
	}
	dir := e.Path
	return e.manifestFiles().walk(func(slot string, r blobRef) error {
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
func GC(b storage.Backend, runRoot string) (*GCReport, error) {
	return withCatalog(b, runRoot, func(c *catalog) (*GCReport, error) { return gcFull(c, false) })
}

// GCDryRun reports what GC would do without mutating anything: the same
// mark, the same sweep accounting, and the records it would retire or
// rebuild.
func GCDryRun(b storage.Backend, runRoot string) (*GCReport, error) {
	return withCatalog(b, runRoot, func(c *catalog) (*GCReport, error) { return gcFull(c, true) })
}

func gcFull(c *catalog, dryRun bool) (*GCReport, error) {
	rep := &GCReport{Mode: "full", DryRun: dryRun}
	scope, err := c.scope()
	if err != nil {
		return nil, err
	}
	own, err := scope.self.load(c.b, pinQuery{manifests: manifestsAll}, nil)
	if err != nil {
		return nil, err
	}
	manifestPins, _ := scope.pinsWith(own, pinQuery{})
	rep.Referenced = len(manifestPins)
	query := pinQuery{journal: true, manifests: manifestsAll, peers: true, retiredRecords: map[string]bool{}}
	w, err := scope.sweeper(query, dryRun)
	if err != nil {
		return nil, err
	}
	if !c.b.Exists(w.store.Root()) {
		return rep, nil // no objects directory: nothing to sweep
	}

	// The audit has read every record; the ones not being retired pin.
	ix := scope.self.ix
	audit, err := auditRefs(ix, c)
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
	rep.IndexRetired, rep.IndexRepaired, err = fixIndex(ix, audit, false, dryRun)
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
	return withCatalog(b, runRoot, scanBlobs)
}

// scanBlobs is the blob view of the doctor.
func scanBlobs(c *catalog) ([]BlobStatus, error) {
	b := c.b
	scope, err := c.scope()
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
			Path: store.TrashPath(t.Digest), Digest: t.Digest,
			State: BlobTrashed, Size: t.Size, Refs: refs[t.Digest],
		})
	}
	return out, nil
}

// DedupifyReport records what content-addressing a merge, blend or reshard
// output (Txn.Publish) stored and reused.
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
