// Incremental, generational blob reference maintenance.
//
// PR 4's GC derived blob refcounts by re-reading every committed manifest
// under the run root — O(run length) per sweep, the exact cost that grows
// without bound over a long training run. This file makes reference
// maintenance per-save bookkeeping instead: every content-addressed save
// appends one compact record (digest set + generation number) to the
// journaled ref index under `objects/refs/` *before* the first blob is
// published, so at any instant the union of journal records over-
// approximates the set of referenced blobs — including blobs of saves
// still in flight, whose manifests exist nowhere yet.
//
// Generation numbering: a run-wide save counter, one per journal append.
// The checkpoint's manifest.json records its generation (`ref_gen`), which
// binds a published directory to exactly one journal record; an older
// record for the same key (a checkpoint replaced in place) is thereby
// provably superseded, and its exclusive digests are exactly the blobs
// whose youngest reference died with it.
//
// Sweeping comes in two modes:
//
//   - GCGenerational examines only blobs whose youngest reference falls in
//     the generations being retired (superseded records, or checkpoints a
//     retention policy just dropped): candidate digests come from the
//     retired records, survivors are whatever any remaining record (or
//     recordless directory manifest) still pins. Cost is O(retired
//     generations + live index), independent of run length, and it never
//     lists the blob store.
//   - GC (full) keeps the old whole-history mark-and-sweep as the
//     verification and repair path: refcounts are re-derived from every
//     manifest, the whole store is swept against them, and the ref index
//     is validated against the manifests (divergent or missing records are
//     rewritten, superseded ones retired, stale ones reported).
//
// The index is bookkeeping, never ground truth: if it is missing, stale or
// corrupt, ReconcileRefIndex (run by Repair, and by `doctor -fix`) rebuilds
// it from the manifests. Losing the index can cost reclaim work — a pinned
// blob kept too long — never a referenced blob.
package ckpt

import (
	"fmt"
	"sort"
	"strings"

	"llmtailor/internal/storage"
)

// RefKey returns a checkpoint directory's journal key: its base name.
func RefKey(dir string) string {
	if i := strings.LastIndexByte(dir, '/'); i >= 0 {
		return dir[i+1:]
	}
	return dir
}

// refIndexFor opens the run root's ref index, following a hub attachment:
// an attached run journals under the hub store's `refs/<run-id>/`
// namespace, an unattached one under its own `objects/refs/`.
func refIndexFor(b storage.Backend, runRoot string) (*storage.RefIndex, error) {
	return storage.OpenRefIndex(b, objectsPath(runRoot))
}

// appendRefRecord journals the digest set of a save that is about to
// publish blobs. It must run before the first blob put: the record is what
// pins a mid-save blob against a concurrent sweep, because the manifests
// that will reference it exist nowhere until the commit.
//
// The append is idempotent per save content: when the journal already
// holds a record with this key and exactly this digest set (a retried save
// after a crash, or a replay of an identical state), its generation is
// reused and nothing is written — so a retried save produces a checkpoint
// byte-identical to the fault-free one, manifest ref_gen included.
func appendRefRecord(b storage.Backend, finalDir string, step int, digests []string) (int64, error) {
	ix, err := storage.OpenRefIndex(b, ObjectsRoot(finalDir))
	if err != nil {
		return 0, err
	}
	key := RefKey(finalDir)
	entries, _, _, err := ix.Entries()
	if err != nil {
		return 0, err
	}
	var maxGen int64
	want := storage.NormalizeDigests(append([]string(nil), digests...))
	reuse := int64(0)
	for _, e := range entries {
		if e.Generation > maxGen {
			maxGen = e.Generation
		}
		if e.Key != key {
			continue
		}
		if rec, err := ix.Read(e); err == nil && digestsEqual(rec.Digests, want) && e.Generation > reuse {
			reuse = e.Generation
		}
	}
	if reuse > 0 {
		return reuse, nil
	}
	gen := maxGen + 1
	rec := &storage.RefRecord{
		Version: FormatVersion, Key: key, Step: step,
		Generation: gen, Digests: want,
	}
	if err := ix.Append(rec); err != nil {
		return 0, err
	}
	return gen, nil
}

// --- manifest-side reference collection (ground truth) ---------------------

// dirRefs describes one run-root directory's dedup references, collected
// from its manifests — the ground truth the ref index is bookkeeping for.
type dirRefs struct {
	Path string
	// Key is the journal key: the base name with the staging suffix
	// stripped (an in-flight `K.tmp` tree journals under K).
	Key         string
	Sealed      bool // commit marker verifies (committed or unpublished)
	Staging     bool
	Quarantined bool
	// Dedup is true when the directory carries a weight manifest.
	Dedup bool
	// RefGen is the generation manifest.json binds the directory to
	// (0 = unbound: pre-ref-index checkpoint, or manifest unreadable).
	RefGen int64
	// Digests are the blob references read from the manifests (sorted,
	// with repeats for multiply-referenced digests).
	Digests []string
}

// readDirManifestDigests reads every blob digest a directory's manifests
// keep alive — referenced blobs plus their xor-parent ancestor chains
// (PinDigests): sweeping an ancestor would corrupt every delta blob below
// it, so pinning is always transitive. With bestEffort set, unreadable
// manifests contribute nothing instead of failing — the right treatment for
// quarantined, torn and mid-write staging trees, which may be arbitrarily
// damaged.
func readDirManifestDigests(b storage.Backend, path string, bestEffort bool) ([]string, error) {
	if !b.Exists(path + "/" + WeightManifestName) {
		return nil, nil
	}
	var out []string
	wm, err := ReadWeightManifest(b, path+"/"+WeightManifestName)
	if err != nil {
		if bestEffort {
			return nil, nil
		}
		return nil, err
	}
	out = append(out, wm.PinDigests()...)
	for _, r := range shardManifestRanks(b, path) {
		sm, err := ReadShardManifest(b, path+"/"+ShardManifestName(r))
		if err != nil {
			if bestEffort {
				continue
			}
			return nil, err
		}
		out = append(out, sm.PinDigests()...)
	}
	return out, nil
}

// listRunRoot lists a run root, treating an absent root as empty — a GC
// or audit racing the very first save of a run must see "nothing yet",
// not an error.
func listRunRoot(b storage.Backend, runRoot string) ([]string, error) {
	if runRoot != "" && !b.Exists(runRoot) {
		return nil, nil
	}
	entries, err := b.List(runRoot)
	if err != nil {
		if runRoot == "" {
			return nil, nil // an empty backend root lists as missing on OS
		}
		return nil, err
	}
	return entries, nil
}

// collectDirRefs walks the run root once and returns every directory's
// reference view. Committed directories with unreadable manifests are an
// error (external mutilation should be loud); staging, torn and
// quarantined directories are read best-effort — over-approximating their
// references is safe for GC, under-reading them is not, so whatever is
// readable pins.
func collectDirRefs(b storage.Backend, runRoot string) ([]dirRefs, error) {
	entries, err := listRunRoot(b, runRoot)
	if err != nil {
		return nil, fmt.Errorf("ckpt: blob refs: %w", err)
	}
	var out []dirRefs
	for _, e := range entries {
		if !strings.HasSuffix(e, "/") {
			continue
		}
		name := strings.TrimSuffix(e, "/")
		if name == ObjectsDirName {
			continue
		}
		path := name
		if runRoot != "" {
			path = runRoot + "/" + name
		}
		d := dirRefs{Path: path, Key: name}
		switch {
		case IsQuarantinePath(name):
			d.Quarantined = true
		case IsStagingPath(name):
			d.Staging = true
			d.Key = strings.TrimSuffix(name, stagingSuffix)
			d.Sealed = VerifyCommit(b, path) == nil
		default:
			d.Sealed = CheckCommit(b, path) == nil
		}
		// Sealed, non-staging directories must account exactly; everything
		// else (torn, quarantined, mid-write staging) pins best-effort.
		bestEffort := !d.Sealed || d.Staging || d.Quarantined
		d.Dedup = b.Exists(path + "/" + WeightManifestName)
		if man, err := ReadManifest(b, path); err == nil {
			d.RefGen = man.RefGen
		}
		digests, err := readDirManifestDigests(b, path, bestEffort)
		if err != nil {
			return nil, fmt.Errorf("ckpt: blob refs: %w", err)
		}
		d.Digests = digests
		out = append(out, d)
	}
	return out, nil
}

// BlobRefs derives the blob refcount map of a run root from its checkpoint
// manifests: committed directories, staging trees (sealed or not — a
// concurrent save's staged manifests must pin its blobs until the commit
// decides their fate), torn directories awaiting Repair, and quarantined
// directories (preserved evidence stays readable). Over-approximation is
// always safe for GC; the collection stays O(manifest bytes).
//
// This is the whole-history ground-truth read that the ref index exists to
// avoid on the hot path; GC (full) uses it for verification, the
// generational paths read the journal instead.
func BlobRefs(b storage.Backend, runRoot string) (map[string]int, error) {
	dirs, err := collectDirRefs(b, runRoot)
	if err != nil {
		return nil, err
	}
	refs := map[string]int{}
	for _, d := range dirs {
		for _, dg := range d.Digests {
			refs[dg]++
		}
	}
	return refs, nil
}

// --- index audit -----------------------------------------------------------

// RefState classifies one ref-index record (or index-related problem).
type RefState int

const (
	// RefOK: the record is bound to a live directory and agrees with it.
	RefOK RefState = iota
	// RefSuperseded: an older generation of a live key — the checkpoint was
	// replaced in place; the record's exclusive digests are reclaimable by
	// a generational sweep.
	RefSuperseded
	// RefOrphaned: no matching directory, or a generation newer than the
	// published one. Either an in-flight save (its directory does not exist
	// *yet*) or residue of a crashed one — indistinguishable online, so
	// sweeps pin these and only quiescent repair removes them.
	RefOrphaned
	// RefDivergent: the bound record's digest set fails to cover the
	// directory's manifests (external mutilation or a lost update); the
	// manifests win and the record is rewritten from them. A record that
	// pins MORE than the manifests is healthy, not divergent: a save
	// journals the xor-parent chains it plans before publishing, and a
	// payload may land raw (incompressible) after its planned parents were
	// already journaled — over-pinning that only a generation retirement
	// reclaims.
	RefDivergent
	// RefCorrupt: the record file is unreadable or self-inconsistent.
	RefCorrupt
	// RefMissing: a sealed dedup directory has no readable record — the
	// index under-approximates and must be reconciled before a generational
	// sweep can trust it (manifest fallbacks keep the blobs safe meanwhile).
	RefMissing
	// RefStaging: residue of a crashed record append.
	RefStaging
)

// String names the state for reports.
func (s RefState) String() string {
	switch s {
	case RefOK:
		return "ref-ok"
	case RefSuperseded:
		return "ref-superseded"
	case RefOrphaned:
		return "ref-orphaned"
	case RefDivergent:
		return "ref-divergent"
	case RefCorrupt:
		return "ref-corrupt"
	case RefMissing:
		return "ref-missing"
	case RefStaging:
		return "ref-staging"
	}
	return fmt.Sprintf("ref-state(%d)", int(s))
}

// RefStatus is one audited ref-index finding.
type RefStatus struct {
	// Path is the record file (or, for RefMissing, the checkpoint
	// directory) relative to the backend root.
	Path string
	// Key is the journal key involved.
	Key string
	// Generation is the record's generation (0 for RefMissing/RefStaging).
	Generation int64
	// State is the classification.
	State RefState
	// Detail explains non-OK states.
	Detail string
}

// auditedRecord pairs a journal entry with its classification.
type auditedRecord struct {
	entry  storage.RefEntry
	rec    *storage.RefRecord // nil when unreadable
	state  RefState
	detail string
}

// refAudit is the full classification of a run root's ref index against
// its directories' manifests.
type refAudit struct {
	records []auditedRecord
	staging []string // residue file names inside the refs dir
	// missing lists sealed dedup directories with no usable record.
	missing []dirRefs
}

// digestsCover reports whether set a pins every digest of set b (a ⊇ b).
// A record covering more than the manifests require is healthy — planned
// xor parents whose puts fell back to raw stay journaled — but a record
// missing manifest digests under-pins and must be rewritten.
func digestsCover(a, b []string) bool {
	have := map[string]bool{}
	for _, d := range storage.NormalizeDigests(append([]string(nil), a...)) {
		have[d] = true
	}
	for _, d := range storage.NormalizeDigests(append([]string(nil), b...)) {
		if !have[d] {
			return false
		}
	}
	return true
}

// digestsEqual compares two reference lists as sets.
func digestsEqual(a, b []string) bool {
	as := storage.NormalizeDigests(append([]string(nil), a...))
	bs := storage.NormalizeDigests(append([]string(nil), b...))
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// auditRefs classifies every journal record against the directories'
// manifest ground truth (as collected by collectDirRefs).
func auditRefs(b storage.Backend, runRoot string, dirs []dirRefs) (*refAudit, error) {
	ix, err := refIndexFor(b, runRoot)
	if err != nil {
		return nil, err
	}
	entries, staging, _, err := ix.Entries()
	if err != nil {
		return nil, err
	}
	byKey := map[string][]dirRefs{}
	for _, d := range dirs {
		byKey[d.Key] = append(byKey[d.Key], d)
	}
	audit := &refAudit{staging: staging}
	covered := map[string]bool{} // keys with a usable (OK) record
	for _, e := range entries {
		ar := auditedRecord{entry: e}
		rec, err := ix.Read(e)
		switch {
		case err != nil:
			ar.state, ar.detail = RefCorrupt, err.Error()
		default:
			ar.rec = rec
			ds, live := byKey[e.Key]
			if !live {
				ar.state = RefOrphaned
				ar.detail = "no matching checkpoint directory (in-flight save, or stale after a crash)"
				break
			}
			var bound int64
			var boundDir *dirRefs
			for i := range ds {
				if ds[i].RefGen == e.Generation {
					boundDir = &ds[i]
				}
				if ds[i].RefGen > bound {
					bound = ds[i].RefGen
				}
			}
			switch {
			case boundDir != nil:
				if boundDir.Sealed && !boundDir.Staging && !digestsCover(rec.Digests, boundDir.Digests) {
					ar.state = RefDivergent
					ar.detail = fmt.Sprintf("record fails to cover the manifests of %s", boundDir.Path)
				} else {
					ar.state = RefOK
					covered[e.Key] = true
				}
			case bound > 0 && e.Generation < bound:
				ar.state = RefSuperseded
				ar.detail = fmt.Sprintf("generation %d replaced by %d", e.Generation, bound)
			case bound > 0 && e.Generation > bound:
				ar.state = RefOrphaned
				ar.detail = fmt.Sprintf("generation %d newer than the published %d (in-flight replace, or crashed before commit)", e.Generation, bound)
			default:
				// The directory is unbound (pre-ref-index checkpoint, or a
				// mid-write tree without a manifest yet): no proof either
				// way, so the record pins and the key counts as covered
				// when the digest sets agree. Exception: when every
				// directory under the key is a sealed plain checkpoint,
				// nothing it stores can reference a blob, so the record is
				// an in-flight dedup conversion's advance pin or residue of
				// a crashed one — sweeps still honor it, quiescent repair
				// retires it.
				if allSealedPlain(ds) {
					ar.state = RefOrphaned
					ar.detail = "record over a sealed plain directory (in-flight dedup conversion, or stale after a crashed one)"
				} else if digestsCover(rec.Digests, dirRefsetOf(ds)) {
					ar.state = RefOK
					covered[e.Key] = true
				} else {
					ar.state = RefOrphaned
					ar.detail = "directory carries no generation binding (pre-ref-index checkpoint)"
				}
			}
		}
		audit.records = append(audit.records, ar)
	}
	for _, d := range dirs {
		if d.Dedup && d.Sealed && !d.Staging && !d.Quarantined && !covered[d.Key] {
			audit.missing = append(audit.missing, d)
		}
	}
	return audit, nil
}

// allSealedPlain reports whether every directory view of one key is a
// sealed, non-dedup checkpoint in its final location — a tree that by
// construction references no blob.
func allSealedPlain(ds []dirRefs) bool {
	for i := range ds {
		if ds[i].Dedup || ds[i].Staging || ds[i].Quarantined || !ds[i].Sealed {
			return false
		}
	}
	return len(ds) > 0
}

// dirRefsetOf returns the union digest list over directory views of one key.
func dirRefsetOf(ds []dirRefs) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.Digests...)
	}
	return out
}

// ScanRefs audits the run root's ref index against its manifests — the
// index half of the doctor view. A run root without an index (or without
// an objects store at all) yields findings only for unrecorded dedup
// directories.
func ScanRefs(b storage.Backend, runRoot string) ([]RefStatus, error) {
	dirs, err := collectDirRefs(b, runRoot)
	if err != nil {
		return nil, err
	}
	audit, err := auditRefs(b, runRoot, dirs)
	if err != nil {
		return nil, err
	}
	ix, err := refIndexFor(b, runRoot)
	if err != nil {
		return nil, err
	}
	var out []RefStatus
	for _, ar := range audit.records {
		out = append(out, RefStatus{
			Path: ix.Dir() + "/" + ar.entry.Name, Key: ar.entry.Key,
			Generation: ar.entry.Generation, State: ar.state, Detail: ar.detail,
		})
	}
	for _, name := range audit.staging {
		out = append(out, RefStatus{
			Path: ix.Dir() + "/" + name, State: RefStaging,
			Detail: "residue of a crashed record append",
		})
	}
	for _, d := range audit.missing {
		out = append(out, RefStatus{
			Path: d.Path, Key: d.Key, State: RefMissing,
			Detail: "dedup checkpoint without a ref record (doctor -fix rebuilds the index)",
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// --- reconcile (rebuild-from-manifests) ------------------------------------

// RefReconcileReport records what a reconcile pass changed.
type RefReconcileReport struct {
	// RemovedRecords lists retired record files (orphaned, superseded,
	// corrupt, divergent-before-rewrite).
	RemovedRecords []string
	// WrittenRecords lists records appended or rewritten from manifests.
	WrittenRecords []string
	// StagingRemoved lists deleted append-staging residue.
	StagingRemoved []string
}

// Changed reports whether the pass modified anything.
func (r *RefReconcileReport) Changed() bool {
	return len(r.RemovedRecords)+len(r.WrittenRecords)+len(r.StagingRemoved) > 0
}

// ReconcileRefIndex rebuilds the ref index from the manifests: missing and
// divergent records of sealed dedup directories are (re)written, orphaned,
// superseded and corrupt records are removed, and append residue is
// cleaned. Like Repair — which runs it — reconcile assumes quiescence: an
// in-flight save's record is indistinguishable from a crashed one's, so
// only run this when no saver is active (the worst outcome of breaking the
// rule is a committed checkpoint whose record must be rebuilt again — the
// manifests always win, no blob is lost).
func ReconcileRefIndex(b storage.Backend, runRoot string) (*RefReconcileReport, error) {
	dirs, err := collectDirRefs(b, runRoot)
	if err != nil {
		return nil, err
	}
	audit, err := auditRefs(b, runRoot, dirs)
	if err != nil {
		return nil, err
	}
	ix, err := refIndexFor(b, runRoot)
	if err != nil {
		return nil, err
	}
	rep := &RefReconcileReport{}
	for _, name := range audit.staging {
		if err := ix.RemoveStaging(name); err != nil {
			return rep, err
		}
		rep.StagingRemoved = append(rep.StagingRemoved, name)
	}
	byPath := map[string]dirRefs{}
	for _, d := range dirs {
		byPath[d.Path] = d
	}
	for _, ar := range audit.records {
		switch ar.state {
		case RefOK:
			continue
		case RefDivergent:
			// The manifests win: rewrite the record in place (same
			// generation and key, corrected digest set).
			d, ok := findBound(dirs, ar.entry)
			if !ok {
				continue
			}
			if err := writeRecordFrom(b, ix, ar.entry.Key, ar.entry.Generation, d); err != nil {
				return rep, err
			}
			rep.WrittenRecords = append(rep.WrittenRecords, ar.entry.Name)
		default:
			if err := ix.Remove(ar.entry); err != nil {
				return rep, err
			}
			rep.RemovedRecords = append(rep.RemovedRecords, ar.entry.Name)
		}
	}
	// Recompute coverage after removals, then write records for sealed
	// dedup directories that lost (or never had) one. Bound directories
	// keep their manifest generation; unbound (pre-ref-index) ones get a
	// fresh generation — their manifests cannot be rewritten under a sealed
	// marker, so they stay unbound and conservatively pinned.
	for _, d := range audit.missing {
		if err := writeRecordFrom(b, ix, d.Key, d.RefGen, d); err != nil {
			return rep, err
		}
		rep.WrittenRecords = append(rep.WrittenRecords, d.Key)
	}
	return rep, nil
}

// writeRecordFrom (re)writes a sealed directory's journal record from its
// manifests — the manifests always win. gen <= 0 allocates the next
// generation (an unbound, pre-ref-index directory).
func writeRecordFrom(b storage.Backend, ix *storage.RefIndex, key string, gen int64, d dirRefs) error {
	if gen <= 0 {
		var err error
		if gen, err = ix.NextGeneration(); err != nil {
			return err
		}
	}
	return ix.Append(&storage.RefRecord{
		Version: FormatVersion, Key: key, Step: stepOf(b, d.Path),
		Generation: gen, Digests: d.Digests,
	})
}

// findBound returns the directory view a record's generation binds to.
func findBound(dirs []dirRefs, e storage.RefEntry) (dirRefs, bool) {
	for _, d := range dirs {
		if d.Key == e.Key && d.RefGen == e.Generation {
			return d, true
		}
	}
	return dirRefs{}, false
}

// stepOf recovers a directory's step for record bookkeeping (best effort).
func stepOf(b storage.Backend, path string) int {
	if man, err := ReadManifest(b, path); err == nil {
		return man.Step
	}
	return 0
}

// --- generational sweep ----------------------------------------------------

// livePins reads the given journal entries and returns the digest counts
// they pin, falling back to manifests for safety: any run-root directory
// whose key is not covered by a successfully read entry — a recordless
// dedup checkpoint, a corrupt record's directory, a quarantined tree, a
// pre-ref-index staging tree — contributes its readable manifest digests
// instead. Under-pinning is the one unforgivable failure here, so every
// fallback over-approximates.
func livePins(b storage.Backend, runRoot string, pinEnts []storage.RefEntry) (map[string]int, error) {
	ix, err := refIndexFor(b, runRoot)
	if err != nil {
		return nil, err
	}
	pins := map[string]int{}
	covered := map[string]bool{}
	for _, e := range pinEnts {
		rec, err := ix.Read(e)
		if err != nil {
			continue // corrupt: its directory (if any) is pinned below
		}
		covered[e.Key] = true
		for _, d := range rec.Digests {
			pins[d]++
		}
	}
	entries, err := listRunRoot(b, runRoot)
	if err != nil {
		return nil, fmt.Errorf("ckpt: live pins: %w", err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e, "/") {
			continue
		}
		name := strings.TrimSuffix(e, "/")
		if name == ObjectsDirName {
			continue
		}
		key := strings.TrimSuffix(name, stagingSuffix)
		if covered[key] && !IsQuarantinePath(name) {
			continue
		}
		path := name
		if runRoot != "" {
			path = runRoot + "/" + name
		}
		digests, err := readDirManifestDigests(b, path, true)
		if err != nil {
			return nil, err
		}
		for _, d := range digests {
			pins[d]++
		}
	}
	return pins, nil
}

// indexRecheck returns the RecheckFunc the two-phase sweeps use: it
// re-reads the journal *after* candidates were trashed and returns the
// fresh pin set, skipping the entries (by file name) the sweep itself
// retired. Any record appended since the original pin snapshot — a
// concurrent save that reused a candidate blob — is seen here, because
// savers journal before their reuse check (see SweepRecheck's proof).
// On a hub-attached run every peer run's journal is re-read too: a save
// racing in another attached run journals against the same shared store
// and must be able to rescue a trashed candidate exactly like a local one.
func indexRecheck(b storage.Backend, runRoot string, exclude map[string]bool) storage.RecheckFunc {
	return func([]string) (map[string]int, error) {
		pins, err := journalPins(b, runRoot, exclude)
		if err != nil {
			return nil, err
		}
		peers, err := hubPeers(b, runRoot)
		if err != nil {
			return nil, err
		}
		for _, p := range peers {
			pp, err := journalPins(b, p.Root, nil)
			if err != nil {
				return nil, err
			}
			mergePins(pins, pp)
		}
		return pins, nil
	}
}

// handleTrash disposes of trash left by a sweep that crashed between
// trash and purge: referenced blobs (per the given pins) are restored,
// the rest purged. Returns (restored, purged).
func handleTrash(store storage.CAS, pins map[string]int) (restored, purged []string, err error) {
	trash, err := store.ListTrash()
	if err != nil {
		return nil, nil, err
	}
	for _, t := range trash {
		if pins[t.Digest] > 0 {
			if err := store.Restore(t.Digest); err != nil {
				return restored, purged, fmt.Errorf("ckpt: restore trashed blob %s: %w", t.Digest, err)
			}
			restored = append(restored, t.Digest)
		} else {
			if err := store.PurgeTrash(t.Digest); err != nil {
				return restored, purged, fmt.Errorf("ckpt: purge trashed blob %s: %w", t.Digest, err)
			}
			purged = append(purged, t.Digest)
		}
	}
	return restored, purged, nil
}

// GCGenerational is the incremental sweep: it retires provably superseded
// journal records (a checkpoint replaced in place binds its directory to a
// newer generation via manifest ref_gen) and removes exactly the retired
// records' digests that nothing live still pins. It reads the journal and
// one run-root listing — never the store fan-out, never the full manifest
// history — so its cost is O(retired generations + live index), not O(run
// length). Orphaned records (no matching directory) are pinned, not
// retired: an in-flight save looks exactly like that, and only quiescent
// repair may judge it.
//
// With dryRun set the sweep is computed and candidates are examined, but
// no blob or record is removed.
func GCGenerational(b storage.Backend, runRoot string, dryRun bool) (*GCReport, error) {
	rep := &GCReport{Mode: "generational", DryRun: dryRun}
	ix, err := refIndexFor(b, runRoot)
	if err != nil {
		return nil, err
	}
	entries, staging, _, err := ix.Entries()
	if err != nil {
		return nil, err
	}
	rep.IndexRecords = len(entries)

	// One run-root listing decides key liveness; manifest.json is read only
	// for keys with churn (more than one record), keeping the scan cost
	// O(index), not O(run length).
	rootEntries, err := listRunRoot(b, runRoot)
	if err != nil {
		return nil, fmt.Errorf("ckpt: gc: %w", err)
	}
	liveDir := map[string]string{} // key -> published (non-staging) path
	liveKey := map[string]bool{}
	for _, e := range rootEntries {
		if !strings.HasSuffix(e, "/") {
			continue
		}
		name := strings.TrimSuffix(e, "/")
		if name == ObjectsDirName {
			continue
		}
		path := name
		if runRoot != "" {
			path = runRoot + "/" + name
		}
		key := strings.TrimSuffix(name, stagingSuffix)
		liveKey[key] = true
		liveKey[name] = true
		if key == name {
			liveDir[key] = path
		}
	}

	byKey := map[string][]storage.RefEntry{}
	for _, e := range entries {
		byKey[e.Key] = append(byKey[e.Key], e)
	}
	var pinned, retired []storage.RefEntry
	for key, ents := range byKey {
		if !liveKey[key] {
			// No directory: in-flight save or crash residue — pinned.
			pinned = append(pinned, ents...)
			continue
		}
		path, published := liveDir[key]
		if !published || len(ents) == 1 {
			pinned = append(pinned, ents...)
			continue
		}
		var bound int64
		if man, err := ReadManifest(b, path); err == nil {
			bound = man.RefGen
		}
		if bound <= 0 {
			pinned = append(pinned, ents...)
			continue
		}
		for _, e := range ents {
			if e.Generation < bound {
				retired = append(retired, e)
			} else {
				pinned = append(pinned, e)
			}
		}
	}

	// Candidate digests: whatever the retired generations referenced.
	var candidates []string
	var retiredReadable []storage.RefEntry
	for _, e := range retired {
		rec, err := ix.Read(e)
		if err != nil {
			// Unreadable superseded record: it pins nothing and names
			// nothing reclaimable; drop the file, full GC owns its blobs.
			retiredReadable = append(retiredReadable, e)
			continue
		}
		candidates = append(candidates, rec.Digests...)
		retiredReadable = append(retiredReadable, e)
	}
	candidates = storage.NormalizeDigests(candidates)

	// The dry run reports what a real sweep would retire; only the real
	// run actually removes the record files (below, after the blob sweep).
	retiredName := map[string]bool{}
	for _, e := range retiredReadable {
		rep.IndexRetired = append(rep.IndexRetired, e.Name)
		retiredName[e.Name] = true
	}

	store, err := storage.OpenCAS(b, objectsPath(runRoot))
	if err != nil {
		return nil, err
	}
	if len(candidates) > 0 {
		pins, err := livePins(b, runRoot, pinned)
		if err != nil {
			return rep, err
		}
		// Union-pin rule: on a hub-attached run the candidates live in a
		// shared store, so every peer run's references pin too.
		hp, err := peerPins(b, runRoot)
		if err != nil {
			return rep, err
		}
		mergePins(pins, hp)
		rep.Referenced = len(pins)
		sw, err := store.SweepDigests(candidates, pins, dryRun, indexRecheck(b, runRoot, retiredName))
		if sw != nil {
			rep.Examined = sw.Examined
			rep.Kept = sw.Kept
			rep.RemovedBlobs = sw.RemovedBlobs
			rep.BytesFreed = sw.BytesFreed
		}
		if err != nil {
			return rep, err
		}
	}
	if !dryRun {
		for _, e := range retiredReadable {
			if err := ix.Remove(e); err != nil {
				return rep, err
			}
		}
		// Trash left by a crashed earlier sweep: restore what the index
		// still pins, purge the rest.
		if trash, _ := store.ListTrash(); len(trash) > 0 {
			pins, err := indexRecheck(b, runRoot, retiredName)(nil)
			if err != nil {
				return rep, err
			}
			// Manifest fallbacks pin too (recordless dirs), as do all peer
			// runs of a hub-attached store.
			fallback, err := livePins(b, runRoot, nil)
			if err != nil {
				return rep, err
			}
			mergePins(pins, fallback)
			hp, err := peerPins(b, runRoot)
			if err != nil {
				return rep, err
			}
			mergePins(pins, hp)
			if _, purged, err := handleTrash(store, pins); err != nil {
				return rep, err
			} else {
				rep.RemovedBlobs = append(rep.RemovedBlobs, purged...)
			}
		}
		// Crash residue cleanup that needs no store listing: blob staging
		// files and record-append staging files.
		residue, err := store.StagingResidue()
		if err != nil {
			return rep, err
		}
		for _, p := range residue {
			if err := b.Remove(p); err != nil {
				return rep, fmt.Errorf("ckpt: gc: remove blob staging %s: %w", p, err)
			}
			rep.RemovedStaging = append(rep.RemovedStaging, p)
		}
		for _, name := range staging {
			if err := ix.RemoveStaging(name); err != nil {
				return rep, err
			}
			rep.RemovedStaging = append(rep.RemovedStaging, ix.Dir()+"/"+name)
		}
	}
	rep.IndexStale = len(pinned) - countLiveBound(pinned, byKey, liveDir)
	return rep, nil
}

// countLiveBound counts pinned entries that are the (single or newest)
// record of a published key — i.e. ordinary live records, not stale ones.
func countLiveBound(pinned []storage.RefEntry, byKey map[string][]storage.RefEntry, liveDir map[string]string) int {
	newest := map[string]int64{}
	for key, ents := range byKey {
		for _, e := range ents {
			if e.Generation > newest[key] {
				newest[key] = e.Generation
			}
		}
	}
	n := 0
	for _, e := range pinned {
		if _, ok := liveDir[e.Key]; ok && e.Generation == newest[e.Key] {
			n++
		}
	}
	return n
}

// --- retention -------------------------------------------------------------

// RetainReport records what a retention pass removed and swept.
type RetainReport struct {
	// Kept lists the retained committed checkpoint paths (newest last).
	Kept []string
	// Removed lists the retired checkpoint directory paths.
	Removed []string
	// RecordsRetired lists the journal record files retired with them.
	RecordsRetired []string
	// Examined is the number of candidate blobs the sweep looked at.
	Examined int
	// RemovedBlobs lists swept blob digests.
	RemovedBlobs []string
	// BytesFreed totals the swept blobs' sizes.
	BytesFreed int64
	// DryRun is set when nothing was actually removed.
	DryRun bool
}

// Retain drops all but the newest keepLast committed checkpoints under the
// run root and generationally sweeps the blobs whose youngest reference
// died with them: candidates come from the victims' journal records (or
// their manifests when no record exists), survivors are whatever the
// remaining records and recordless directories still pin. The latest
// pointer's target is never removed, whatever its age. Removal order is
// crash-safe: directories first, then their records, then the per-blob
// sweep — an interruption at any point leaves only over-pinned garbage
// (reclaimable by GC) and never an under-pinned referenced blob.
func Retain(b storage.Backend, runRoot string, keepLast int, dryRun bool) (*RetainReport, error) {
	if keepLast < 1 {
		return nil, fmt.Errorf("ckpt: retain: keep-last %d (want >= 1)", keepLast)
	}
	rep := &RetainReport{DryRun: dryRun}
	if runRoot != "" && !b.Exists(runRoot) {
		// Nothing saved yet (e.g. retention racing the first async save).
		return rep, nil
	}
	committed, err := List(b, runRoot)
	if err != nil {
		return nil, fmt.Errorf("ckpt: retain: %w", err)
	}
	latest, _ := Latest(b, runRoot)
	var victims []string
	for i, dir := range committed {
		if i < len(committed)-keepLast && dir != latest {
			victims = append(victims, dir)
		} else {
			rep.Kept = append(rep.Kept, dir)
		}
	}
	if len(victims) == 0 {
		return rep, nil
	}

	ix, err := refIndexFor(b, runRoot)
	if err != nil {
		return nil, err
	}
	entries, _, _, err := ix.Entries()
	if err != nil {
		return nil, err
	}
	victimKey := map[string]bool{}
	for _, v := range victims {
		victimKey[RefKey(v)] = true
	}
	var retired, remaining []storage.RefEntry
	for _, e := range entries {
		if victimKey[e.Key] {
			retired = append(retired, e)
		} else {
			remaining = append(remaining, e)
		}
	}

	// Candidate digests: the victims' records where available, their
	// manifests otherwise (pre-ref-index runs). A victim whose references
	// cannot be determined is still removed — its blobs stay pinned-in-
	// place until a full GC accounts for them.
	var candidates []string
	recorded := map[string]bool{}
	for _, e := range retired {
		if rec, err := ix.Read(e); err == nil {
			candidates = append(candidates, rec.Digests...)
			recorded[e.Key] = true
		}
	}
	for _, v := range victims {
		if recorded[RefKey(v)] {
			continue
		}
		digests, err := readDirManifestDigests(b, v, false)
		if err != nil {
			return nil, fmt.Errorf("ckpt: retain %s: %w", v, err)
		}
		candidates = append(candidates, digests...)
	}
	candidates = storage.NormalizeDigests(candidates)

	if !dryRun {
		for _, v := range victims {
			if err := b.Remove(v); err != nil {
				return rep, fmt.Errorf("ckpt: retain: remove %s: %w", v, err)
			}
			rep.Removed = append(rep.Removed, v)
		}
		for _, e := range retired {
			if err := ix.Remove(e); err != nil {
				return rep, err
			}
			rep.RecordsRetired = append(rep.RecordsRetired, e.Name)
		}
	} else {
		rep.Removed = append(rep.Removed, victims...)
		for _, e := range retired {
			rep.RecordsRetired = append(rep.RecordsRetired, e.Name)
		}
	}

	if len(candidates) > 0 {
		pins, err := livePins(b, runRoot, remaining)
		if err != nil {
			return rep, err
		}
		// Union-pin rule: peer runs attached to the same hub keep their
		// claim on any candidate this run's retention would drop.
		hp, err := peerPins(b, runRoot)
		if err != nil {
			return rep, err
		}
		mergePins(pins, hp)
		// In a dry run the victims still exist on disk; their manifest
		// digests must not count as pins or the sweep preview would be
		// empty. livePins only falls back to manifests for uncovered keys,
		// and victims' keys are uncovered once their records are excluded —
		// so subtract their manifest contribution explicitly.
		if dryRun {
			for _, v := range victims {
				digests, err := readDirManifestDigests(b, v, true)
				if err == nil {
					for _, d := range digests {
						if pins[d] > 0 {
							pins[d]--
						}
					}
				}
			}
		}
		exclude := map[string]bool{}
		for _, e := range retired {
			exclude[e.Name] = true
		}
		store, err := storage.OpenCAS(b, objectsPath(runRoot))
		if err != nil {
			return nil, err
		}
		sw, err := store.SweepDigests(candidates, pins, dryRun, indexRecheck(b, runRoot, exclude))
		if sw != nil {
			rep.Examined = sw.Examined
			rep.RemovedBlobs = sw.RemovedBlobs
			rep.BytesFreed = sw.BytesFreed
		}
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}
