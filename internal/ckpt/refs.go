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
// GCGenerational and Retain (below) collect from the index alone; GC (full,
// dedup.go) re-derives everything from the manifests and repairs the index.
// What the policies share is in pins.go; DESIGN.md "Garbage collection
// policies" has the table. Which directories a run root holds, which are
// sealed and what their manifests reference is asked of the run catalog
// (catalog.go): its entry IS the per-directory reference view audited here,
// and each policy reads one catalog before its first removal.
//
// The index is bookkeeping, never ground truth: if it is missing, stale or
// corrupt, ReconcileRefIndex (run by Repair, and by `doctor -fix`) rebuilds
// it from the manifests. Losing the index can cost reclaim work — a pinned
// blob kept too long — never a referenced blob.
package ckpt

import (
	"errors"
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
func appendRefRecord(ix *storage.RefIndex, finalDir string, step int, digests []string) (int64, error) {
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

// The reference view of a catalog entry: what the directory's manifests keep
// alive — the ground truth the ref index is bookkeeping for. Beside the
// entry's name facts (Path, Key, Staging, Quarantined) it is sealed() (the
// commit answer), dedup() (it carries a weight manifest), refGen() and
// Digests (readRefs).

// dedup reports whether the directory carries a weight manifest.
func (e *entry) dedup() bool { return e.layout().manifests }

// refGen is the generation manifest.json binds the directory to (0 =
// unbound: pre-ref-index checkpoint, or manifest unreadable).
func (e *entry) refGen() int64 {
	man, _ := e.manifest()
	return man.RefGen
}

// readRefs fills every entry's Digests: the blob references its manifests
// hold (sorted, with repeats for multiply-referenced digests) — the
// whole-history ground-truth read that the ref index exists to avoid on the
// hot path. A sealed directory in its final place accounts exactly:
// unreadable manifests there are external mutilation, and loud. Everything
// else — torn, quarantined, mid-write staging — is read best-effort:
// over-approximating references is safe for GC, under-reading them is not, so
// whatever is readable pins.
func (c *catalog) readRefs() error {
	for _, e := range c.entries {
		if e.refsRead {
			continue
		}
		digests, err := e.pinDigests(!e.sealed() || e.Staging)
		if errors.Is(err, errRetired) {
			return err
		}
		if err != nil {
			return fmt.Errorf("ckpt: blob refs: %w", err)
		}
		e.Digests, e.refsRead = digests, true
	}
	return nil
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
	missing []*entry
	// dirs are the catalog entries the audit was taken against.
	dirs []*entry
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
// manifest ground truth (the catalog's reference view).
func auditRefs(ix *storage.RefIndex, c *catalog) (*refAudit, error) {
	if err := c.readRefs(); err != nil {
		return nil, err
	}
	entries, staging, _, err := ix.Entries()
	if err != nil {
		return nil, err
	}
	byKey := map[string][]*entry{}
	for _, d := range c.entries {
		byKey[d.Key] = append(byKey[d.Key], d)
	}
	audit := &refAudit{staging: staging, dirs: c.entries}
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
			var boundDir *entry
			for _, d := range ds {
				if d.refGen() == e.Generation {
					boundDir = d
				}
				if d.refGen() > bound {
					bound = d.refGen()
				}
			}
			switch {
			case boundDir != nil:
				if boundDir.sealed() && !boundDir.Staging && !digestsCover(rec.Digests, boundDir.Digests) {
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
				// the advance pin of an in-flight dedup output about to
				// replace it, or residue of a crashed one — sweeps still
				// honor it, quiescent repair retires it.
				if allSealedPlain(ds) {
					ar.state = RefOrphaned
					ar.detail = "record over a sealed plain directory (in-flight dedup output replacing it, or stale after a crashed one)"
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
	for _, d := range c.entries {
		if d.dedup() && d.sealed() && !d.Staging && !covered[d.Key] {
			audit.missing = append(audit.missing, d)
		}
	}
	return audit, nil
}

// allSealedPlain reports whether every directory view of one key is a
// sealed, non-dedup checkpoint in its final location — a tree that by
// construction references no blob.
func allSealedPlain(ds []*entry) bool {
	for _, d := range ds {
		if d.dedup() || d.Staging || !d.sealed() {
			return false
		}
	}
	return len(ds) > 0
}

// dirRefsetOf returns the union digest list over directory views of one key.
func dirRefsetOf(ds []*entry) []string {
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
	return withCatalog(b, runRoot, scanRefs)
}

// scanRefs is the index view of the doctor.
func scanRefs(c *catalog) ([]RefStatus, error) {
	ix, err := storage.OpenRefIndex(c.b, objectsPath(c.root))
	if err != nil {
		return nil, err
	}
	audit, err := auditRefs(ix, c)
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
	ix, err := storage.OpenRefIndex(b, objectsPath(runRoot))
	if err != nil {
		return nil, err
	}
	c, err := openCatalog(b, runRoot)
	if err != nil {
		return nil, err
	}
	return reconcileRefIndex(ix, c)
}

// reconcileRefIndex is ReconcileRefIndex against a catalog the caller (Repair)
// already holds.
func reconcileRefIndex(ix *storage.RefIndex, c *catalog) (*RefReconcileReport, error) {
	audit, err := auditRefs(ix, c)
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
	rep.RemovedRecords, rep.WrittenRecords, err = fixIndex(ix, audit, true, false)
	return rep, err
}

// retiredState reports whether a record in state s pins nothing and is
// removed by an index fix: superseded and unreadable records always, and
// orphaned ones when the caller is quiescent — online, an in-flight save's
// record looks exactly like an orphan.
func retiredState(s RefState, quiescent bool) bool {
	return s == RefSuperseded || s == RefCorrupt || quiescent && s == RefOrphaned
}

// fixIndex brings the index into agreement with the manifests it was
// audited against — the manifests always win: retired records are removed,
// divergent ones rewritten in place (same generation and key, corrected
// digest set), and sealed dedup directories without a usable record get
// one. Bound directories keep their manifest generation; unbound
// (pre-ref-index) ones get a fresh one — their manifests cannot be
// rewritten under a sealed marker, so they stay unbound and conservatively
// pinned. With dryRun set the lists are what a real pass would do.
func fixIndex(ix *storage.RefIndex, audit *refAudit, quiescent, dryRun bool) (removed, written []string, err error) {
	write := func(label, key string, gen int64, d *entry) error {
		if !dryRun {
			if err := writeRecordFrom(ix, key, gen, d); err != nil {
				return err
			}
		}
		written = append(written, label)
		return nil
	}
	for _, ar := range audit.records {
		switch {
		case retiredState(ar.state, quiescent):
			if !dryRun {
				if err := ix.Remove(ar.entry); err != nil {
					return removed, written, err
				}
			}
			removed = append(removed, ar.entry.Name)
		case ar.state == RefDivergent:
			for _, d := range audit.dirs {
				// The directory the record's generation binds to.
				if d.Key == ar.entry.Key && d.refGen() == ar.entry.Generation {
					if err := write(ar.entry.Name, ar.entry.Key, ar.entry.Generation, d); err != nil {
						return removed, written, err
					}
					break
				}
			}
		}
	}
	for _, d := range audit.missing {
		if err := write(d.Key, d.Key, d.refGen(), d); err != nil {
			return removed, written, err
		}
	}
	return removed, written, nil
}

// writeRecordFrom (re)writes a sealed directory's journal record from its
// manifests — the manifests always win. gen <= 0 allocates the next
// generation (an unbound, pre-ref-index directory).
func writeRecordFrom(ix *storage.RefIndex, key string, gen int64, d *entry) error {
	if gen <= 0 {
		var err error
		if gen, err = ix.NextGeneration(); err != nil {
			return err
		}
	}
	man, _ := d.manifest() // the step is bookkeeping: 0 when unreadable
	return ix.Append(&storage.RefRecord{
		Version: FormatVersion, Key: key, Step: man.Step,
		Generation: gen, Digests: d.Digests,
	})
}

// --- generational sweep ----------------------------------------------------

// fillGC copies the blob accounting into a GC report.
func (w *sweeper) fillGC(rep *GCReport) {
	rep.Examined, rep.Kept = w.Examined, w.Kept
	rep.RemovedBlobs, rep.RemovedStaging = w.RemovedBlobs, w.RemovedStaging
	rep.BytesFreed = w.BytesFreed
}

// GCGenerational is the incremental policy: it retires provably superseded
// journal records (a checkpoint replaced in place binds its directory to a
// newer generation via manifest ref_gen), and its candidates are exactly
// the retired records' digests. It reads the journal and one run-root
// listing — never the store fan-out, never the full manifest history — so
// its cost is O(retired generations + live index), not O(run length).
// Orphaned records (no matching directory) are pinned, not retired: an
// in-flight save looks exactly like that, and only quiescent repair may
// judge it. After the sweep it settles crashed-sweep trash and removes the
// crash residue that needs no store listing.
//
// With dryRun set nothing is removed; the report is what a real run would
// then do.
func GCGenerational(b storage.Backend, runRoot string, dryRun bool) (*GCReport, error) {
	return withCatalog(b, runRoot, func(c *catalog) (*GCReport, error) { return gcGenerational(c, dryRun) })
}

func gcGenerational(c *catalog, dryRun bool) (*GCReport, error) {
	rep := &GCReport{Mode: "generational", DryRun: dryRun}
	scope, err := c.scope()
	if err != nil {
		return nil, err
	}
	ix := scope.self.ix
	entries, staging, _, err := ix.Entries()
	if err != nil {
		return nil, err
	}
	rep.IndexRecords = len(entries)

	// The catalog's one listing decides key liveness; manifest.json is read
	// only for keys with churn (more than one record), keeping the scan cost
	// O(index), not O(run length).
	live := map[string]*entry{} // key -> published (non-staging) directory
	for _, d := range c.entries {
		if !d.Staging {
			live[d.Key] = d
		}
	}
	byKey := map[string][]storage.RefEntry{}
	for _, e := range entries {
		byKey[e.Key] = append(byKey[e.Key], e)
	}
	var pinned, retired []storage.RefEntry
	for key, ents := range byKey {
		// No directory (an in-flight save or crash residue), no published
		// directory, or no churn: every record pins. A pinned record other
		// than a published key's newest is stale.
		d, published := live[key]
		var bound int64
		if published && len(ents) > 1 {
			bound = d.refGen()
		}
		for _, e := range ents {
			switch {
			case e.Generation < bound:
				retired = append(retired, e)
				continue
			case !published || e.Generation != ents[len(ents)-1].Generation:
				rep.IndexStale++
			}
			pinned = append(pinned, e)
		}
	}

	// Candidates: whatever the retired generations referenced. An unreadable
	// superseded record names nothing reclaimable; its file is dropped all
	// the same and full GC owns its blobs.
	var candidates []string
	retiredName := map[string]bool{}
	for _, e := range retired {
		if rec, err := ix.Read(e); err == nil {
			candidates = append(candidates, rec.Digests...)
		}
		rep.IndexRetired = append(rep.IndexRetired, e.Name)
		retiredName[e.Name] = true
	}
	candidates = storage.NormalizeDigests(candidates)

	query := pinQuery{journal: true, manifests: manifestsUncovered, peers: true, retiredRecords: retiredName}
	w, err := scope.sweeper(query, dryRun)
	if err != nil {
		return nil, err
	}
	defer w.fillGC(rep)
	if len(candidates) > 0 {
		pins, err := scope.pins(query, pinned)
		if err != nil {
			return rep, err
		}
		rep.Referenced = len(pins)
		if err := w.sweep(candidates, pins); err != nil {
			return rep, err
		}
	}
	// The read phase is over: what asks for pins from here on (settling
	// trash) lists the run root afresh and restarts nothing.
	scope.self.cat = nil
	if !dryRun {
		for _, e := range retired {
			if err := ix.Remove(e); err != nil {
				return rep, err
			}
		}
	}
	if err := w.disposeTrash(nil); err != nil {
		return rep, err
	}
	for i, name := range staging {
		staging[i] = ix.Dir() + "/" + name
	}
	if err := w.cleanResidue(staging); err != nil {
		return rep, fmt.Errorf("ckpt: gc: %w", err)
	}
	return rep, nil
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

// Retain is the retention policy: it drops all but the newest keepLast
// committed checkpoints under the run root, retires their journal records,
// and its candidates are the blobs whose youngest reference died with them
// — the victims' records, or their manifests when no record exists. The
// latest pointer's target is never removed, whatever its age. Removal order
// is crash-safe: directories first, then their records, then the per-blob
// sweep — an interruption at any point leaves only over-pinned garbage
// (reclaimable by GC) and never an under-pinned referenced blob.
func Retain(b storage.Backend, runRoot string, keepLast int, dryRun bool) (*RetainReport, error) {
	if keepLast < 1 {
		return nil, fmt.Errorf("ckpt: retain: keep-last %d (want >= 1)", keepLast)
	}
	return withCatalog(b, runRoot, func(c *catalog) (*RetainReport, error) { return retain(c, keepLast, dryRun) })
}

func retain(c *catalog, keepLast int, dryRun bool) (*RetainReport, error) {
	b := c.b
	rep := &RetainReport{DryRun: dryRun}
	// An absent run root holds nothing yet (retention racing the first async
	// save): no checkpoints, no victims.
	committed, latest := c.committed(), c.latest()
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

	scope, err := c.scope()
	if err != nil {
		return nil, err
	}
	ix := scope.self.ix
	entries, _, _, err := ix.Entries()
	if err != nil {
		return nil, err
	}
	query := pinQuery{journal: true, manifests: manifestsUncovered, peers: true,
		retiredRecords: map[string]bool{}, retiredDirs: map[string]bool{}}
	victimKey := map[string]bool{}
	for _, v := range victims {
		victimKey[RefKey(v)] = true
		query.retiredDirs[v] = true
	}

	// Candidate digests: the victims' records where available, their
	// manifests otherwise (pre-ref-index runs). A victim whose references
	// cannot be determined is still removed — its blobs stay pinned-in-
	// place until a full GC accounts for them.
	var candidates []string
	var retired, remaining []storage.RefEntry
	recorded := map[string]bool{}
	for _, e := range entries {
		if !victimKey[e.Key] {
			remaining = append(remaining, e)
			continue
		}
		retired = append(retired, e)
		query.retiredRecords[e.Name] = true
		if rec, err := ix.Read(e); err == nil {
			candidates = append(candidates, rec.Digests...)
			recorded[e.Key] = true
		}
	}
	for _, v := range victims {
		if recorded[RefKey(v)] {
			continue
		}
		digests, err := c.byPath(v).pinDigests(false)
		if err != nil {
			return nil, fmt.Errorf("ckpt: retain %s: %w", v, err)
		}
		candidates = append(candidates, digests...)
	}
	candidates = storage.NormalizeDigests(candidates)

	for _, v := range victims {
		if !dryRun {
			if err := b.Remove(v); err != nil {
				return rep, fmt.Errorf("ckpt: retain: remove %s: %w", v, err)
			}
			// Directories change from here on: the catalog was a snapshot, so
			// the pin query below lists the run root afresh.
			scope.self.cat = nil
		}
		rep.Removed = append(rep.Removed, v)
	}
	for _, e := range retired {
		if !dryRun {
			if err := ix.Remove(e); err != nil {
				return rep, err
			}
		}
		rep.RecordsRetired = append(rep.RecordsRetired, e.Name)
	}
	if len(candidates) == 0 {
		return rep, nil
	}

	// The victims' records and directories are named in the query, so a dry
	// run — where both still exist — pins exactly what the real run does.
	w, err := scope.sweeper(query, dryRun)
	if err != nil {
		return nil, err
	}
	pins, err := scope.pins(query, remaining)
	if err != nil {
		return rep, err
	}
	err = w.sweep(candidates, pins)
	rep.Examined, rep.RemovedBlobs, rep.BytesFreed = w.Examined, w.RemovedBlobs, w.BytesFreed
	return rep, err
}
