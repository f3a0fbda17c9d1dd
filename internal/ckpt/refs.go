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
// All three judge records with the one classifier here (classify) and run
// through the one driver in pins.go; DESIGN.md "Garbage collection policies"
// has the table. Which directories a run root holds, which are
// sealed and what their manifests reference is asked of the run catalog
// (catalog.go): its entry IS the per-directory reference view audited here,
// and each policy reads one catalog before its first removal.
//
// The index is bookkeeping, never ground truth: if it is missing, stale or
// corrupt, Repair (and `doctor -fix`) rebuilds it from the manifests. Losing
// the index can cost reclaim work — a pinned blob kept too long — never data.
package ckpt

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"llmtailor/internal/parallel"
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
		if rec, err := ix.Read(e); err == nil && e.Generation > reuse &&
			slices.Equal(storage.NormalizeDigests(append([]string(nil), rec.Digests...)), want) {
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
// whatever is readable pins. Entries are read side by side; the error
// returned is the first in entry order, errRetired included.
func (c *catalog) readRefs() error {
	return parallel.ForEachFirst(storage.RequestWidth, len(c.entries), func(i int) error {
		e := c.entries[i]
		if e.refsRead {
			return nil
		}
		digests, err := e.pinDigests(!e.sealed() || e.Staging)
		switch {
		case errors.Is(err, errRetired):
			return err
		case err != nil:
			return fmt.Errorf("ckpt: blob refs: %w", err)
		}
		e.Digests, e.refsRead = digests, true
		return nil
	})
}

// readRecords reads the records whose contents are not read yet, side by
// side; one that cannot be read keeps a nil rec and its error.
func readRecords(ix *storage.RefIndex, recs []auditedRecord) {
	_ = parallel.ForEach(storage.RequestWidth, len(recs), func(i int) error {
		if a := &recs[i]; a.rec == nil && a.err == nil {
			a.rec, a.err = ix.Read(a.entry)
		}
		return nil
	})
}

// unread wraps journal entries whose contents nobody has read yet.
func unread(entries []storage.RefEntry) []auditedRecord {
	out := make([]auditedRecord, len(entries))
	for i, e := range entries {
		out[i].entry = e
	}
	return out
}

// --- the record classifier -------------------------------------------------

// RefState classifies one ref-index record (or index-related problem).
type RefState int

const (
	// RefOK: the record is bound to a live directory and agrees with it.
	RefOK RefState = iota
	// RefSuperseded: an older generation of a live key — the checkpoint was
	// replaced in place; the record's exclusive digests are reclaimable by
	// a generational sweep.
	RefSuperseded
	// RefOrphaned: no published directory, or a generation newer than the
	// published one. Either an in-flight save (its directory does not exist
	// *yet*, or is about to be replaced) or residue of a crashed one —
	// indistinguishable online, so sweeps pin these and only quiescent repair
	// removes them.
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

// auditedRecord is one journal record as the classifier judged it.
type auditedRecord struct {
	entry storage.RefEntry
	rec   *storage.RefRecord // nil until read, or when unreadable (err)
	err   error
	state RefState
	// dir is the published directory of the record's key, nil when none.
	dir    *entry
	detail string
}

// refAudit is the deep classification of a run root's ref index against
// its directories' manifests: what the doctor shows and Repair fixes.
type refAudit struct {
	records []auditedRecord
	staging []string // residue file names inside the refs dir
	// missing lists sealed dedup directories with no usable record.
	missing []*entry
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

// classify is the one record classifier. It judges each record against the
// published directory of its key — a staging tree binds nothing until it is
// published — through the catalog's memos:
//
//   - no published directory: orphaned (an in-flight save, or a crashed one's
//     residue);
//   - otherwise manifest.json's ref_gen is the bound generation: the record
//     it names is OK, an older one superseded, a newer one orphaned (an
//     in-flight replace);
//   - an unbound directory (no ref_gen: a pre-ref-index checkpoint, or an
//     unreadable manifest.json) proves nothing, so its records are orphaned.
//
// A shallow pass (generational GC, retention) reads manifest.json only for
// keys with more than one record, taking a key's only record as its
// directory's own: O(index), not O(run length). A deep pass (full GC, the
// doctor, Repair) also asks whether a record is divergent or corrupt, reading
// every manifest.json, record and manifest; it takes an unbound directory's
// record as OK when it covers the manifests — unless the directory is sealed
// plain, which references no blob: then the record is an in-flight dedup
// output's advance pin, or residue of a crashed one.
func (c *catalog) classify(ix *storage.RefIndex, entries []storage.RefEntry, deep bool) ([]auditedRecord, error) {
	out := unread(entries)
	if deep {
		if err := c.readRefs(); err != nil {
			return nil, err
		}
		readRecords(ix, out)
	}
	published, records := map[string]*entry{}, map[string]int{}
	for _, d := range c.entries {
		if !d.Staging && !d.Quarantined {
			published[d.Key] = d
		}
	}
	for _, e := range entries {
		records[e.Key]++
	}
	for i := range out {
		a := &out[i]
		gen, d := a.entry.Generation, published[a.entry.Key]
		a.dir = d
		if a.err != nil {
			a.state, a.detail = RefCorrupt, a.err.Error()
			continue
		}
		if d == nil {
			a.state, a.detail = RefOrphaned, "no matching checkpoint directory (in-flight save, or stale after a crash)"
			continue
		}
		if !deep && records[a.entry.Key] == 1 {
			a.state = RefOK
			continue
		}
		bound := d.refGen()
		switch {
		case bound > 0 && gen == bound:
			a.state = RefOK
			if deep && d.sealed() && !digestsCover(a.rec.Digests, d.Digests) {
				a.state, a.detail = RefDivergent, fmt.Sprintf("record fails to cover the manifests of %s", d.Path)
			}
		case bound > 0 && gen < bound:
			a.state, a.detail = RefSuperseded, fmt.Sprintf("generation %d replaced by %d", gen, bound)
		case bound > 0:
			a.state, a.detail = RefOrphaned, fmt.Sprintf("generation %d newer than the published %d (in-flight replace, or crashed before commit)", gen, bound)
		case deep && !d.dedup() && d.sealed():
			a.state, a.detail = RefOrphaned, "record over a sealed plain directory (in-flight dedup output replacing it, or stale after a crashed one)"
		case deep && digestsCover(a.rec.Digests, d.Digests):
			a.state = RefOK
		default:
			a.state, a.detail = RefOrphaned, "directory carries no generation binding (pre-ref-index checkpoint)"
		}
	}
	return out, nil
}

// auditRefs is the deep classification of the run root's whole index,
// append residue and unrecorded dedup directories included.
func auditRefs(ix *storage.RefIndex, c *catalog) (*refAudit, error) {
	entries, staging, _, err := ix.Entries()
	if err != nil {
		return nil, err
	}
	records, err := c.classify(ix, entries, true)
	if err != nil {
		return nil, err
	}
	audit := &refAudit{records: records, staging: staging}
	covered := map[string]bool{} // keys with a usable (OK) record
	for _, a := range records {
		if a.state == RefOK {
			covered[a.entry.Key] = true
		}
	}
	for _, d := range c.entries {
		if d.dedup() && d.sealed() && !d.Staging && !covered[d.Key] {
			audit.missing = append(audit.missing, d)
		}
	}
	return audit, nil
}

// scanRefs is the index view of the doctor: the run root's ref index audited
// against its manifests. A run root without an index (or without an objects
// store at all) yields findings only for unrecorded dedup directories.
func scanRefs(c *catalog) ([]RefStatus, error) {
	scope, err := c.scope()
	if err != nil {
		return nil, err
	}
	ix := scope.self.ix
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

// reconcileRefIndex rebuilds the ref index from the manifests, for Repair:
// append residue is cleaned, orphaned, superseded and corrupt records are
// removed, and missing and divergent records of sealed dedup directories are
// (re)written. It assumes quiescence, as Repair does: an in-flight save's
// record is indistinguishable from a crashed one's (the worst outcome of
// breaking the rule is a committed checkpoint whose record must be rebuilt
// again — the manifests always win, no blob is lost).
func reconcileRefIndex(ix *storage.RefIndex, c *catalog, rep *RepairReport) error {
	audit, err := auditRefs(ix, c)
	if err != nil {
		return err
	}
	for _, name := range audit.staging {
		if err := ix.RemoveStaging(name); err != nil {
			return err
		}
		rep.RefStagingRemoved = append(rep.RefStagingRemoved, name)
	}
	for _, a := range audit.records {
		if retiredState(a.state, true) {
			if err := ix.Remove(a.entry); err != nil {
				return err
			}
			rep.RefRecordsRemoved = append(rep.RefRecordsRemoved, a.entry.Name)
		}
	}
	rep.RefRecordsWritten, err = repairIndex(ix, audit, false)
	return err
}

// retiredState reports whether a record in state s pins nothing and is
// removed: superseded and unreadable records always, and orphaned ones when
// the caller is quiescent — online, an in-flight save's record looks exactly
// like an orphan.
func retiredState(s RefState, quiescent bool) bool {
	return s == RefSuperseded || s == RefCorrupt || quiescent && s == RefOrphaned
}

// repairIndex writes what the manifests say the audited index lacks — the
// manifests always win: divergent records are rewritten in place (same
// generation and key, corrected digest set), and sealed dedup directories
// without a usable record get one. Bound directories keep their manifest
// generation; unbound (pre-ref-index) ones get a fresh one — their manifests
// cannot be rewritten under a sealed marker, so they stay unbound and
// conservatively pinned. With dryRun set the list is what a real pass would
// write.
func repairIndex(ix *storage.RefIndex, audit *refAudit, dryRun bool) (written []string, err error) {
	write := func(label, key string, gen int64, d *entry) error {
		if !dryRun {
			if err := writeRecordFrom(ix, key, gen, d); err != nil {
				return err
			}
		}
		written = append(written, label)
		return nil
	}
	for _, a := range audit.records {
		if a.state == RefDivergent {
			if err := write(a.entry.Name, a.entry.Key, a.entry.Generation, a.dir); err != nil {
				return written, err
			}
		}
	}
	for _, d := range audit.missing {
		if err := write(d.Key, d.Key, d.refGen(), d); err != nil {
			return written, err
		}
	}
	return written, nil
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

// --- the index-driven policies ----------------------------------------------

// retire splits classified records into those a policy retires and those
// that pin, counting in the report the records considered and the stale ones
// left pinned; retired says which the policy retires.
func retire(rep *GCReport, records []auditedRecord, retired func(auditedRecord) bool) (gone, pinned []auditedRecord) {
	for _, a := range records {
		switch {
		case retired(a):
			gone = append(gone, a)
		case a.state == RefOrphaned:
			rep.IndexStale++
			fallthrough
		default:
			pinned = append(pinned, a)
		}
	}
	return gone, pinned
}

// retiredDigests reads the retired records and returns the digests they
// named — never nil: no candidates is no sweep, not the whole store — and
// which keys had a readable one.
func retiredDigests(ix *storage.RefIndex, gone []auditedRecord) (candidates []string, recorded map[string]bool) {
	readRecords(ix, gone)
	candidates, recorded = []string{}, map[string]bool{}
	for _, a := range gone {
		if a.rec != nil {
			candidates = append(candidates, a.rec.Digests...)
			recorded[a.entry.Key] = true
		}
	}
	return candidates, recorded
}

// GCGenerational is the incremental policy: it retires provably superseded
// journal records (a checkpoint replaced in place binds its directory to a
// newer generation via manifest ref_gen), and its candidates are exactly
// the retired records' digests. It reads the journal and one run-root
// listing — never the store fan-out, never the full manifest history — so
// its cost is O(retired generations + live index), not O(run length).
// Orphaned records are pinned, not retired: an in-flight save looks exactly
// like one, and only quiescent repair may judge it. After the sweep it
// settles crashed-sweep trash and removes the crash residue that needs no
// store listing.
//
// With dryRun set nothing is removed; the report is what a real run would
// then do.
func GCGenerational(b storage.Backend, runRoot string, dryRun bool) (*GCReport, error) {
	return withCatalog(b, runRoot, func(c *catalog) (*GCReport, error) {
		scope, err := c.scope()
		if err != nil {
			return nil, err
		}
		ix := scope.self.ix
		entries, staging, _, err := ix.Entries()
		if err != nil {
			return nil, err
		}
		records, err := c.classify(ix, entries, false)
		if err != nil {
			return nil, err
		}
		p := policy{rep: &GCReport{Mode: "generational", IndexRecords: len(entries)}, manifests: manifestsUncovered,
			upkeep: true, staging: staging}
		p.records, p.pinned = retire(p.rep, records, func(a auditedRecord) bool { return retiredState(a.state, false) })
		// An unreadable superseded record names nothing reclaimable; its file
		// is dropped all the same and full GC owns its blobs.
		candidates, _ := retiredDigests(ix, p.records)
		p.candidates = storage.NormalizeDigests(candidates)
		return scope.collect(p, dryRun)
	})
}

// RetainReport is what a retention pass reports: the one collection report.
type RetainReport = GCReport

// Retain is the retention policy: it drops all but the newest keepLast
// committed checkpoints under the run root, retires the victims' own journal
// records — those at or below the generation the victim's manifest.json
// binds; a newer one is an in-flight replace's and pins — and its candidates
// are the blobs whose youngest reference died with them: the retired
// records' digests, or the victims' manifests when no record exists. The
// latest pointer's target is never removed, whatever its age. Removal runs
// in the driver's order — directories, the pin snapshot, the sweep, then the
// records — so an interruption at any point leaves only over-pinned garbage
// (reclaimable by GC) and never an under-pinned referenced blob.
func Retain(b storage.Backend, runRoot string, keepLast int, dryRun bool) (*GCReport, error) {
	if keepLast < 1 {
		return nil, fmt.Errorf("ckpt: retain: keep-last %d (want >= 1)", keepLast)
	}
	return withCatalog(b, runRoot, func(c *catalog) (*GCReport, error) { return retain(c, keepLast, dryRun) })
}

func retain(c *catalog, keepLast int, dryRun bool) (*GCReport, error) {
	rep := &GCReport{Mode: "retain", DryRun: dryRun}
	// An absent run root holds nothing yet (retention racing the first async
	// save): no checkpoints, no victims.
	committed, latest := c.committed(), c.latest()
	var victims []string
	victimKey := map[string]bool{}
	for i, dir := range committed {
		if i < len(committed)-keepLast && dir != latest {
			victims = append(victims, dir)
			victimKey[RefKey(dir)] = true
		} else {
			rep.Retained = append(rep.Retained, dir)
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
	rep.IndexRecords = len(entries)
	// Only the victims' records are judged; every other record pins.
	var theirs, others []storage.RefEntry
	for _, e := range entries {
		if victimKey[e.Key] {
			theirs = append(theirs, e)
		} else {
			others = append(others, e)
		}
	}
	records, err := c.classify(ix, theirs, false)
	if err != nil {
		return nil, err
	}
	p := policy{rep: rep, dirs: victims, manifests: manifestsUncovered}
	p.records, p.pinned = retire(rep, records, func(a auditedRecord) bool { return a.state != RefOrphaned })
	p.pinned = append(p.pinned, unread(others)...)
	// A victim whose references cannot be determined is still removed — its
	// blobs stay pinned-in-place until a full GC accounts for them.
	candidates, recorded := retiredDigests(ix, p.records)
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
	p.candidates = storage.NormalizeDigests(candidates)
	return scope.collect(p, dryRun)
}
