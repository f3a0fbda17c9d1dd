// Pins, sweeps and the one collection driver: the one place references
// become a keep set, the one way a blob leaves a store, and the one order in
// which a collecting operation removes anything.
//
// Every collecting operation — full GC, generational GC, retention, hub GC —
// is a policy: a row of candidate blobs, directories and journal records to
// retire, and a pin query (DESIGN.md "Garbage collection policies" has the
// table). collect runs every row the same way and returns the one report.
// What is pinned and how a blob is removed are not policy. Pins are one query
// (pinQuery) over a scope resolved once per operation (the run, its hub
// attachment, its peers), so the union-pin rule — a digest is reclaimable
// only when it is dead across ALL runs attached to its store — holds for
// every policy by construction. Removal is storage.BlobStore.Sweep's
// two-phase trash → recheck → purge-or-restore, and the recheck is always the
// same query: the journals of the run and every peer, re-read after the
// victims were trashed, minus the records the sweep itself retired. A saver
// in any attached run journals before its reuse check, so the
// record-precedes-blobs proof (see storage.BlobStore.Sweep) covers sweeps and
// savers in different runs as it covers one run.
package ckpt

import (
	"errors"
	"fmt"

	"llmtailor/internal/parallel"
	"llmtailor/internal/storage"
)

// pinRun is one run whose references bear on a store: the root holding its
// checkpoint directories, and its journal. cat is the catalog the operation
// holds of its own run's root; a peer has none, and neither has a run whose
// directories the operation just changed: a query that reads manifests then
// opens a fresh one.
type pinRun struct {
	root string
	ix   *storage.RefIndex
	cat  *catalog
}

// pinScope is what an operation over one store consults, resolved once:
// where the store lives, which run asked (nil for a hub-level operation)
// and which hub, if any, lists the other runs sharing the store.
type pinScope struct {
	b       storage.Backend
	objects string // the store's root, after following a hub attachment
	hub     string // hub root, "" for a run-local store
	id      string // the asking run's registry id under the hub
	self    *pinRun
	others  []pinRun // peers() cache
	cas     memo[*storage.BlobStore]
}

// openRunScope resolves a run root's scope. An attached run's journal lives
// under the hub store's refs/<run-id>/ namespace, an unattached one's under
// its own objects/refs/.
func openRunScope(b storage.Backend, runRoot string) (*pinScope, error) {
	objects, ref, err := storage.ResolveHub(b, objectsPath(runRoot))
	if err != nil {
		return nil, err
	}
	s := &pinScope{b: b, objects: objects, self: &pinRun{root: runRoot, ix: storage.NewRefIndex(b, objects)}}
	if ref != nil {
		s.hub, s.id = ref.Hub, ref.Run
		s.self.ix = storage.NewRefIndexNS(b, objects, ref.Run)
	}
	return s, nil
}

// scope resolves the scope of the run root c catalogs once, with c as what
// its pin queries read of the run's own directories: every view and policy
// over one catalog shares one hub resolution, chain check included.
func (c *catalog) scope() (*pinScope, error) {
	return c.sc.get(func() (*pinScope, error) {
		s, err := openRunScope(c.b, c.root)
		if err == nil {
			s.self.cat = c
		}
		return s, err
	})
}

// peers returns every other run attached to the scope's hub (every run, for
// a hub-level scope; none, for a run-local store). Attach registers a run
// under the id it journals under before the run can save, so the registry
// alone locates each peer's journal.
func (s *pinScope) peers() ([]pinRun, error) {
	if s.hub == "" || s.others != nil {
		return s.others, nil
	}
	runs, err := storage.ListHubRuns(s.b, s.hub)
	if err != nil {
		return nil, err
	}
	for _, r := range runs {
		if r.ID != s.id {
			s.others = append(s.others, pinRun{root: r.Root, ix: storage.NewRefIndexNS(s.b, s.objects, r.ID)})
		}
	}
	return s.others, nil
}

// manifestPins says which directories' manifests a pin query reads.
type manifestPins int

const (
	// manifestsNone: records only — the recheck read, where appends are
	// atomic and a concurrent save journals before it relies on a blob.
	manifestsNone manifestPins = iota
	// manifestsUncovered: only directories whose key no readable record
	// covers (a recordless dedup checkpoint, a corrupt record's directory, a
	// pre-ref-index staging tree) and quarantined trees, read best-effort.
	// Under-pinning is the one unforgivable failure, so every fallback
	// over-approximates.
	manifestsUncovered
	// manifestsAll: every directory, the whole-history ground truth the ref
	// index exists to avoid on the hot path (catalog.readRefs).
	manifestsAll
)

// pinQuery selects the references that pin. Its values are fixed by each
// policy, never by a caller.
type pinQuery struct {
	journal   bool
	manifests manifestPins
	// peers adds every peer run's journal, and its uncovered manifests unless
	// the query is records-only.
	peers bool
	// retiredRecords (journal file names) and retiredDirs (directory paths)
	// name what the asking sweep is itself retiring from its own run: they
	// pin nothing, whether or not they still exist.
	retiredRecords map[string]bool
	retiredDirs    map[string]bool
}

// runRefs is one run's pinning material as read from the backend: journal
// records, and per directory the digest list its manifests hold.
type runRefs struct {
	records []*storage.RefRecord
	dirs    [][]string
}

// pinDigests reads every blob digest the directory's manifests keep alive —
// referenced blobs plus their xor-parent ancestor chains (PinDigests):
// sweeping an ancestor would corrupt every delta blob below it, so pinning is
// always transitive. With bestEffort set, an unreadable manifest contributes
// nothing instead of failing while every readable one still pins — the right
// treatment for quarantined, torn and mid-write staging trees, which may be
// arbitrarily damaged. Either way a manifest that is missing because the
// directory went away under the reader is errRetired, never a silent nothing.
func (e *entry) pinDigests(bestEffort bool) ([]string, error) {
	if !e.dedup() {
		// No weight manifest: a plain directory — or one removed since it was
		// listed, which a marker already asked for gives away: it is missing
		// with the whole directory, or it lists the weight manifest.
		if e.mark.done {
			m, err := e.marker()
			if _, listed := m.Files[WeightManifestName]; e.retired(err) || listed && !e.c.b.Exists(e.Path) {
				return nil, errRetired
			}
		}
		return nil, nil
	}
	wm, sms, err := e.manifestFiles().decode()
	if err != nil && e.retired(err) {
		return nil, errRetired
	}
	if err != nil && !bestEffort {
		return nil, err
	}
	var out []string
	if wm != nil {
		out = wm.PinDigests()
	}
	for _, sm := range sms {
		if sm != nil {
			out = append(out, sm.PinDigests()...)
		}
	}
	return out, nil
}

// load reads what q selects of one run. listed, when non-nil, is the journal
// as the policy classified it (contents read or not), so classifying records
// and pinning them cost one listing and one read of each record, not two.
func (r pinRun) load(b storage.Backend, q pinQuery, listed []auditedRecord) (runRefs, error) {
	var refs runRefs
	covered := map[string]bool{}
	if q.journal {
		if listed == nil {
			entries, _, _, err := r.ix.Entries()
			if err != nil {
				return refs, err
			}
			listed = unread(entries)
		}
		var kept []auditedRecord
		for _, a := range listed {
			if !q.retiredRecords[a.entry.Name] {
				kept = append(kept, a)
			}
		}
		readRecords(r.ix, kept)
		for _, a := range kept {
			// An unreadable record pins nothing itself; its directory, if
			// any, stays uncovered and pins through its manifests.
			if a.rec != nil {
				refs.records = append(refs.records, a.rec)
				covered[a.entry.Key] = true
			}
		}
	}
	if q.manifests == manifestsNone {
		return refs, nil
	}
	read := func(c *catalog) error {
		refs.dirs = nil
		if q.manifests == manifestsAll {
			if err := c.readRefs(); err != nil {
				return err
			}
		}
		for _, d := range c.entries {
			if q.retiredDirs[d.Path] {
				continue
			}
			digests := d.Digests
			if q.manifests == manifestsUncovered {
				if covered[d.Key] && !d.Quarantined {
					continue
				}
				var err error
				if digests, err = d.pinDigests(true); err != nil {
					return err
				}
			}
			refs.dirs = append(refs.dirs, digests)
		}
		return nil
	}
	if r.cat != nil {
		return refs, read(r.cat)
	}
	_, err := withCatalog(b, r.root, func(c *catalog) (struct{}, error) { return struct{}{}, read(c) })
	if errors.Is(err, errRetired) {
		// Out of attempts. The caller may be past its first removal: its own
		// restart must not follow from this one.
		err = fmt.Errorf("ckpt: pins of %q: %v", r.root, err)
	}
	return refs, err
}

// pins answers q over the scope; listed is passed on to the own run's load.
func (s *pinScope) pins(q pinQuery, listed []auditedRecord) (map[string]int, error) {
	var own runRefs
	if s.self != nil {
		var err error
		if own, err = s.self.load(s.b, q, listed); err != nil {
			return nil, err
		}
	}
	return s.pinsWith(own, q)
}

// pinsWith answers q for a policy that has already read its own run's
// material (own) while classifying it. It is the only code that turns
// journal records or manifests into a digest → count map.
func (s *pinScope) pinsWith(own runRefs, q pinQuery) (map[string]int, error) {
	all := []runRefs{own}
	if q.peers {
		peers, err := s.peers()
		if err != nil {
			return nil, err
		}
		pq := pinQuery{journal: true}
		if q.manifests != manifestsNone {
			pq.manifests = manifestsUncovered
		}
		loaded := make([]runRefs, len(peers))
		if err := parallel.ForEachFirst(storage.RequestWidth, len(peers), func(i int) error {
			var err error
			if loaded[i], err = peers[i].load(s.b, pq, nil); err != nil {
				return fmt.Errorf("ckpt: pins of hub run %s: %w", peers[i].root, err)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		all = append(all, loaded...)
	}
	pins := map[string]int{}
	for _, refs := range all {
		for _, rec := range refs.records {
			for _, d := range rec.Digests {
				pins[d]++
			}
		}
		for _, digests := range refs.dirs {
			for _, d := range digests {
				pins[d]++
			}
		}
	}
	return pins, nil
}

// runPins answers q for one run root.
func runPins(b storage.Backend, runRoot string, q pinQuery) (map[string]int, error) {
	return withCatalog(b, runRoot, func(c *catalog) (map[string]int, error) {
		s, err := c.scope()
		if err != nil {
			return nil, err
		}
		return s.pins(q, nil)
	})
}

// RunPins derives one run's own pin set — every journal record plus the
// manifests of directories no record covers: its contribution to the
// union-pin rule.
func RunPins(b storage.Backend, runRoot string) (map[string]int, error) {
	return runPins(b, runRoot, pinQuery{journal: true, manifests: manifestsUncovered})
}

// BlobRefs derives a run root's blob refcounts from its manifests alone:
// committed directories, staging trees (sealed or not — a concurrent save's
// staged manifests pin its blobs until the commit decides their fate), torn
// directories awaiting Repair and quarantined ones (preserved evidence
// stays readable).
func BlobRefs(b storage.Backend, runRoot string) (map[string]int, error) {
	return runPins(b, runRoot, pinQuery{manifests: manifestsAll})
}

// sweeper removes blobs for one operation: the store, the policy's pin
// query and the running blob accounting every policy reports from.
type sweeper struct {
	scope  *pinScope
	store  *storage.BlobStore
	query  pinQuery
	dryRun bool
	storage.SweepReport
}

// store opens the scope's store once (the attachment is already resolved).
func (s *pinScope) store() (*storage.BlobStore, error) {
	return s.cas.get(func() (*storage.BlobStore, error) { return storage.OpenCASAt(s.b, s.objects) })
}

// sweeper opens the scope's store for sweeping under a policy's query.
func (s *pinScope) sweeper(query pinQuery, dryRun bool) (*sweeper, error) {
	store, err := s.store()
	if err != nil {
		return nil, err
	}
	return &sweeper{scope: s, store: store, query: query, dryRun: dryRun}, nil
}

// sweep examines candidates against pins. nil candidates is the whole
// store, its trash area included: crashed-sweep trash is settled first, and
// staging residue goes too. The recheck is the policy's query narrowed to
// fresh journal reads, and re-lists the hub registry too: a run attached
// since the snapshot journals against this store like any peer.
func (w *sweeper) sweep(candidates []string, pins map[string]int) error {
	if candidates == nil {
		if err := w.disposeTrash(pins); err != nil {
			return err
		}
	}
	rep, err := w.store.Sweep(storage.SweepSpec{
		Candidates: candidates, Pins: pins, DryRun: w.dryRun,
		Recheck: func() (map[string]int, error) {
			w.scope.others = nil
			return w.scope.pins(pinQuery{journal: true, peers: true, retiredRecords: w.query.retiredRecords}, nil)
		},
	})
	if rep != nil {
		w.Add(rep)
	}
	return err
}

// policy is one collecting operation, one row of DESIGN.md's table, built by
// a constructor that has classified the records and filled the report's own
// fields.
type policy struct {
	rep *GCReport
	// candidates are the blobs the sweep examines: nil is the whole store,
	// empty is no sweep at all.
	candidates []string
	// dirs and records are what it retires of its own run; pinned are the
	// own run's records that pin, contents read or not.
	dirs    []string
	records []auditedRecord
	pinned  []auditedRecord
	// manifests says which manifests pin beside the journals of the run and
	// its peers.
	manifests manifestPins
	// upkeep, after a candidate sweep, settles crashed-sweep trash and removes
	// blob-put residue and the record-append residue named in staging.
	upkeep  bool
	staging []string
	// fix, when set, rewrites divergent records and adds missing ones from
	// the manifests it was audited against.
	fix *refAudit
}

// collect is the one collection driver. Every policy runs in one phase order,
// each phase started when the last request of the one before it returned:
// retired directories, the pin snapshot, the sweep, retired records, then
// upkeep (trash and residue) and the index fix. The snapshot is taken after the
// directories go, and the records go only after the sweep, so an interruption
// anywhere leaves only over-pinned garbage; the pin query names what the
// policy retires, so it pins nothing of it and a dry run — where all of it
// still exists — computes the same report.
func (s *pinScope) collect(p policy, dryRun bool) (*GCReport, error) {
	rep := p.rep
	rep.DryRun = dryRun
	query := pinQuery{journal: true, manifests: p.manifests, peers: true,
		retiredRecords: map[string]bool{}, retiredDirs: map[string]bool{}}
	for _, a := range p.records {
		query.retiredRecords[a.entry.Name] = true
		rep.RecordsRetired = append(rep.RecordsRetired, a.entry.Name)
	}
	for _, d := range p.dirs {
		query.retiredDirs[d] = true
	}
	rep.Removed = p.dirs
	w := &sweeper{scope: s, query: query, dryRun: dryRun}
	defer func() { rep.SweepReport = w.SweepReport }()
	if len(p.dirs) > 0 && !dryRun {
		// Directories change from here on: the catalog was a snapshot, so the
		// pin query lists the run root afresh.
		s.self.cat = nil
		if err := parallel.ForEachFirst(storage.RequestWidth, len(p.dirs), func(i int) error {
			if err := s.b.Remove(p.dirs[i]); err != nil {
				return fmt.Errorf("ckpt: %s: remove %s: %w", rep.Mode, p.dirs[i], err)
			}
			return nil
		}); err != nil {
			return rep, err
		}
	}
	sweep := p.candidates == nil || len(p.candidates) > 0
	if sweep || p.upkeep {
		var err error
		if w, err = s.sweeper(query, dryRun); err != nil {
			return rep, err
		}
	}
	if sweep {
		pins, err := s.pins(query, p.pinned)
		if err != nil {
			return rep, err
		}
		rep.Referenced = len(pins)
		if p.candidates == nil && !s.b.Exists(w.store.Root()) {
			return rep, nil // no store yet: nothing to sweep
		}
		if err := w.sweep(p.candidates, pins); err != nil {
			return rep, err
		}
	}
	// The read phase is over: what asks for pins from here on (settling
	// trash) lists the run root afresh and restarts nothing.
	if s.self != nil {
		s.self.cat = nil
	}
	if !dryRun {
		if err := parallel.ForEachFirst(storage.RequestWidth, len(p.records), func(i int) error {
			return s.self.ix.Remove(p.records[i].entry)
		}); err != nil {
			return rep, err
		}
	}
	if p.upkeep {
		if err := w.disposeTrash(nil); err != nil {
			return rep, err
		}
		for i, name := range p.staging {
			p.staging[i] = s.self.ix.Dir() + "/" + name
		}
		if err := w.cleanResidue(p.staging); err != nil {
			return rep, fmt.Errorf("ckpt: gc: %w", err)
		}
	}
	var err error
	if p.fix != nil {
		rep.IndexRepaired, err = repairIndex(s.self.ix, p.fix, dryRun)
	}
	return rep, err
}

// HubGC is the hub-level policy: the whole shared store is the candidate
// set, nothing is retired, and the pins are the union of every attached
// run's own pins (RunPins) — a digest referenced by ANY attached run
// survives.
func HubGC(b storage.Backend, hubRoot string, dryRun bool) (*GCReport, error) {
	if _, err := storage.ReadHubConfig(b, hubRoot); err != nil {
		return nil, fmt.Errorf("ckpt: hub gc: %w", err)
	}
	scope := &pinScope{b: b, hub: hubRoot, objects: storage.HubObjectsRoot(hubRoot)}
	runs, err := scope.peers()
	if err != nil {
		return nil, err
	}
	rep := &GCReport{Mode: "hub"}
	for _, r := range runs {
		rep.Runs = append(rep.Runs, r.root)
	}
	return scope.collect(policy{rep: rep, manifests: manifestsUncovered}, dryRun)
}

// disposeTrash settles what a sweep that crashed between trash and purge
// left behind: blobs the pins cover are restored, the rest purged. nil pins
// asks the policy's query — only when there is trash — and says no
// whole-store sweep follows. The accounting rule is the same for every
// policy and for its dry run: purged trash is removed blobs and freed
// bytes; restored trash is examined and kept — counted here unless the
// whole-store listing that follows a real restore counts it, or the blob
// was re-published meanwhile and is listed anyway.
func (w *sweeper) disposeTrash(pins map[string]int) error {
	trash, err := w.store.ListTrash()
	if err != nil || len(trash) == 0 {
		return err
	}
	listed := pins != nil && !w.dryRun
	if pins == nil {
		if pins, err = w.scope.pins(w.query, nil); err != nil {
			return err
		}
	}
	// Settled side by side, like a sweep's last phase; accounted in trash
	// order.
	settled, counted := make([]bool, len(trash)), make([]bool, len(trash))
	err = parallel.ForEachFirst(storage.RequestWidth, len(trash), func(i int) error {
		d := trash[i].Digest
		if pins[d] == 0 {
			if !w.dryRun {
				if err := w.store.PurgeTrash(d); err != nil {
					return fmt.Errorf("ckpt: purge trashed blob %s: %w", d, err)
				}
			}
		} else {
			counted[i] = !listed && !w.store.Has(d)
			if !w.dryRun {
				if err := w.store.Restore(d); err != nil {
					return fmt.Errorf("ckpt: restore trashed blob %s: %w", d, err)
				}
			}
		}
		settled[i] = true
		return nil
	})
	for i, t := range trash {
		switch {
		case !settled[i]:
		case pins[t.Digest] == 0:
			w.RemovedBlobs = append(w.RemovedBlobs, t.Digest)
			if t.Size > 0 {
				w.BytesFreed += t.Size
			}
		default:
			if counted[i] {
				w.Examined++
				w.Kept++
			}
			w.Restored = append(w.Restored, t.Digest)
		}
	}
	return err
}

// cleanResidue removes crash residue that needs no store listing: the
// store's blob-put staging files, then the given record-append staging
// files.
func (w *sweeper) cleanResidue(recordStaging []string) error {
	residue, err := w.store.StagingResidue()
	if err != nil {
		return err
	}
	for _, p := range append(residue, recordStaging...) {
		if !w.dryRun {
			if err := w.scope.b.Remove(p); err != nil {
				return fmt.Errorf("remove staging residue %s: %w", p, err)
			}
		}
		w.RemovedStaging = append(w.RemovedStaging, p)
	}
	return nil
}
