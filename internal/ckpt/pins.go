// Pins and sweeps: the one place references become a keep set, and the one
// way a blob leaves a store.
//
// Every collecting operation — full GC, generational GC, retention, hub GC,
// Repair's trash disposal — is a policy: a choice of candidate blobs and of
// journal records and directories to retire. What is pinned and how a blob
// is removed are not policy. Pins are one query (pinQuery) over a scope
// resolved once per operation (the run, its hub attachment, its peers), so
// the union-pin rule — a digest is reclaimable only when it is dead across
// ALL runs attached to its store — holds for every policy by construction.
// Removal is storage.BlobStore.Sweep's two-phase trash → recheck → purge-or-
// restore, and the recheck is always the same query: the journals of the
// run and every peer, re-read after the victims were trashed, minus the
// records the sweep itself retired. A saver in any attached run journals
// before its reuse check, so the record-precedes-blobs proof (see
// storage.BlobStore.Sweep) covers sweeps and savers in different runs as
// it covers one run. DESIGN.md "Garbage collection policies" has the table.
package ckpt

import (
	"errors"
	"fmt"

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

// scope resolves the scope of the run root c catalogs, with c as what its pin
// queries read of the run's own directories.
func (c *catalog) scope() (*pinScope, error) {
	s, err := openRunScope(c.b, c.root)
	if err == nil {
		s.self.cat = c
	}
	return s, err
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
// listing the policy already took, so classifying records and pinning them
// cost one listing, not two.
func (r pinRun) load(b storage.Backend, q pinQuery, listed []storage.RefEntry) (runRefs, error) {
	var refs runRefs
	covered := map[string]bool{}
	if q.journal {
		if listed == nil {
			var err error
			if listed, _, _, err = r.ix.Entries(); err != nil {
				return refs, err
			}
		}
		for _, e := range listed {
			if q.retiredRecords[e.Name] {
				continue
			}
			// An unreadable record pins nothing itself; its directory, if
			// any, stays uncovered and pins through its manifests.
			if rec, err := r.ix.Read(e); err == nil {
				refs.records = append(refs.records, rec)
				covered[e.Key] = true
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
func (s *pinScope) pins(q pinQuery, listed []storage.RefEntry) (map[string]int, error) {
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
		for _, p := range peers {
			refs, err := p.load(s.b, pq, nil)
			if err != nil {
				return nil, fmt.Errorf("ckpt: pins of hub run %s: %w", p.root, err)
			}
			all = append(all, refs)
		}
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

// openStore opens the scope's store (the attachment is already resolved).
func (s *pinScope) openStore() (*storage.BlobStore, error) { return storage.OpenCASAt(s.b, s.objects) }

// sweeper opens the scope's store for sweeping under a policy's query.
func (s *pinScope) sweeper(query pinQuery, dryRun bool) (*sweeper, error) {
	store, err := s.openStore()
	if err != nil {
		return nil, err
	}
	return &sweeper{scope: s, store: store, query: query, dryRun: dryRun}, nil
}

// sweep examines candidates against pins. nil candidates is the whole
// store: crashed-sweep trash is settled first, and staging residue goes
// too. The recheck is the policy's query narrowed to fresh journal reads,
// and re-lists the hub registry too: a run attached since the snapshot
// journals against this store like any peer.
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
	for _, t := range trash {
		if pins[t.Digest] == 0 {
			if !w.dryRun {
				if err := w.store.PurgeTrash(t.Digest); err != nil {
					return fmt.Errorf("ckpt: purge trashed blob %s: %w", t.Digest, err)
				}
			}
			w.RemovedBlobs = append(w.RemovedBlobs, t.Digest)
			if t.Size > 0 {
				w.BytesFreed += t.Size
			}
			continue
		}
		if !listed && !w.store.Has(t.Digest) {
			w.Examined++
			w.Kept++
		}
		if !w.dryRun {
			if err := w.store.Restore(t.Digest); err != nil {
				return fmt.Errorf("ckpt: restore trashed blob %s: %w", t.Digest, err)
			}
		}
		w.Restored = append(w.Restored, t.Digest)
	}
	return nil
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
