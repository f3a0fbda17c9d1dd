// Crash-consistent checkpoint commits.
//
// On a rename-capable backend a checkpoint directory is never built in
// place: writers stage every file into `<dir>.tmp`, finish by writing a
// COMMITTED marker carrying each file's size and CRC32, and publish the
// staged tree with one atomic rename.
//
// On a backend without rename (object stores — storage.RenameSupported
// reports false) the protocol re-derives as write-objects-then-manifest:
// the files are PUT directly under their final keys, and the COMMITTED
// marker object is written last — its appearance is the atomic visibility
// point, exactly the role the rename plays locally. A crash before the
// marker PUT leaves marker-less objects that Scan classifies as torn; a
// crash after it leaves a fully committed checkpoint; there is no
// in-between, because the marker PUT itself is atomic.
//
// Either way the run root's `latest` pointer only moves after publication,
// so a crash at any point leaves either the previous checkpoint or the new
// one — readers can never observe a hybrid. Scan classifies every directory
// under a run root and Repair restores the root to a healthy state; both are
// views over the run catalog (catalog.go), which owns the listing, the
// classifier and the lazily read marker. This file keeps the commit contract
// itself: the marker, its two checks (CommitMarker.check — "checked" —
// and crcPass, which "verified" adds), the transaction, and Repair's actions.
//
// The one-file rule: a small file a reader may be looking at — the pointer, a
// journal record, a marker being replaced (Adopt's seal) — is only ever
// overwritten through storage.PublishFile, where the rename / no-rename
// difference lives for single files; only Begin (a whole directory) and the
// blob store (a streamed payload) fork on it themselves.
//
// The immutability rule: once a directory is published its file set never
// changes. Whatever form an output takes — content-addressed included — it
// takes in staging, before the marker (Txn.Publish); the marker has two
// writers, Txn.Commit and Adopt's seal. The one exception is Repair removing
// checkpoint-format files a verified marker does not list (what an older
// binary's in-place conversion left when it crashed).
package ckpt

import (
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strings"
	"sync"

	"llmtailor/internal/storage"
)

// CommitMarkerName is the marker file a committed checkpoint carries.
const CommitMarkerName = "COMMITTED"

// stagingSuffix marks in-progress checkpoint directories.
const stagingSuffix = ".tmp"

// quarantineSuffix marks pre-protocol checkpoint directories that failed
// the adopt readability pass: preserved for inspection, excluded from
// resume resolution, never removed automatically (see Adopt).
const quarantineSuffix = ".quarantined"

// StagingDir returns the staging directory a checkpoint is built in.
func StagingDir(dir string) string { return dir + stagingSuffix }

// FileSum is one staged file's integrity record in the commit marker.
type FileSum struct {
	Size  int64  `json:"size"`
	CRC32 uint32 `json:"crc32"`
}

// CommitMarker is the content of the COMMITTED file: which files the
// checkpoint holds and what bytes they must contain.
type CommitMarker struct {
	Version int `json:"version"`
	// Step mirrors the checkpoint's global step so recovery can order
	// committed directories without opening them.
	Step int `json:"step"`
	// Files maps dir-relative paths to their sizes and CRCs.
	Files map[string]FileSum `json:"files"`
}

// sumBackend wraps a Backend and records the size and CRC32 of every file
// written through it, so the commit marker is built from the bytes that
// actually went to storage rather than a second read pass.
type sumBackend struct {
	storage.Backend

	mu   sync.Mutex
	sums map[string]FileSum
}

func newSumBackend(b storage.Backend) *sumBackend {
	return &sumBackend{Backend: b, sums: map[string]FileSum{}}
}

func (s *sumBackend) record(name string, size int64, crc uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sums[name] = FileSum{Size: size, CRC32: crc}
}

// sumsUnder returns the recorded sums of the files written under dir, keyed
// by dir-relative path — a commit marker's file listing.
func (s *sumBackend) sumsUnder(dir string) map[string]FileSum {
	prefix := dir + "/"
	out := map[string]FileSum{}
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, sum := range s.sums {
		if strings.HasPrefix(name, prefix) {
			out[name[len(prefix):]] = sum
		}
	}
	return out
}

// WriteFile implements Backend, recording the file's sum.
func (s *sumBackend) WriteFile(name string, data []byte) error {
	if err := s.Backend.WriteFile(name, data); err != nil {
		return err
	}
	s.record(name, int64(len(data)), crc32.ChecksumIEEE(data))
	return nil
}

// Create implements Backend; the stream's sum is recorded at Close.
func (s *sumBackend) Create(name string) (io.WriteCloser, error) {
	w, err := s.Backend.Create(name)
	if err != nil {
		return nil, err
	}
	return &sumWriter{s: s, name: name, w: w, crc: crc32.NewIEEE()}, nil
}

// Remove implements Backend, forgetting the sums of what it removes: a file
// staged and then taken back is not part of the commit.
func (s *sumBackend) Remove(name string) error {
	if err := s.Backend.Remove(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for staged := range s.sums {
		if staged == name || strings.HasPrefix(staged, name+"/") {
			delete(s.sums, staged)
		}
	}
	return nil
}

// Unwrap exposes the wrapped backend to storage's capability walk: what is
// staged through a transaction gets the base's rename, compose and spool.
// A storage.Compose through it is NOT recorded; nothing staged is multipart.
func (s *sumBackend) Unwrap() storage.Backend { return s.Backend }

type sumWriter struct {
	s    *sumBackend
	name string
	w    io.WriteCloser
	crc  interface {
		io.Writer
		Sum32() uint32
	}
	n int64
}

func (w *sumWriter) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	if n > 0 {
		w.crc.Write(p[:n])
		w.n += int64(n)
	}
	return n, err
}

func (w *sumWriter) Close() error {
	if err := w.w.Close(); err != nil {
		return err
	}
	w.s.record(w.name, w.n, w.crc.Sum32())
	return nil
}

// Txn is one checkpoint commit transaction: callers write every file of a
// checkpoint through Backend() under Dir(), then Commit publishes the
// staged tree atomically. Abandoning a Txn (crash, error) leaves only an
// orphaned staging directory that Scan/Repair identify and clean.
type Txn struct {
	base      storage.Backend
	rec       *sumBackend
	final     string
	staging   string
	committed bool
	aborted   bool
}

// Begin opens a commit transaction targeting dir, clearing any stale
// staging directory a previous crash left behind.
func Begin(b storage.Backend, dir string) (*Txn, error) {
	if dir == "" {
		return nil, fmt.Errorf("ckpt: empty checkpoint dir")
	}
	if IsStagingPath(dir) {
		return nil, fmt.Errorf("ckpt: %s: target must not use the staging suffix %q", dir, stagingSuffix)
	}
	if !storage.RenameSupported(b) {
		// No-rename mode: build under the final keys, publish via the
		// marker object (staging == final is the mode discriminator). A
		// prior incarnation of the same name is cleared marker-FIRST — the
		// one atomic DELETE that makes it stop scanning as committed —
		// before its remaining objects go; a crash in between leaves a
		// marker-less (torn) directory, never a half-committed one.
		if b.Exists(dir) {
			if err := b.Remove(dir + "/" + CommitMarkerName); err != nil && !storage.IsNotExist(err) {
				return nil, fmt.Errorf("ckpt: clear prior commit marker under %s: %w", dir, err)
			}
			if err := b.Remove(dir); err != nil {
				return nil, fmt.Errorf("ckpt: clear prior checkpoint %s: %w", dir, err)
			}
		}
		return &Txn{base: b, rec: newSumBackend(b), final: dir, staging: dir}, nil
	}
	staging := StagingDir(dir)
	if b.Exists(staging) {
		if err := b.Remove(staging); err != nil {
			return nil, fmt.Errorf("ckpt: clear stale staging %s: %w", staging, err)
		}
	}
	return &Txn{base: b, rec: newSumBackend(b), final: dir, staging: staging}, nil
}

// Backend returns the recording backend all staged writes must go through.
func (t *Txn) Backend() storage.Backend { return t.rec }

// Dir returns the staging directory to write the checkpoint files into.
func (t *Txn) Dir() string { return t.staging }

// Commit writes the COMMITTED marker into the staging directory and
// atomically renames it over the final path (replacing a previous
// checkpoint of the same name); in no-rename mode the marker write itself
// is the publication. After Commit returns nil the checkpoint is durable
// and visible; on error the staging state remains for Repair.
func (t *Txn) Commit(step int) error {
	if t.committed {
		return nil
	}
	if t.aborted {
		return fmt.Errorf("ckpt: commit %s after abort", t.final)
	}
	marker := CommitMarker{Version: FormatVersion, Step: step, Files: t.rec.sumsUnder(t.staging)}
	if len(marker.Files) == 0 {
		return fmt.Errorf("ckpt: commit %s: no staged files", t.final)
	}
	if err := writeJSON(t.base, t.staging+"/"+CommitMarkerName, &marker); err != nil {
		return err
	}
	if t.staging == t.final {
		// No-rename mode: the marker object's appearance was the atomic
		// visibility point — the checkpoint is already published.
		t.committed = true
		return nil
	}
	if t.base.Exists(t.final) {
		if err := t.base.Remove(t.final); err != nil {
			return fmt.Errorf("ckpt: replace %s: %w", t.final, err)
		}
	}
	if err := t.base.Rename(t.staging, t.final); err != nil {
		return fmt.Errorf("ckpt: publish %s: %w", t.final, err)
	}
	t.committed = true
	return nil
}

// Publish is the tail merge, blend and reshard share, in the one crash-safe
// order: give the staged output its final form (dedup: content-addressed, see
// contentAddress), Commit, then move the run root's latest pointer to the
// output (latest: false for a weights-only blend, which training cannot
// resume, and reshard's NoLatest). Everything that shapes the directory
// precedes the marker, so what a reader finds under the published name never
// changes. It returns the content-addressing counters.
func (t *Txn) Publish(step int, latest, dedup bool) (rep DedupifyReport, err error) {
	if dedup {
		if rep, err = t.contentAddress(step); err != nil {
			return rep, fmt.Errorf("ckpt: dedup output: %w", err)
		}
	}
	if err = t.Commit(step); err != nil || !latest {
		return rep, err
	}
	return rep, WriteLatestPointer(t.base, t.final)
}

// Abort drops the staging directory (best effort). No-op after Commit.
func (t *Txn) Abort() {
	if t.committed || t.aborted {
		return
	}
	t.aborted = true
	t.base.Remove(t.staging)
}

// ReadCommitMarker reads and decodes a checkpoint's COMMITTED marker.
func ReadCommitMarker(b storage.Backend, dir string) (CommitMarker, error) {
	var m CommitMarker
	if err := readJSON(b, dir+"/"+CommitMarkerName, &m); err != nil {
		return CommitMarker{}, fmt.Errorf("ckpt: %s: not committed: %w", dir, err)
	}
	if m.Version != FormatVersion {
		return CommitMarker{}, fmt.Errorf("ckpt: %s: commit marker version %d, want %d", dir, m.Version, FormatVersion)
	}
	return m, nil
}

// CheckCommit verifies the cheap half of the commit contract: the marker
// exists, decodes, and every listed file is present with the recorded
// size. Latest and List use it on every resolution; the CRC pass is left
// to VerifyCommit (torn files cannot be published by the rename protocol,
// so a size check only guards against external mutilation).
func CheckCommit(b storage.Backend, dir string) error {
	m, err := ReadCommitMarker(b, dir)
	if err != nil {
		return err
	}
	return m.check(b, dir)
}

// VerifyCommit verifies the full commit contract: CheckCommit plus a
// streaming CRC32 pass over every committed file.
func VerifyCommit(b storage.Backend, dir string) error {
	m, err := ReadCommitMarker(b, dir)
	if err == nil {
		err = m.check(b, dir)
	}
	if err != nil {
		return err
	}
	return m.crcPass(b, dir, nil)
}

// sortedFiles returns the marker's file names in order, so a failing check
// names the same file every time.
func (m *CommitMarker) sortedFiles() []string {
	names := make([]string, 0, len(m.Files))
	for name := range m.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// check is the one definition of "checked" (CheckCommit, entry.checked):
// every listed file is present at its recorded size.
func (m *CommitMarker) check(b storage.Backend, dir string) error {
	for _, name := range m.sortedFiles() {
		size, err := b.Stat(dir + "/" + name)
		if err != nil {
			return fmt.Errorf("ckpt: %s: committed file %s missing: %w", dir, name, err)
		}
		if want := m.Files[name].Size; size != want {
			return fmt.Errorf("ckpt: %s: file %s is %d bytes, marker says %d", dir, name, size, want)
		}
	}
	return nil
}

// crcPass is what "verified" adds to "checked" (VerifyCommit,
// entry.verified): every listed file's bytes match the recorded CRC32. held,
// when non-nil, supplies files the caller already has in memory (nil for the
// rest), which are then not read again.
func (m *CommitMarker) crcPass(b storage.Backend, dir string, held func(rel string) []byte) error {
	for _, name := range m.sortedFiles() {
		var data []byte
		if held != nil {
			data = held(name)
		}
		got := crc32.ChecksumIEEE(data)
		if data == nil {
			sum, err := fileSum(b, dir+"/"+name)
			if err != nil {
				return fmt.Errorf("ckpt: %s: %w", dir, err)
			}
			got = sum.CRC32
		}
		if want := m.Files[name].CRC32; got != want {
			return fmt.Errorf("ckpt: %s: file %s CRC %08x, marker says %08x", dir, name, got, want)
		}
	}
	return nil
}

// DirState classifies a checkpoint directory during recovery.
type DirState int

const (
	// StateCommitted: the marker verifies; the checkpoint is usable.
	StateCommitted DirState = iota
	// StateTorn: the directory looks like a checkpoint but its commit
	// contract fails (missing marker, missing file, size or CRC mismatch,
	// or an empty directory).
	StateTorn
	// StateOrphanTmp: an abandoned staging directory from a crashed write.
	StateOrphanTmp
	// StateUnpublished: a staging directory whose COMMITTED marker fully
	// verifies — the crash hit between sealing and the publishing rename
	// (the replace-in-place window removes the old directory first, so
	// this staged tree may be the only surviving copy). Repair completes
	// the publication instead of deleting it.
	StateUnpublished
	// StateQuarantined: a pre-protocol checkpoint that failed the adopt
	// readability pass and was set aside under the .quarantined suffix.
	// Repair leaves it alone; removal is a deliberate operator action.
	StateQuarantined
	// StateConverting: committed and readable, but manifests sit beside payload
	// containers — an older binary's in-place conversion crashed here, or
	// containers were dropped into a content-addressed directory. No current
	// writer leaves one. Repair removes what the marker does not list.
	StateConverting
)

// String names the state for reports.
func (s DirState) String() string {
	switch s {
	case StateCommitted:
		return "committed"
	case StateTorn:
		return "torn"
	case StateOrphanTmp:
		return "orphaned-tmp"
	case StateUnpublished:
		return "unpublished"
	case StateQuarantined:
		return "quarantined"
	case StateConverting:
		return "converting"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// DirStatus is one scanned directory's classification.
type DirStatus struct {
	// Path is the directory path relative to the backend root.
	Path string
	// State is the recovery classification.
	State DirState
	// Step is the checkpoint's step when determinable (marker, manifest
	// or directory name), else -1.
	Step int
	// Detail explains torn and orphan states.
	Detail string
}

// Scan classifies every checkpoint directory directly under a run root.
// runRoot "" scans the backend root — the single-segment output edge case
// (e.g. a root-level "merged" directory) is covered because any directory
// carrying a commit marker or checkpoint files is a candidate, whatever
// its name. Results are sorted by step, then path; directories that look
// nothing like checkpoints are skipped. It is the catalog's classifier
// (catalog.scan) over one listing.
func Scan(b storage.Backend, runRoot string) ([]DirStatus, error) {
	rep, err := ScanRun(b, runRoot, ScanViews{})
	if err != nil {
		return nil, err
	}
	return rep.Dirs, nil
}

// ScanViews selects which doctor views ScanRun collects beyond the always-on
// directory classification.
type ScanViews struct {
	Blobs  bool
	Refs   bool
	Codecs bool
}

// RunScan aggregates the doctor views of one run root. Dirs is always
// populated; the other slices only when requested.
type RunScan struct {
	Dirs   []DirStatus
	Blobs  []BlobStatus
	Refs   []RefStatus
	Codecs []CodecHealth
}

// ScanRun is the doctor: every requested view over ONE catalog, so the
// views read each marker and manifest once between them and cannot disagree
// about a directory. A missing run root is an error.
func ScanRun(b storage.Backend, runRoot string, views ScanViews) (*RunScan, error) {
	rep, err := withCatalog(b, runRoot, func(c *catalog) (rep *RunScan, err error) {
		if c.absent != nil {
			return nil, c.absent
		}
		rep = &RunScan{}
		if rep.Dirs, err = c.scan(); err == nil && views.Blobs {
			rep.Blobs, err = scanBlobs(c)
		}
		if err == nil && views.Refs {
			rep.Refs, err = scanRefs(c)
		}
		if err == nil && views.Codecs {
			rep.Codecs, err = scanCodecs(c)
		}
		return rep, err
	})
	if err != nil {
		return nil, fmt.Errorf("ckpt: scan %q: %w", runRoot, err)
	}
	return rep, nil
}

// removeUnlistedForm settles a directory Scan found holding both payload forms
// (its marker verified): the checkpoint-format files the marker does not list
// are removed, nothing is hashed, written or re-sealed. The order keeps a crash
// in between convergent: model.ltsf goes first — its going flips readers to the
// manifests, which need no container — and model.ltmf last, so until the last
// stray file is gone Scan still sees two forms.
func removeUnlistedForm(b storage.Backend, dir string) error {
	m, err := ReadCommitMarker(b, dir)
	if err != nil {
		return err
	}
	names := []string{"model.ltsf"}
	shards, _ := b.List(dir + "/zero")
	for _, name := range shards {
		if strings.HasSuffix(name, ".ltos") || strings.HasSuffix(name, ".ltom") {
			names = append(names, "zero/"+name)
		}
	}
	for _, name := range append(names, WeightManifestName) {
		if _, listed := m.Files[name]; listed {
			continue
		}
		if err := b.Remove(dir + "/" + name); err != nil && !storage.IsNotExist(err) {
			return fmt.Errorf("ckpt: %s: remove unlisted %s: %w", dir, name, err)
		}
	}
	return nil
}

// RepairReport records what Repair did.
type RepairReport struct {
	// Removed lists deleted directories (orphaned staging and torn).
	Removed []string
	// Converted lists committed directories that held both payload forms
	// (StateConverting) and were settled to the one their marker lists.
	Converted []string
	// Published lists sealed-but-unpublished staging directories whose
	// publication Repair completed (roll-forward of a crash that hit
	// between the COMMITTED marker and the rename).
	Published []string
	// BlobStagingRemoved lists blob-store staging residue (crashed blob
	// puts) Repair cleaned. Published and unreferenced blobs are GC's
	// territory, never Repair's.
	BlobStagingRemoved []string
	// RefRecordsRemoved and RefRecordsWritten record the ref-index
	// reconcile: stale (orphaned / superseded / corrupt) journal records
	// removed, and records rebuilt from the manifests of sealed dedup
	// directories. Repair is the quiescent path, so unlike GC it may
	// judge an orphaned record stale.
	RefRecordsRemoved []string
	RefRecordsWritten []string
	// RefStagingRemoved lists crashed record-append residue cleaned.
	RefStagingRemoved []string
	// TrashRestored and TrashPurged dispose of blobs a crashed sweep left
	// in the store's trash area: still-referenced ones are restored (this
	// must happen before Scan, or their checkpoints would read as torn),
	// the rest dropped.
	TrashRestored []string
	TrashPurged   []string
	// LatestFixed is set when the run root's latest pointer was rewritten
	// (or removed, when no committed checkpoint remains).
	LatestFixed bool
	// Latest is the committed checkpoint the pointer resolves to after
	// repair ("" when none survive).
	Latest string
}

// Repair restores a run root to a healthy state: sealed-but-unpublished
// staging directories are rolled forward, directories holding both payload
// forms lose the files their marker does not list, orphaned staging
// directories and torn checkpoints are removed, stray pointer staging files
// are cleaned, and the latest pointer is re-aimed at the newest committed
// checkpoint (or removed when none remain). It is idempotent: rerunning after
// a crash mid-repair converges.
func Repair(b storage.Backend, runRoot string) (*RepairReport, error) {
	rep := &RepairReport{}
	// One catalog serves the trash disposal's pins and the classification:
	// restoring or purging trash changes no directory.
	c, err := openPresentCatalog(b, runRoot)
	if err != nil {
		return nil, fmt.Errorf("ckpt: scan %q: %w", runRoot, err)
	}
	scope, err := c.scope()
	if err != nil {
		return nil, err
	}
	// First, dispose of trash a crashed sweep left behind: a referenced
	// blob stranded there would make its (perfectly good) checkpoint scan
	// as torn — and be deleted below — so restoration must precede the scan.
	// Repair is quiescent, so the manifests alone are the truth here — plus,
	// on a hub-attached run, whatever peer runs still reference.
	w, err := scope.sweeper(pinQuery{manifests: manifestsAll, peers: true}, false)
	if err != nil {
		return nil, err
	}
	err = w.disposeTrash(nil)
	rep.TrashRestored, rep.TrashPurged = w.Restored, w.RemovedBlobs
	if err != nil {
		return rep, err
	}
	statuses, err := c.scan()
	if err != nil {
		return nil, err
	}
	var newest *DirStatus
	for i := range statuses {
		st := &statuses[i]
		switch st.State {
		case StateCommitted:
		case StateConverting:
			// Before the ref reconcile below reads every manifest as ground
			// truth.
			if err := removeUnlistedForm(b, st.Path); err != nil {
				return nil, fmt.Errorf("ckpt: repair: %w", err)
			}
			rep.Converted = append(rep.Converted, st.Path)
		case StateUnpublished:
			// Roll the publication forward. A staged tree can only
			// coexist with its final directory when the crash hit before
			// the replace-in-place removal, so the staged copy is the
			// newer save and wins.
			final := strings.TrimSuffix(st.Path, stagingSuffix)
			if b.Exists(final) {
				if err := b.Remove(final); err != nil {
					return nil, fmt.Errorf("ckpt: repair: replace %s: %w", final, err)
				}
			}
			if err := b.Rename(st.Path, final); err != nil {
				return nil, fmt.Errorf("ckpt: repair: publish %s: %w", st.Path, err)
			}
			rep.Published = append(rep.Published, final)
			st.Path = final
		case StateQuarantined:
			// Preserved evidence: quarantined directories are only ever
			// removed by a deliberate operator action.
			continue
		default:
			if err := b.Remove(st.Path); err != nil {
				return nil, fmt.Errorf("ckpt: repair: remove %s: %w", st.Path, err)
			}
			rep.Removed = append(rep.Removed, st.Path)
			continue
		}
		if newest == nil || st.Step >= newest.Step {
			newest = st
		}
	}
	// Blob-store staging residue is crash garbage of the same kind as an
	// orphaned .tmp dir (a blob only exists once its publishing rename
	// ran), so Repair cleans it; sweeping published blobs stays a
	// deliberate GC action.
	if err := w.cleanResidue(nil); err != nil {
		return nil, fmt.Errorf("ckpt: repair: %w", err)
	}
	rep.BlobStagingRemoved = w.RemovedStaging
	// Reconcile the ref index against the manifests now that every
	// directory is in its final state: stale records die, missing ones are
	// rebuilt, so the next generational sweep trusts an index that agrees
	// with ground truth. Directories changed above: the catalog is a
	// snapshot, so the reconcile reads a fresh one.
	if len(rep.Converted)+len(rep.Published)+len(rep.Removed) > 0 {
		if c, err = openCatalog(b, runRoot); err != nil {
			return nil, err
		}
	}
	recRep, err := reconcileRefIndex(scope.self.ix, c)
	if err != nil {
		return nil, err
	}
	rep.RefRecordsRemoved = recRep.RemovedRecords
	rep.RefRecordsWritten = recRep.WrittenRecords
	rep.RefStagingRemoved = recRep.StagingRemoved
	// A crashed pointer update leaves latest.tmp behind.
	pointer := latestPointer(runRoot)
	if b.Exists(pointer + stagingSuffix) {
		b.Remove(pointer + stagingSuffix)
	}
	current, _ := readLatestPointer(b, runRoot)
	switch {
	case newest == nil:
		if current != "" {
			if err := b.Remove(pointer); err != nil {
				return nil, fmt.Errorf("ckpt: repair: remove dangling pointer: %w", err)
			}
			rep.LatestFixed = true
		}
	case current != newest.Path:
		if err := WriteLatestPointer(b, newest.Path); err != nil {
			return nil, err
		}
		rep.LatestFixed = true
	}
	if newest != nil {
		rep.Latest = newest.Path
	}
	return rep, nil
}
