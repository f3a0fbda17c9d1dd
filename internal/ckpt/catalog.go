// The run catalog (DESIGN.md "The run catalog").
//
// Every operation that starts from "which directories does this run root
// hold, and which are usable" — Scan, List/Latest, the pin query's manifest
// walk, both GCs, Retain, Repair, AdoptAll, the doctor views — reads one
// catalog: ONE listing of the run root, one entry per directory. An entry
// knows what its name says (final, staging or quarantined; journal key; the
// step of a `checkpoint-<step>` name) and answers lazily, asking the backend
// each question at most once, what a request says: the commit marker
// (checked, verified), manifest.json, the layout decision (read.go's
// decideLayout) and the weight and shard manifests. The views here (the
// directory classifier, the committed list, the latest target) and the
// reference view in refs.go are functions of those answers, so two
// operations cannot disagree about a directory.
//
// A catalog is a snapshot for one read phase, never a cache across
// mutations: an operation that changes directories opens a fresh one before
// it reads again. It is used by one goroutine.
package ckpt

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"llmtailor/internal/storage"
)

// IsQuarantinePath reports whether a path names a quarantined directory.
func IsQuarantinePath(name string) bool {
	return strings.HasSuffix(strings.TrimSuffix(name, "/"), quarantineSuffix)
}

// IsStagingPath reports whether a path names a staging directory.
func IsStagingPath(name string) bool {
	return strings.HasSuffix(strings.TrimSuffix(name, "/"), stagingSuffix)
}

// errRetired reports that a directory the catalog listed went away under its
// reader: beside a live saver a listed directory can be retired (an in-place
// replace's Remove) or published under another name (the staging rename)
// before its files are read. Reads that a pin or a report depends on detect
// that (entry.retired) and the operation restarts on a fresh catalog
// (withCatalog), so a renamed tree's manifests are read under the name they
// moved to, not dropped.
var errRetired = errors.New("ckpt: a listed checkpoint directory was retired or published under the reader")

// catalogAttempts bounds the restarts: a root that changed under three
// listings in a row has a writer faster than the reader, and the error says so.
const catalogAttempts = 3

// memo is one lazily asked answer.
type memo[T any] struct {
	done bool
	v    T
	err  error
}

func (m *memo[T]) get(ask func() (T, error)) (T, error) {
	if !m.done {
		m.v, m.err = ask()
		m.done = true
	}
	return m.v, m.err
}

// catalog is one listing of a run root.
type catalog struct {
	b    storage.Backend
	root string
	// absent is the listing's error when the run root does not exist: one
	// answer each consumer reacts to in its own way (Scan and List fail; the
	// pin query, Retain and generational GC see nothing saved yet).
	absent  error
	entries []*entry
	cas     memo[*storage.BlobStore]
}

// openCatalog lists runRoot ("" is the backend root) once. The blob store's
// directory is not a checkpoint directory and gets no entry.
func openCatalog(b storage.Backend, runRoot string) (*catalog, error) {
	c := &catalog{b: b, root: runRoot}
	names, err := b.List(runRoot)
	if err != nil {
		if !storage.IsNotExist(err) {
			return nil, err
		}
		c.absent = err
	}
	for _, n := range names {
		if name := strings.TrimSuffix(n, "/"); name != n && name != ObjectsDirName {
			c.entries = append(c.entries, c.entryOf(name))
		}
	}
	return c, nil
}

// openPresentCatalog is openCatalog for the consumers to which an absent run
// root is an error.
func openPresentCatalog(b storage.Backend, runRoot string) (*catalog, error) {
	c, err := openCatalog(b, runRoot)
	if err == nil && c.absent != nil {
		err = c.absent
	}
	return c, err
}

// withCatalog runs op over a fresh catalog of runRoot, and again from the top
// when it reports errRetired. That is safe for every caller: each reads
// before it removes (GC and Retain gather every reference before the first
// removal), so the restart repeats a read phase without side effects.
func withCatalog[T any](b storage.Backend, runRoot string, op func(*catalog) (T, error)) (T, error) {
	for attempt := 1; ; attempt++ {
		var v T
		c, err := openCatalog(b, runRoot)
		if err == nil {
			v, err = op(c)
		}
		if !errors.Is(err, errRetired) || attempt == catalogAttempts {
			return v, err
		}
	}
}

// entryAt describes one directory handed over by path, outside any listing.
func entryAt(b storage.Backend, dir string) *entry {
	return (&catalog{b: b, root: runRootOf(dir)}).entryOf(RefKey(dir))
}

// store is the content-addressed store serving the run root, opened once.
func (c *catalog) store() (*storage.BlobStore, error) {
	return c.cas.get(func() (*storage.BlobStore, error) { return storage.OpenCAS(c.b, objectsPath(c.root)) })
}

// entry is one directory of a run root.
type entry struct {
	c *catalog
	// What the name says. Key is the journal key: the base name, the staging
	// suffix stripped (an in-flight `K.tmp` tree journals under K).
	Path, Key            string
	Staging, Quarantined bool
	// numbered: the name starts `checkpoint-<step>`; nameStep is that step.
	numbered bool
	nameStep int

	// What a request says, each asked once.
	mark    memo[CommitMarker]
	check   memo[struct{}]
	verify  memo[struct{}]
	man     memo[Manifest]
	lay     memo[layout]
	fetched memo[*manifestFiles]
	// Digests is the reference view's digest list, once readRefs filled it.
	Digests  []string
	refsRead bool
}

func (c *catalog) entryOf(name string) *entry {
	e := &entry{c: c, Path: name, Key: name, Quarantined: IsQuarantinePath(name)}
	if c.root != "" {
		e.Path = c.root + "/" + name
	}
	if !e.Quarantined && IsStagingPath(name) {
		e.Staging, e.Key = true, strings.TrimSuffix(name, stagingSuffix)
	}
	// The one parse of the conventional name. It is a prefix match, so a
	// reshard's `checkpoint-<step>-w<M>` output orders by its step too.
	if _, err := fmt.Sscanf(e.Key, "checkpoint-%d", &e.nameStep); err == nil {
		e.numbered = true
	}
	return e
}

// marker reads the commit marker.
func (e *entry) marker() (CommitMarker, error) {
	return e.mark.get(func() (CommitMarker, error) { return ReadCommitMarker(e.c.b, e.Path) })
}

// checked is CheckCommit: the marker decodes and every listed file is there
// at its recorded size.
func (e *entry) checked() error {
	_, err := e.check.get(func() (struct{}, error) {
		m, err := e.marker()
		if err == nil {
			err = m.check(e.c.b, e.Path)
		}
		return struct{}{}, err
	})
	return err
}

// verified is VerifyCommit: checked, then the CRC pass — over the
// manifest bytes the entry holds, so a content-addressed directory's manifests
// are fetched once for verification and parsing alike.
func (e *entry) verified() error {
	_, err := e.verify.get(func() (struct{}, error) {
		err := e.checked()
		if err == nil {
			m, _ := e.marker()
			var held func(string) []byte
			if e.layout().manifests {
				held = e.manifestFiles().held
			}
			err = m.crcPass(e.c.b, e.Path, held)
		}
		return struct{}{}, err
	})
	return err
}

// sealed is the commit answer of the reference view: a final directory that
// checks, a staging tree that fully verifies (it may be the only copy of a
// replace-in-place), never a quarantined one.
func (e *entry) sealed() bool {
	switch {
	case e.Quarantined:
		return false
	case e.Staging:
		return e.verified() == nil
	}
	return e.checked() == nil
}

// manifest reads manifest.json (step, ref_gen).
func (e *entry) manifest() (Manifest, error) {
	return e.man.get(func() (Manifest, error) { return ReadManifest(e.c.b, e.Path) })
}

// layout is read.go's one layout decision.
func (e *entry) layout() layout {
	l, _ := e.lay.get(func() (layout, error) { return decideLayout(e.c.b, e.Path), nil })
	return l
}

// twoForms reports whether the directory holds manifests beside payload
// containers: left by an older binary's in-place conversion that crashed, or
// by containers dropped into a content-addressed directory. Scan's question,
// never a reader's, so it may list zero/: a rank count would not say which
// containers a crashed conversion had already removed.
func (e *entry) twoForms() bool {
	switch lay := e.layout(); {
	case !lay.manifests:
		return false
	case !lay.blobs:
		return true
	}
	shards, _ := e.c.b.List(e.Path + "/zero")
	return slices.ContainsFunc(shards, func(name string) bool { return strings.HasSuffix(name, ".ltos") })
}

// manifestFiles fetches the weight and shard manifests (read.go).
func (e *entry) manifestFiles() *manifestFiles {
	f, _ := e.fetched.get(func() (*manifestFiles, error) { return fetchManifests(e.c.b, e.Path), nil })
	return f
}

// step recovers a step for ordering and bookkeeping: marker first, then
// manifest.json, then the directory name; -1 when unknown.
func (e *entry) step() int {
	if m, err := e.marker(); err == nil {
		return m.Step
	}
	if man, err := e.manifest(); err == nil {
		return man.Step
	}
	if e.numbered {
		return e.nameStep
	}
	return -1
}

// retired reports whether err, met reading this entry, says the directory
// went away under the reader rather than that it is damaged: a file is
// missing, and either the commit check had held — a sealed directory loses a
// listed file only by being removed, and an in-place replace puts a NEW
// incarnation under the same name, so asking again whether the check holds
// would not tell — or the whole directory is gone (retired before its marker
// was read, or a staging tree renamed to its final name). Any other read
// error on a sealed directory is damage, and as loud as it was.
func (e *entry) retired(err error) bool {
	return storage.IsNotExist(err) && (e.check.done && e.check.err == nil || !e.c.b.Exists(e.Path))
}

// empty reports whether the directory has no entries. Only OS backends hold
// one (an interrupted mkdir; Mem and object-store directories are implied by
// their files); a directory that cannot be listed is as good as empty.
func (e *entry) empty() bool {
	entries, err := e.c.b.List(e.Path)
	return err != nil || len(entries) == 0
}

// checkpointish reports whether a marker-less directory should be treated as
// a (torn) checkpoint rather than an unrelated directory.
func (e *entry) checkpointish() bool {
	if e.numbered {
		return true
	}
	for _, f := range []string{"manifest.json", "config.json", "model.ltsf", WeightManifestName} {
		if e.c.b.Exists(e.Path + "/" + f) {
			return true
		}
	}
	return false
}

// scan is the directory classifier behind Scan, Repair and AdoptAll: one
// DirStatus per entry that is, or looks like, a checkpoint, sorted by step,
// then path. A step is derived only for the entries reported.
func (c *catalog) scan() ([]DirStatus, error) {
	var out []DirStatus
	for _, e := range c.entries {
		st := DirStatus{Path: e.Path}
		switch {
		case e.Quarantined:
			st.State = StateQuarantined
			st.Detail = "set aside by adopt (failed the readability pass)"
		case e.Staging:
			if err := e.verified(); err == nil {
				st.State = StateUnpublished
				st.Detail = "sealed but not yet published (crashed before the rename)"
			} else if e.retired(err) {
				return nil, errRetired
			} else {
				st.State = StateOrphanTmp
				st.Detail = "abandoned staging directory (crashed mid-write)"
			}
		default:
			_, merr := e.marker()
			if storage.IsNotExist(merr) {
				if e.retired(merr) {
					return nil, errRetired
				}
				if !e.checkpointish() {
					continue
				}
				st.State = StateTorn
				st.Detail = "missing COMMITTED marker"
				if e.empty() {
					st.Detail = "empty checkpoint directory"
				}
				break
			}
			err := e.verified()
			if e.retired(err) {
				return nil, errRetired
			}
			if err == nil {
				// A committed dedup checkpoint whose referenced blobs are gone
				// or resized is unusable — external mutilation of the objects
				// store; GC never removes referenced blobs.
				err = verifyDedupRefs(e)
			}
			switch {
			case err != nil:
				st.State, st.Detail = StateTorn, err.Error()
			case e.twoForms():
				st.State = StateConverting
				st.Detail = "holds files of both the plain and the content-addressed form (still readable)"
			default:
				st.State = StateCommitted
			}
		}
		st.Step = e.step()
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Step != out[j].Step {
			return out[i].Step < out[j].Step
		}
		return out[i].Path < out[j].Path
	})
	return out, nil
}

// byPath finds the entry for a directory path.
func (c *catalog) byPath(path string) *entry {
	for _, e := range c.entries {
		if e.Path == path {
			return e
		}
	}
	return nil
}

// checkpoints lists the final `checkpoint-<step>` entries by step, committed
// or not: what List draws from, and never a merge or reshard output under
// another name, so retention cannot pick one.
func (c *catalog) checkpoints() []*entry {
	var out []*entry
	for _, e := range c.entries {
		if e.numbered && !e.Staging && !e.Quarantined {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].nameStep < out[j].nameStep })
	return out
}

// committed is the List view: the checkpoints whose commit check holds.
func (c *catalog) committed() []string {
	var out []string
	for _, e := range c.checkpoints() {
		if e.checked() == nil {
			out = append(out, e.Path)
		}
	}
	return out
}

// latest is the Latest view over a listing already taken: the pointer's
// target when it is a listed directory that checks, else the newest
// committed checkpoint, "" when there is none.
func (c *catalog) latest() string {
	if target, err := readLatestPointer(c.b, c.root); err == nil {
		if e := c.byPath(target); e != nil && e.checked() == nil {
			return target
		}
	}
	if dirs := c.committed(); len(dirs) > 0 {
		return dirs[len(dirs)-1]
	}
	return ""
}
