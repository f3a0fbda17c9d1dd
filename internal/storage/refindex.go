// Journaled blob reference index.
//
// A RefIndex turns blob reference maintenance from a whole-history manifest
// sweep into per-save bookkeeping: every content-addressed checkpoint save
// appends one compact record — the digest set it references plus a
// monotonically increasing generation number — under `<objects>/refs/`.
// Garbage collection then reads the index (O(live records)) instead of
// re-reading every committed manifest in the run (O(run length)), and a
// generational sweep examines only the blobs whose youngest reference falls
// inside the generations being retired.
//
// Records are append-only journal entries, one file per generation:
//
//	<objects>/refs/gen-000000000007-checkpoint-700.ref
//
// Each is published through PublishFile like every other small file a reader
// may be looking at (a `.ref.tmp` sibling renamed into place, or one PUT), so
// a crash mid-append leaves staging residue, never a torn record. The index
// is pure bookkeeping derived from the checkpoint manifests: if it is ever
// missing, stale or corrupt, it can be rebuilt from the manifests (see
// ckpt.Repair) — losing it can cost reclaim work, never data.
package storage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// RefsDirName is the ref index's directory name under a blob store root.
const RefsDirName = "refs"

// refSuffix is the record file suffix; refStageSuffix marks in-flight
// record writes (stage+rename residue after a crash).
const (
	refSuffix      = ".ref"
	refStageSuffix = ".ref.tmp"
)

// RefRecord is one journal entry: the digest set one checkpoint references.
//
// On disk a record is deliberately line-oriented rather than one JSON
// document: a small JSON header line (version, key, step, generation,
// digest count) followed by one bare hex digest per line. The digest set
// is the hot payload every sweep re-reads across the whole live index, and
// splitting lines + validating hex is several times cheaper than
// unmarshalling a JSON string array — the difference between an index read
// and a manifest sweep is the whole point of the index.
type RefRecord struct {
	Version int `json:"version"`
	// Key is the checkpoint directory's base name (e.g. "checkpoint-700").
	Key string `json:"key"`
	// Step mirrors the checkpoint's global step for reports.
	Step int `json:"step"`
	// Generation is the run-wide save counter this record was appended at.
	// The checkpoint's manifest.json records the same number (ref_gen),
	// binding a published directory to exactly one journal entry.
	Generation int64 `json:"generation"`
	// Digests is the sorted, de-duplicated blob digest set the checkpoint's
	// manifests reference.
	Digests []string `json:"-"`
	// DigestCount is serialized in the header so a truncated digest section
	// cannot go unnoticed.
	DigestCount int `json:"digests"`
}

// RefEntry locates one record file in the index without reading it.
type RefEntry struct {
	// Key and Generation are parsed from the file name.
	Key        string
	Generation int64
	// Name is the record's file name inside the refs directory.
	Name string
}

// RefIndex is the journaled ref index of one blob store. A namespaced
// index (hub attachment) keeps its records under `refs/<ns>/` so many
// runs journal against one shared store without sharing generation
// counters or record files.
type RefIndex struct {
	b    Backend
	root string
	ns   string
}

// NewRefIndex returns the index rooted under a blob store root (the same
// root a BlobStore was opened with, e.g. "run/objects").
func NewRefIndex(b Backend, objectsRoot string) *RefIndex {
	return &RefIndex{b: b, root: strings.TrimSuffix(objectsRoot, "/")}
}

// NewRefIndexNS is the direct form of a hub-namespaced index: the journal
// under objectsRoot's refs/<ns>/ directory, no hubref resolution. Hub
// maintenance uses it to reach one run's records without that run's root.
func NewRefIndexNS(b Backend, objectsRoot, ns string) *RefIndex {
	ix := NewRefIndex(b, objectsRoot)
	ix.ns = ns
	return ix
}

// Dir returns the index directory ("<objects>/refs", or the namespaced
// "<objects>/refs/<ns>" for a hub-attached run).
func (ix *RefIndex) Dir() string {
	if ix.ns != "" {
		return ix.root + "/" + RefsDirName + "/" + ix.ns
	}
	return ix.root + "/" + RefsDirName
}

// Exists reports whether the index directory exists.
func (ix *RefIndex) Exists() bool { return ix.b.Exists(ix.Dir()) }

// ValidRefKey reports whether a key can name a record: non-empty, no path
// separators, and none of the protocol suffixes that would collide with
// staging or checkpoint-directory classification.
func ValidRefKey(key string) bool {
	return key != "" && !strings.ContainsAny(key, "/\\") && !strings.HasSuffix(key, ".tmp")
}

// recordName returns the journal file name of a (generation, key) pair. The
// zero-padded generation keeps lexical listing order equal to append order.
func recordName(gen int64, key string) string {
	return fmt.Sprintf("gen-%012d-%s%s", gen, key, refSuffix)
}

// parseRecordName recovers (generation, key) from a journal file name.
func parseRecordName(name string) (RefEntry, bool) {
	if !strings.HasPrefix(name, "gen-") || !strings.HasSuffix(name, refSuffix) {
		return RefEntry{}, false
	}
	rest := strings.TrimSuffix(strings.TrimPrefix(name, "gen-"), refSuffix)
	i := strings.IndexByte(rest, '-')
	if i <= 0 || i == len(rest)-1 {
		return RefEntry{}, false
	}
	var gen int64
	if _, err := fmt.Sscanf(rest[:i], "%d", &gen); err != nil || gen < 0 {
		return RefEntry{}, false
	}
	key := rest[i+1:]
	if !ValidRefKey(key) {
		return RefEntry{}, false
	}
	return RefEntry{Key: key, Generation: gen, Name: name}, true
}

// Entries lists the journal: parseable record entries sorted by generation
// (then key), staging residue left by crashed appends, and foreign names
// that are neither (external mutilation, reported but never touched).
// Listing alone never reads a record file, so generation discovery is
// O(index size) name parses, not O(index size) file reads.
func (ix *RefIndex) Entries() (entries []RefEntry, staging, foreign []string, err error) {
	if !ix.Exists() {
		return nil, nil, nil, nil
	}
	names, err := ix.b.List(ix.Dir())
	if err != nil {
		return nil, nil, nil, fmt.Errorf("storage: list ref index %s: %w", ix.Dir(), err)
	}
	for _, n := range names {
		name := strings.TrimSuffix(n, "/")
		switch {
		case strings.HasSuffix(n, "/"):
			foreign = append(foreign, name)
		case strings.HasSuffix(name, refStageSuffix):
			staging = append(staging, name)
		default:
			e, ok := parseRecordName(name)
			if !ok {
				foreign = append(foreign, name)
				continue
			}
			entries = append(entries, e)
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Generation != entries[j].Generation {
			return entries[i].Generation < entries[j].Generation
		}
		return entries[i].Key < entries[j].Key
	})
	sort.Strings(staging)
	sort.Strings(foreign)
	return entries, staging, foreign, nil
}

// NextGeneration returns one past the highest generation in the journal
// (1 for an empty or absent index). Computed from file names only.
func (ix *RefIndex) NextGeneration() (int64, error) {
	entries, _, _, err := ix.Entries()
	if err != nil {
		return 0, err
	}
	var max int64
	for _, e := range entries {
		if e.Generation > max {
			max = e.Generation
		}
	}
	return max + 1, nil
}

// validate rejects malformed records before they reach the journal.
func (r *RefRecord) validate() error {
	if !ValidRefKey(r.Key) {
		return fmt.Errorf("storage: ref record: invalid key %q", r.Key)
	}
	if r.Generation <= 0 {
		return fmt.Errorf("storage: ref record %s: generation %d", r.Key, r.Generation)
	}
	for _, d := range r.Digests {
		if !ValidDigest(d) {
			return fmt.Errorf("storage: ref record %s: malformed digest %q", r.Key, d)
		}
	}
	return nil
}

// NormalizeDigests sorts and de-duplicates a digest list in place,
// returning the compacted slice — the canonical record payload.
func NormalizeDigests(digests []string) []string {
	sort.Strings(digests)
	out := digests[:0]
	for i, d := range digests {
		if i == 0 || d != digests[i-1] {
			out = append(out, d)
		}
	}
	return out
}

// Append publishes one record crash-consistently through PublishFile (a
// `.ref.tmp` staging sibling where the backend renames), so a crash leaves
// either no record or the whole record — never a torn one. Appending an
// existing (generation, key) pair replaces it (idempotent retry).
func (ix *RefIndex) Append(r *RefRecord) error {
	if err := r.validate(); err != nil {
		return err
	}
	rec := *r
	rec.Digests = NormalizeDigests(append([]string(nil), r.Digests...))
	rec.DigestCount = len(rec.Digests)
	hdr, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("storage: marshal ref record %s: %w", rec.Key, err)
	}
	data := make([]byte, 0, len(hdr)+2+len(rec.Digests)*65)
	data = append(data, hdr...)
	for _, d := range rec.Digests {
		data = append(data, '\n')
		data = append(data, d...)
	}
	data = append(data, '\n')
	final := ix.Dir() + "/" + recordName(rec.Generation, rec.Key)
	stage := strings.TrimSuffix(final, refSuffix) + refStageSuffix
	const maxAttempts = 8
	for attempt := 1; ; attempt++ {
		err := PublishFile(ix.b, stage, final, data)
		if err == nil {
			return nil
		}
		// A concurrent sweep may mistake the in-flight staging file for
		// crash residue and remove it, so the rename finds nothing to move;
		// the whole-file write replays losslessly, so retry (bounded). Any
		// other failure — the stage write, the PUT, the rename itself — is
		// reported, not retried.
		if attempt >= maxAttempts || !IsNotExist(err) || ix.b.Exists(final) {
			return fmt.Errorf("storage: publish ref record %s: %w", rec.Key, err)
		}
	}
}

// Read loads and validates one record. The content must agree with the
// entry's file name (key and generation) and the digest section with the
// header's count, so a renamed, truncated or bit-flipped record surfaces
// as an error, never as a silently misattributed or partial pin.
func (ix *RefIndex) Read(e RefEntry) (*RefRecord, error) {
	data, err := ix.b.ReadFile(ix.Dir() + "/" + e.Name)
	if err != nil {
		return nil, fmt.Errorf("storage: read ref record %s: %w", e.Name, err)
	}
	head := data
	var rest []byte
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		head, rest = data[:i], data[i+1:]
	}
	r := &RefRecord{}
	if err := json.Unmarshal(head, r); err != nil {
		return nil, fmt.Errorf("storage: decode ref record %s: %w", e.Name, err)
	}
	for len(rest) > 0 {
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		if len(line) == 0 {
			continue
		}
		r.Digests = append(r.Digests, string(line))
	}
	if len(r.Digests) != r.DigestCount {
		return nil, fmt.Errorf("storage: ref record %s holds %d digests, header says %d", e.Name, len(r.Digests), r.DigestCount)
	}
	if err := r.validate(); err != nil {
		return nil, fmt.Errorf("storage: ref record %s: %w", e.Name, err)
	}
	if r.Key != e.Key || r.Generation != e.Generation {
		return nil, fmt.Errorf("storage: ref record %s claims key %q generation %d", e.Name, r.Key, r.Generation)
	}
	return r, nil
}

// Remove deletes one record file (best effort on the missing case: removing
// an already-removed record is not an error, so retiring converges under
// crash-and-retry).
func (ix *RefIndex) Remove(e RefEntry) error {
	name := ix.Dir() + "/" + e.Name
	if !ix.b.Exists(name) {
		return nil
	}
	return ix.b.Remove(name)
}

// RemoveStaging deletes one staging-residue file by its listed name.
func (ix *RefIndex) RemoveStaging(name string) error {
	return ix.b.Remove(ix.Dir() + "/" + name)
}
