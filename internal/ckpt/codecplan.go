// Codec planning for dedup saves.
//
// A save that requests blob compression decides, per payload slot (a weight
// tensor by name, an optimizer group by rank and index), how the blob should
// be encoded: XOR against the previous generation's blob for the same slot
// when a usable parent exists, a self-contained byte-plane blob otherwise.
// The parent chain is read off the previous checkpoint's manifests — the
// same generation chain the ref index journals — and is re-based to a full
// plane blob whenever it would grow past the configured depth, so restore
// cost and GC pinning stay O(K) per slot.
//
// Planning is advisory: the store's size gate can still demote any payload
// to plane or raw, and the manifests record what actually happened.

package ckpt

import (
	"fmt"

	"llmtailor/internal/storage"
)

// DefaultCodecRebase is the xor-parent chain depth bound: a slot whose chain
// would exceed it is re-based to a full plane blob.
const DefaultCodecRebase = 8

// codecPlan decides per-slot blob codecs for one dedup save. A nil plan
// means raw (the pre-codec behavior).
type codecPlan struct {
	mode storage.BlobCodec  // CodecPlane or CodecXORParent
	prev map[string]blobRef // the parent generation's blob per slot (xor mode)
}

// lineage is one save's view of its parent checkpoint, read off the parent's
// manifests once: which blob held each slot (the codec plan's xor parents)
// and how every blob the parent references is stored (what a dedup hit's
// manifest entry must say). It is a cache of what the manifests claimed when
// the parent was written, not of the store: publishBlobs cross-checks each
// answer against the blob's size before trusting it.
type lineage struct {
	slots map[string]blobRef
	blobs map[string]blobRef
}

// loadLineage reads the view for a save publishing into finalDir. Best
// effort: no parent, a plain (non-dedup) or unreadable one simply yields a
// smaller view, and whatever it cannot answer is asked of the store.
func loadLineage(b storage.Backend, finalDir string) *lineage {
	v := &lineage{slots: map[string]blobRef{}, blobs: map[string]blobRef{}}
	if prevDir := previousForSave(b, finalDir); prevDir != "" {
		_ = walkBlobRefs(b, prevDir, func(slot string, r blobRef) error {
			v.slots[slot] = r
			v.blobs[r.Digest] = r
			return nil
		})
	}
	return v
}

// blob answers how the parent's manifests say a digest is stored. A nil view
// knows nothing.
func (v *lineage) blob(digest string) (blobRef, bool) {
	if v == nil {
		return blobRef{}, false
	}
	r, ok := v.blobs[digest]
	return r, ok
}

// storedSize is the size the blob has on the backend if it is still stored
// the way the entry says.
func (r blobRef) storedSize() int64 {
	if r.Codec == "" {
		return r.Size
	}
	return r.Stored
}

// Slot keys name a payload's position in a checkpoint — a weight tensor by
// name, an optimizer group by rank and index. They key the codec plan and
// the capture cache, and read well enough to label the payload in errors
// and reports.
func weightSlot(name string) string       { return "tensor " + name }
func groupSlotKey(rank, index int) string { return fmt.Sprintf("rank %d group %d", rank, index) }

// newCodecPlan builds the planner for a save whose parent generation is
// view. codec is the SaveSpec spelling: "" or "raw" disables planning (nil
// plan), "plane" encodes every payload standalone, "xor" / "xor-parent"
// deltas changed slots against the parent checkpoint's blobs.
//
// Planned puts carry no in-flight byte gate: the lazy saver's spooled
// payloads already hold their bytes in the saver's spool gate, and an
// encoder blocking on a second reservation could deadlock the write stage.
func newCodecPlan(codec string, view *lineage) (*codecPlan, error) {
	mode, err := storage.ParseBlobCodec(codec)
	if err != nil {
		return nil, fmt.Errorf("ckpt: save codec: %w", err)
	}
	switch mode {
	case storage.CodecRaw:
		return nil, nil
	case storage.CodecPlane, storage.CodecXORParent:
	default:
		return nil, fmt.Errorf("ckpt: save codec %q is not writable", codec)
	}
	p := &codecPlan{mode: mode}
	if mode == storage.CodecXORParent {
		p.prev = view.slots
	}
	return p, nil
}

// previousForSave resolves the parent generation of a save publishing into
// finalDir. During a normal save finalDir is not committed yet, so the
// parent is the newest committed checkpoint under the run root; when
// finalDir is being re-saved (a retry over a committed dir), it is the
// checkpoint preceding it — never finalDir itself, whose manifests the
// save is about to replace.
func previousForSave(b storage.Backend, finalDir string) string {
	c, err := openCatalog(b, runRootOf(finalDir))
	if err != nil {
		return ""
	}
	dirs := c.checkpoints()
	// A listed finalDir may be a committed checkpoint being re-saved; one
	// that is not listed cannot be, and costs no marker read to rule out.
	for i, e := range dirs {
		if e.Path == finalDir && e.checked() == nil {
			dirs = dirs[:i]
			break
		}
	}
	// Newest first, so a normal save checks one marker, not the history's.
	for i := len(dirs) - 1; i >= 0; i-- {
		if dirs[i].Path != finalDir && dirs[i].checked() == nil {
			return dirs[i].Path
		}
	}
	return ""
}

// optsFor plans one payload's put: the options to request and the full
// ancestor chain (direct parent first) an xor put would make the new blob
// depend on. A slot with no previous generation, an unchanged digest, or a
// chain at the re-base bound plans as plane.
func (p *codecPlan) optsFor(slot, digest string, width int) (storage.BlobPutOptions, []string) {
	opts := storage.BlobPutOptions{Codec: storage.CodecPlane, Width: width}
	if p.mode != storage.CodecXORParent {
		return opts, nil
	}
	ps, ok := p.prev[slot]
	if !ok || !storage.ValidDigest(ps.Digest) || ps.Digest == digest {
		return opts, nil
	}
	chain := append([]string{ps.Digest}, ps.Parents...)
	if len(chain) > DefaultCodecRebase {
		return opts, nil // re-base: chain depth stays O(K)
	}
	opts.Codec = storage.CodecXORParent
	opts.Parent = ps.Digest
	return opts, chain
}

// blobChain returns the xor-parent ancestor chain of a stored blob (direct
// parent first) by walking container headers. Raw and plane blobs have an
// empty chain.
func blobChain(store *storage.BlobStore, digest string) ([]string, error) {
	var chain []string
	cur := digest
	for i := 0; i <= storage.MaxParentDepth; i++ {
		meta, err := store.Meta(cur)
		if err != nil {
			return nil, err
		}
		if meta.Codec != storage.CodecXORParent {
			return chain, nil
		}
		chain = append(chain, meta.Parent)
		cur = meta.Parent
	}
	return nil, fmt.Errorf("ckpt: blob %s: xor-parent chain exceeds depth bound %d", digest, storage.MaxParentDepth)
}

// CodecStats summarises how one content-addressed checkpoint's payloads
// are encoded in the blob store: entry counts per codec, payload versus
// on-disk bytes, and the deepest xor-parent ancestor chain.
type CodecStats struct {
	// Entries counts manifest entries per codec name ("raw" for entries
	// stored verbatim).
	Entries map[string]int
	// RawBytes is the total (uncompressed) payload size; StoredBytes the
	// on-disk footprint after encoding.
	RawBytes    int64
	StoredBytes int64
	// DeepestChain is the longest xor-parent ancestor chain any entry
	// carries, and DeepestSlot names that entry.
	DeepestChain int
	DeepestSlot  string
}

// blobRef is one manifest entry's blob reference — the fields weight and
// group entries share ("" codec = raw).
type blobRef struct {
	Digest, Codec string
	Size, Stored  int64
	Parents       []string
}

// walkBlobRefs visits every manifest entry of a dedup checkpoint — weights,
// then each rank's groups — keyed by slot, stopping at the first error or
// unreadable manifest.
func walkBlobRefs(b storage.Backend, dir string, fn func(slot string, r blobRef) error) error {
	return fetchManifests(b, dir).walk(fn)
}

func (f *manifestFiles) walk(fn func(slot string, r blobRef) error) error {
	wm, sms, rerr := f.decode()
	if wm == nil {
		return rerr
	}
	for _, e := range wm.Tensors {
		if err := fn(weightSlot(e.Name), blobRef{e.Digest, e.Codec, e.Size, e.Stored, e.Parents}); err != nil {
			return err
		}
	}
	for _, sm := range sms {
		if sm == nil {
			return rerr
		}
		for _, g := range sm.Groups {
			if err := fn(groupSlotKey(sm.Rank, g.Index), blobRef{g.Digest, g.Codec, g.Size, g.Stored, g.Parents}); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadCodecStats computes CodecStats from a dedup checkpoint's manifests.
func ReadCodecStats(b storage.Backend, dir string) (*CodecStats, error) {
	return codecStats(entryAt(b, dir))
}

func codecStats(e *entry) (*CodecStats, error) {
	if !e.layout().blobs {
		return nil, fmt.Errorf("ckpt: %s is not content-addressed (no %s)", e.Path, WeightManifestName)
	}
	cs := &CodecStats{Entries: map[string]int{}}
	err := e.manifestFiles().walk(func(slot string, r blobRef) error {
		if r.Codec == "" {
			r.Codec, r.Stored = "raw", r.Size
		}
		cs.Entries[r.Codec]++
		cs.RawBytes += r.Size
		cs.StoredBytes += r.Stored
		if len(r.Parents) > cs.DeepestChain {
			cs.DeepestChain = len(r.Parents)
			cs.DeepestSlot = slot
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cs, nil
}

// CodecHealth is one dedup checkpoint's blob-codec health in a doctor
// scan: the codec breakdown plus any xor parents the manifests pin that
// the blob store no longer holds (restoring those entries would fail).
type CodecHealth struct {
	Dir   string
	Stats *CodecStats
	// MissingParents lists pinned ancestor digests absent from the store,
	// each prefixed with the slot that depends on it.
	MissingParents []string
}

// scanCodecs is the codec view of the doctor: blob-codec health across every
// committed dedup checkpoint under the run root. Checkpoints whose manifests
// other views already flag as unreadable are skipped — this view owns only
// the codec layer.
func scanCodecs(c *catalog) ([]CodecHealth, error) {
	if c.absent != nil {
		return nil, c.absent
	}
	var out []CodecHealth
	for _, e := range c.checkpoints() {
		if e.checked() != nil {
			continue
		}
		cs, err := codecStats(e)
		if err != nil {
			continue // plain, or manifests other scans already flag
		}
		store, err := c.store()
		if err != nil {
			return nil, err
		}
		h := CodecHealth{Dir: e.Path, Stats: cs}
		checked := map[string]bool{}
		_ = e.manifestFiles().walk(func(slot string, r blobRef) error {
			for _, pd := range r.Parents {
				if checked[pd] {
					continue
				}
				checked[pd] = true
				if !store.Has(pd) {
					h.MissingParents = append(h.MissingParents, slot+" -> "+pd)
				}
			}
			return nil
		})
		out = append(out, h)
	}
	return out, nil
}

// codecEntryMeta converts a put's outcome into the manifest entry's codec
// fields. planned is the chain optsFor computed; it is reused when the put
// landed on the planned parent, and re-derived from container headers when
// the slot dedup-hit an existing blob with a different lineage.
func codecEntryMeta(store *storage.BlobStore, res storage.PutResult, planned []string) (codec string, stored int64, parents []string, err error) {
	switch res.Codec {
	case storage.CodecRaw:
		return "", 0, nil, nil
	case storage.CodecXORParent:
		if len(planned) > 0 && planned[0] == res.Parent {
			parents = planned
		} else {
			rest, err := blobChain(store, res.Parent)
			if err != nil {
				return "", 0, nil, err
			}
			parents = append([]string{res.Parent}, rest...)
		}
		return res.Codec.String(), res.StoredBytes, parents, nil
	default: // plane, stored
		return res.Codec.String(), res.StoredBytes, nil, nil
	}
}
