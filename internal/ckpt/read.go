// The checkpoint read stage (DESIGN.md "The read stage").
//
// Every reader of a committed checkpoint — Open/Restore, merge, verify,
// reshard, Dedupify, Materialize* — sees it as the write stage's payloadSet:
// weights and each rank's groups in stored order, every payload with its
// size, CRC, digest (content-addressed checkpoints) and a ranged opener.
// Whether the bytes sit in an LTSF/LTOS container extent or in a blob is
// decided once, in openSource.
//
// An opener ranges over the UNCOMPRESSED payload bytes (the blob store decodes
// codec containers) and verifies nothing. Whoever decodes a payload checks its
// CRC (Weights.ReadTensor, decodeRank); whoever re-stages one checks its
// digest, or its CRC when it has none (payloadSet.checked) — unless, like
// Dedupify, it hashes every byte anyway.

package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"sort"
	"strings"

	"llmtailor/internal/optim"
	"llmtailor/internal/parallel"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
	"llmtailor/internal/zero"
)

// layoutKind says where a directory's payloads sit.
type layoutKind int

const (
	// layoutPlain: LTSF/LTOS containers only.
	layoutPlain layoutKind = iota
	// layoutConverting: manifests beside containers — a crash interrupted
	// Dedupify, and Repair finishes it. Until the marker swap the manifests are
	// unlisted extras, possibly torn.
	layoutConverting
	// layoutDedup: manifests only; payloads are blobs.
	layoutDedup
)

// layout is the one layout decision. Within converting, blobs says which
// form readers see: Dedupify's last step removes model.ltsf first, and from
// then on the manifests are what is read (and must be intact, and pin
// exactly), whatever shard containers are still waiting to be swept.
type layout struct {
	kind  layoutKind
	blobs bool
}

// decideLayout is the only code that tells a plain directory from a
// content-addressed one and from one caught between the two: IsDedup and
// openSource (what readers open), Scan's StateConverting, verifyDedupRefs and
// the pin walk's best-effort rule all ask it. DESIGN.md "The run catalog"
// has the table against the conversion's steps.
func decideLayout(b storage.Backend, dir string) layout {
	switch {
	case !b.Exists(dir + "/" + WeightManifestName):
		return layout{kind: layoutPlain}
	case b.Exists(dir + "/model.ltsf"):
		return layout{kind: layoutConverting}
	case len(shardContainers(b, dir)) > 0:
		return layout{kind: layoutConverting, blobs: true}
	}
	return layout{kind: layoutDedup, blobs: true}
}

// IsDedup reports whether a checkpoint directory reads as content-addressed
// (weight manifest present, no weight container).
func IsDedup(b storage.Backend, dir string) bool { return decideLayout(b, dir).blobs }

// shardContainers lists the LTOS containers a directory holds, as dir-relative
// names. The listing, not a rank count, says which are there: a crashed
// conversion may have removed some ranks' already. No zero/ directory: a
// weights-only checkpoint.
func shardContainers(b storage.Backend, dir string) []string {
	var out []string
	entries, _ := b.List(dir + "/zero")
	for _, e := range entries {
		if strings.HasSuffix(e, ".ltos") {
			out = append(out, "zero/"+e)
		}
	}
	return out
}

// source is a checkpoint directory with its layout decided: store is the
// blob store its manifests reference, nil for plain containers.
type source struct {
	b     storage.Backend
	dir   string
	store *storage.BlobStore
}

func openSource(b storage.Backend, dir string) (*source, error) {
	s := &source{b: b, dir: dir}
	if IsDedup(b, dir) {
		var err error
		if s.store, err = storeFor(b, dir); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// storedPayload describes bytes a committed checkpoint already holds: open
// ranges over them, write replays them whole.
func storedPayload(size int64, crc uint32, digest string, open func(off, n int64) (io.ReadCloser, error)) payload {
	return payload{size: size, crc: crc, hasCRC: true, digest: digest, open: open,
		write: replay(func() (io.ReadCloser, error) { return open(0, size) })}
}

func (s *source) blobPayload(digest string, size int64, crc uint32) payload {
	return storedPayload(size, crc, digest, func(off, n int64) (io.ReadCloser, error) {
		return s.store.OpenRange(digest, off, n)
	})
}

// bytes reads the payload whole. Ranges are validated at open, so a size a
// manifest merely claims fails there, before the buffer is allocated.
func (p *payload) bytes() ([]byte, error) {
	rc, err := p.open(0, p.size)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, p.size)
	_, err = io.ReadFull(rc, buf)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	return buf, err
}

// checked makes every replay of the set's payloads fail unless the bytes
// match what was recorded for them — the digest, or the CRC when there is
// none — so a re-stager that carries CRCs forward cannot copy a corrupt
// payload into a clean-looking container.
func (s *payloadSet) checked() *payloadSet {
	s.each(func(p *payload, _ string, _ int) error {
		write := p.write
		p.write = func(w io.Writer) (int64, error) {
			h, want := hash.Hash(crc32.NewIEEE()), fmt.Sprintf("%08x", p.crc)
			if p.digest != "" {
				h, want = sha256.New(), p.digest
			}
			n, err := write(io.MultiWriter(w, h))
			if got := hex.EncodeToString(h.Sum(nil)); err == nil && got != want {
				err = fmt.Errorf("stored bytes hash to %s, recorded %s", got, want)
			}
			return n, err
		}
		return nil
	})
	return s
}

// weights lists the checkpoint's tensors.
func (s *source) weights() (*Weights, error) {
	if s.store == nil {
		return OpenLTSF(s.b, s.dir+"/model.ltsf")
	}
	name := s.dir + "/" + WeightManifestName
	man, err := ReadWeightManifest(s.b, name)
	if err != nil {
		return nil, err
	}
	list := make([]weightPayload, len(man.Tensors))
	for i, e := range man.Tensors {
		list[i] = weightPayload{payload: s.blobPayload(e.Digest, e.Size, e.CRC32),
			name: e.Name, dtype: e.DType, shape: e.Shape}
	}
	return newWeights(name, man.Model, list), nil
}

// rank lists one rank's optimizer groups without reading a payload byte.
func (s *source) rank(rank int) (*rankPayloads, error) {
	if s.store == nil {
		name := s.dir + "/" + ShardFileName(rank)
		h, err := ReadShardHeader(s.b, name)
		if err != nil {
			return nil, err
		}
		return h.payloads(s.b, name), nil
	}
	name := s.dir + "/" + ShardManifestName(rank)
	man, err := ReadShardManifest(s.b, name)
	if err != nil {
		return nil, err
	}
	if man.Rank != rank {
		return nil, fmt.Errorf("ckpt: %s: manifest is for rank %d", name, man.Rank)
	}
	layout, _ := optim.ParseLayoutKind(man.Layout) // the decode validated it
	rs := &rankPayloads{rank: man.Rank, worldSize: man.WorldSize, step: man.Step, layout: layout,
		groups: make([]groupPayload, len(man.Groups))}
	if size, err := s.b.Stat(name); err == nil { // a whole load moves the manifest too
		rs.fileBytes = size
	}
	var off int64
	for i, g := range man.Groups {
		// Offsets as the materialized container records them (gap-free).
		meta := g.Meta()
		meta.Offsets = [2]int64{off, off + g.Size}
		off += g.Size
		rs.groups[i] = groupPayload{payload: s.blobPayload(g.Digest, g.Size, g.CRC32), meta: meta}
		rs.fileBytes += g.Size
	}
	return rs, nil
}

// set lists the whole checkpoint: weights, then every rank it stores.
func (s *source) set() (*payloadSet, error) {
	w, err := s.weights()
	if err != nil {
		return nil, err
	}
	set := w.set()
	for r := 0; ; r++ {
		rs, err := s.rank(r)
		if storage.IsNotExist(err) {
			return set, nil // ranks are stored 0..R-1
		}
		if err != nil {
			return nil, err
		}
		set.ranks = append(set.ranks, *rs)
	}
}

// shardManifestRanks lists the ranks that have shard manifests in a
// checkpoint directory.
func shardManifestRanks(b storage.Backend, dir string) []int {
	entries, err := b.List(dir + "/zero")
	if err != nil {
		return nil
	}
	var ranks []int
	for _, e := range entries {
		var r int
		if _, err := fmt.Sscanf(e, "rank_%d_optim_states.ltom", &r); err == nil && strings.HasSuffix(e, ".ltom") {
			ranks = append(ranks, r)
		}
	}
	sort.Ints(ranks)
	return ranks
}

// manifestFiles is a content-addressed directory's weight manifest and every
// rank's shard manifest as fetched: raw bytes (what a commit marker's CRC is
// over) or the fetch error, by dir-relative name, weight manifest first.
type manifestFiles struct {
	dir   string
	names []string
	data  [][]byte
	errs  []error
}

// fetchManifests reads the manifests side by side (independent objects: one
// round trip's wait on a remote store, not one per rank).
func fetchManifests(b storage.Backend, dir string) *manifestFiles {
	f := &manifestFiles{dir: dir, names: []string{WeightManifestName}}
	for _, r := range shardManifestRanks(b, dir) {
		f.names = append(f.names, ShardManifestName(r))
	}
	f.data, f.errs = make([][]byte, len(f.names)), make([]error, len(f.names))
	_ = parallel.ForEach(requestWidth, len(f.names), func(i int) error {
		f.data[i], f.errs[i] = b.ReadFile(dir + "/" + f.names[i])
		return nil
	})
	return f
}

// held returns the fetched bytes of a dir-relative name, nil when it is not a
// manifest or could not be read.
func (f *manifestFiles) held(rel string) []byte {
	for i, name := range f.names {
		if name == rel {
			return f.data[i]
		}
	}
	return nil
}

// decode parses what was fetched. An unreadable manifest comes back nil and
// err is the first such failure in manifest order: callers that must account
// exactly return it, best-effort ones (quarantined, torn and mid-write trees)
// use whatever is readable.
func (f *manifestFiles) decode() (wm *WeightManifest, sms []*ShardManifest, err error) {
	sms = make([]*ShardManifest, len(f.names)-1)
	for i, name := range f.names {
		e := f.errs[i]
		if e == nil {
			if i == 0 {
				wm, e = DecodeWeightManifest(f.data[0])
			} else {
				sms[i-1], e = DecodeShardManifest(f.data[i])
			}
			if e != nil {
				e = fmt.Errorf("ckpt: %s/%s: %w", f.dir, name, e)
			}
		}
		if err == nil {
			err = e
		}
	}
	return wm, sms, err
}

// readManifests fetches and parses a content-addressed directory's manifests.
func readManifests(b storage.Backend, dir string) (*WeightManifest, []*ShardManifest, error) {
	return fetchManifests(b, dir).decode()
}

// Weights is the lazy per-tensor view of a checkpoint's weights — over a
// plain model.ltsf (OpenLTSF) or a content-addressed manifest alike. Opening
// reads only the header or manifest; payloads are fetched on demand.
type Weights struct {
	label string // the container or manifest, for errors
	model string
	list  []weightPayload // stored order
	index map[string]int  // name → position in list
}

func newWeights(label, model string, list []weightPayload) *Weights {
	w := &Weights{label: label, model: model, list: list, index: make(map[string]int, len(list))}
	for i := range list {
		w.index[list[i].name] = i
	}
	return w
}

func (w *Weights) lookup(name string) (*weightPayload, error) {
	i, ok := w.index[name]
	if !ok {
		return nil, fmt.Errorf("ckpt: %s: no tensor %q", w.label, name)
	}
	return &w.list[i], nil
}

// Model returns the model name recorded at write time.
func (w *Weights) Model() string { return w.model }

// Names returns the sorted tensor names present.
func (w *Weights) Names() []string {
	out := make([]string, len(w.list))
	for i := range w.list {
		out[i] = w.list[i].name
	}
	sort.Strings(out)
	return out
}

// Has reports whether the named tensor is present.
func (w *Weights) Has(name string) bool {
	_, ok := w.index[name]
	return ok
}

// PayloadSize returns the stored byte size of the named tensor's payload
// (no payload I/O): what merge reserves in flight before reading.
func (w *Weights) PayloadSize(name string) (int64, bool) {
	p, err := w.lookup(name)
	if err != nil {
		return 0, false
	}
	return p.size, true
}

// ReadTensor lazily reads one tensor's payload, verifies its CRC and returns
// the decoded tensor. Only the tensor's bytes are read — the lazy property
// the paper notes model weights enjoy but optimizer states do not.
func (w *Weights) ReadTensor(name string) (*tensor.Tensor, error) {
	p, err := w.lookup(name)
	if err != nil {
		return nil, err
	}
	dt, err := tensor.ParseDType(p.dtype)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: tensor %q: %w", w.label, name, err)
	}
	buf, err := p.bytes()
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: tensor %q: %w", w.label, name, err)
	}
	if got := crc32.ChecksumIEEE(buf); got != p.crc {
		return nil, fmt.Errorf("ckpt: %s: tensor %q: CRC mismatch (%08x != %08x)", w.label, name, got, p.crc)
	}
	t := tensor.New(name, dt, p.shape...)
	if err := t.Decode(buf); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadAll reads every tensor in name order.
func (w *Weights) ReadAll() ([]*tensor.Tensor, error) {
	names := w.Names()
	out := make([]*tensor.Tensor, 0, len(names))
	for _, n := range names {
		t, err := w.ReadTensor(n)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// RawTensor describes the named tensor's stored payload. The metadata was
// bounds-checked when the header or manifest was decoded, so a corrupt one
// surfaces there (or here as a missing tensor), never as a panic downstream.
func (w *Weights) RawTensor(name string) (RawTensor, error) {
	p, err := w.lookup(name)
	if err != nil {
		return RawTensor{}, err
	}
	return RawTensor{Name: name, DType: p.dtype, Shape: append([]int(nil), p.shape...),
		Size: p.size, CRC32: p.crc}, nil
}

// OpenRaw opens a streaming reader over the named tensor's payload. The
// bytes are delivered exactly as stored — no CRC verification, no decode;
// integrity travels with the carried-forward checksum, which the eventual
// consumer (ReadTensor on the spliced container) still verifies.
func (w *Weights) OpenRaw(name string) (RawTensor, io.ReadCloser, error) {
	rt, err := w.RawTensor(name)
	if err != nil {
		return RawTensor{}, nil, err
	}
	rc, err := w.list[w.index[name]].open(0, rt.Size)
	if err != nil {
		return RawTensor{}, nil, fmt.Errorf("ckpt: %s: open raw tensor %q: %w", w.label, name, err)
	}
	return rt, rc, nil
}

// RawEligible reports whether the named tensor can be raw-copied into an
// output of the given dtype: present, and stored in exactly that dtype (a
// conversion forces the decode path).
func (w *Weights) RawEligible(name string, out tensor.DType) bool {
	p, err := w.lookup(name)
	if err != nil {
		return false
	}
	dt, err := tensor.ParseDType(p.dtype)
	return err == nil && dt == out
}

// set lists the weights as a payload set of their own (entries copied: a
// Weights serves concurrent readers, a set is consumed by one stage).
func (w *Weights) set() *payloadSet {
	return &payloadSet{model: w.model, weights: append([]weightPayload(nil), w.list...)}
}

// SpliceLTSF writes the weights as a full LTSF container at name — stored
// order, CRCs carried forward, every payload checked on the way through —
// byte-identical to a plain Save's. It returns the payload bytes copied.
func (w *Weights) SpliceLTSF(b storage.Backend, name string, chunkBytes int) (int64, error) {
	var total int64
	for i := range w.list {
		total += w.list[i].size
	}
	return total, w.set().checked().stageWeights(b, name, chunkBytes)
}

// MaterializeWeights writes a checkpoint's weights as a full LTSF container
// at dst, whichever layout dir is stored in. Blobs are re-hashed against the
// manifest's digests on the way through, so a corrupt one fails the
// materialization instead of poisoning the container.
func MaterializeWeights(b storage.Backend, dir, dst string, chunkBytes int) error {
	src, err := openSource(b, dir)
	if err != nil {
		return err
	}
	w, err := src.weights()
	if err != nil {
		return err
	}
	if _, err := w.SpliceLTSF(b, dst, chunkBytes); err != nil {
		return fmt.Errorf("ckpt: materialize %s: %w", dir, err)
	}
	return nil
}

// MaterializeShardFile writes one rank's full LTOS container at dst,
// byte-identical to the plain save's, verifying each group payload as it
// streams through.
func MaterializeShardFile(b storage.Backend, dir string, rank int, dst string, chunkBytes int) error {
	src, err := openSource(b, dir)
	if err != nil {
		return err
	}
	rs, err := src.rank(rank)
	if err != nil {
		return err
	}
	set := (&payloadSet{ranks: []rankPayloads{*rs}}).checked()
	if err := set.ranks[0].stageShardFile(b, dst, chunkBytes); err != nil {
		return fmt.Errorf("ckpt: materialize %s rank %d: %w", dir, rank, err)
	}
	return nil
}

// decodeRank is the whole-rank decode loop: every group fetched, CRC-checked
// and decoded into its three FP32 sections — optimizer state loads whole or
// not at all (§5.4). fetch returns one group's bytes: the next extent of the
// one open stream for a plain shard file, the group's blob otherwise.
func decodeRank(name string, rs *rankPayloads, fetch func(g *groupPayload) ([]byte, error)) (*ShardFile, error) {
	f := &ShardFile{
		Rank: rs.rank, WorldSize: rs.worldSize, Step: rs.step, Layout: rs.layout,
		Meta:      make([]ShardGroupMeta, len(rs.groups)),
		Shards:    make([]*zero.GroupShard, len(rs.groups)),
		FileBytes: rs.fileBytes,
	}
	for i := range rs.groups {
		g := &rs.groups[i]
		seg, err := fetch(g)
		if err != nil {
			return nil, fmt.Errorf("ckpt: %s: group %d: %w", name, g.meta.Index, err)
		}
		if got := crc32.ChecksumIEEE(seg); got != g.crc {
			return nil, fmt.Errorf("ckpt: %s: group %d CRC mismatch", name, g.meta.Index)
		}
		// len(seg) is exactly 12×ShardLen: both codecs checked it by division.
		n := g.meta.ShardLen
		f.Meta[i] = g.meta
		f.Shards[i] = &zero.GroupShard{
			GroupIndex: g.meta.Index,
			Rank:       rs.rank,
			Master:     decodeF32(seg, n),
			ExpAvg:     decodeF32(seg[n*4:], n),
			ExpAvgSq:   decodeF32(seg[n*8:], n),
		}
	}
	return f, nil
}

// ReadOptimShard fully reads one rank's optimizer state: the LTOS shard
// file of a plain checkpoint as one stream, or the rank's shard manifest
// plus group blobs of a content-addressed one.
func (c *Checkpoint) ReadOptimShard(rank int) (*ShardFile, error) {
	if c.src.store == nil {
		return ReadShardFile(c.Backend, c.Dir+"/"+ShardFileName(rank))
	}
	rs, err := c.src.rank(rank)
	if err != nil {
		return nil, err
	}
	return decodeRank(c.Dir+"/"+ShardManifestName(rank), rs, (*groupPayload).bytes)
}

// GroupExtent is one rank's stored payload of one optimizer group: recorded
// metadata plus ranged access to the (always uncompressed) payload bytes.
type GroupExtent struct {
	ShardGroupMeta
	// OpenRange opens the n payload bytes starting at off. Nothing is
	// verified; a reader of the whole payload checks CRC32 itself.
	OpenRange func(off, n int64) (io.ReadCloser, error)
}

// OptimExtents lists one rank's optimizer groups in stored order — each
// exactly 12×ShardLen bytes — and its recorded optimizer step, reading no
// payload byte: what a transform that moves byte ranges (elastic resharding)
// needs in place of a decoded ShardFile. A shard recorded for another rank or
// world size than the trainer state's is an error.
func (c *Checkpoint) OptimExtents(rank int) (groups []GroupExtent, step int, err error) {
	rs, err := c.src.rank(rank)
	if err != nil {
		return nil, 0, err
	}
	if rs.rank != rank || rs.worldSize != c.State.WorldSize {
		return nil, 0, fmt.Errorf("ckpt: %s: rank %d shard claims rank %d of %d", c.Dir, rank, rs.rank, rs.worldSize)
	}
	groups = make([]GroupExtent, len(rs.groups))
	for i, g := range rs.groups {
		groups[i] = GroupExtent{g.meta, g.open}
	}
	return groups, rs.step, nil
}
