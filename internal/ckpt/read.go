// The checkpoint read stage (DESIGN.md "The read stage").
//
// Every reader of a checkpoint — Open/Restore, merge, verify, reshard,
// Materialize*, and Txn.contentAddress over its staged containers — sees it as
// the write stage's payloadSet:
// weights and each rank's groups in stored order, every payload with its
// size, CRC, digest (content-addressed checkpoints) and a ranged opener.
// Whether the bytes sit in an LTSF/LTOS container extent or in a blob is
// decided once, in openSource.
//
// An opener ranges over the UNCOMPRESSED payload bytes (the blob store decodes
// codec containers) and verifies nothing. Whoever decodes a payload checks its
// CRC (payload.read, under Weights.ReadTensor and the load driver); whoever
// re-stages one checks its digest, or its CRC when it has none
// (payloadSet.checked) — unless, like contentAddress, it hashes every byte
// anyway.
//
// A whole checkpoint — or a whole rank, or all the weights — is read by the
// one load driver, payloadSet.load: every payload through one pipeline of
// requestWidth workers under a byte gate, each fetched, checked and decoded
// straight into its destination.

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
	"sync"

	"llmtailor/internal/optim"
	"llmtailor/internal/parallel"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
	"llmtailor/internal/zero"
)

// layout is the one layout decision: manifests says the directory carries a
// weight manifest (the pin walk reads whatever manifests there are), blobs
// that readers read them — they do unless a weight container is there too.
// A published directory holds one form and keeps it (DESIGN.md "Invariants to
// preserve"); one holding both was left by an older binary's in-place
// conversion, or had containers dropped into it, reads plain and is Scan's to
// report (entry.twoForms) and Repair's to settle.
type layout struct {
	manifests, blobs bool
}

// decideLayout is the only code that tells a plain directory from a
// content-addressed one: at most two existence probes, never a listing. IsDedup
// and openSource (what readers open), verifyDedupRefs and the pin walk all ask
// it.
func decideLayout(b storage.Backend, dir string) layout {
	if !b.Exists(dir + "/" + WeightManifestName) {
		return layout{}
	}
	return layout{manifests: true, blobs: !b.Exists(dir + "/model.ltsf")}
}

// IsDedup reports whether a checkpoint directory reads as content-addressed
// (weight manifest present, no weight container).
func IsDedup(b storage.Backend, dir string) bool { return decideLayout(b, dir).blobs }

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

// blobPayload describes a blob as its manifest entry records it. The recorded
// codec only orders the store's two ways of opening it (a stale record costs
// a request, never a wrong byte); the recorded xor chain is what the load
// driver charges at its gate.
func (s *source) blobPayload(digest string, size int64, crc uint32, codec string, parents []string) payload {
	open := s.store.OpenRange
	if codec != "" && codec != storage.CodecRaw.String() {
		open = s.store.OpenRangeCoded
	}
	p := storedPayload(size, crc, digest, func(off, n int64) (io.ReadCloser, error) { return open(digest, off, n) })
	p.codec, p.parents = codec, parents
	return p
}

// CorruptError reports stored bytes that do not match the integrity record
// kept for them: the payload, held by the blob Digest or in an extent of the
// container File (a manifest, for a blob it lists), hashes to Got where Want
// is recorded — CRC32s as eight hex digits, or SHA-256 content digests.
type CorruptError struct {
	File, Digest string
	Payload      string
	Want, Got    string
}

func (e *CorruptError) Error() string {
	where, kind := "", "CRC"
	if e.File != "" {
		where = e.File + ": "
	}
	if e.Digest != "" {
		where += "blob " + e.Digest + ": "
	}
	if len(e.Want) == sha256.Size*2 {
		kind = "digest"
	}
	return fmt.Sprintf("ckpt: %s%s: %s mismatch (%s != %s)", where, e.Payload, kind, e.Got, e.Want)
}

// loadBufs recycles the buffers payloads are fetched into: a read holds one
// from its open to the end of its decode.
var loadBufs = sync.Pool{New: func() any { return new([]byte) }}

// read is the one whole-payload read: the payload's bytes, fetched through
// its opener and checked, are handed to place. Ranges are validated at open,
// so a size a manifest merely claims fails there, before a buffer is sized to
// it. file and what name the payload in errors.
func (p *payload) read(file, what string, place func(buf []byte) error) error {
	rc, err := p.open(0, p.size)
	if err != nil {
		return fmt.Errorf("ckpt: %s: %s: %w", file, what, err)
	}
	return p.check(file, what, func(buf []byte) error {
		_, err := io.ReadFull(rc, buf)
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
		return err
	}, place)
}

// check has fill produce the payload's bytes in a pooled buffer, holds them
// to the recorded CRC and hands them to place, which must not keep buf.
func (p *payload) check(file, what string, fill, place func(buf []byte) error) error {
	bp := loadBufs.Get().(*[]byte)
	defer loadBufs.Put(bp)
	if int64(cap(*bp)) < p.size {
		*bp = make([]byte, p.size)
	}
	buf := (*bp)[:p.size]
	if err := fill(buf); err != nil {
		return fmt.Errorf("ckpt: %s: %s: %w", file, what, err)
	}
	if got := crc32.ChecksumIEEE(buf); got != p.crc {
		return p.crcMismatch(file, what, got)
	}
	return place(buf)
}

// crcMismatch is the error of payload bytes whose CRC32 came out as got.
func (p *payload) crcMismatch(file, what string, got uint32) error {
	return &CorruptError{File: file, Digest: p.digest, Payload: what,
		Want: fmt.Sprintf("%08x", p.crc), Got: fmt.Sprintf("%08x", got)}
}

// charge is what a whole read of the payload may hold live beyond its
// destination: its bytes, once more per xor ancestor the store resolves to
// produce them.
func (p *payload) charge() int64 { return p.size * int64(1+len(p.parents)) }

// checked makes every replay of the set's payloads fail unless the bytes
// match what was recorded for them — the digest, or the CRC when there is
// none — so a re-stager that carries CRCs forward cannot copy a corrupt
// payload into a clean-looking container.
func (s *payloadSet) checked() *payloadSet {
	s.each(func(p *payload, slot string, _ int) error {
		write := p.write
		p.write = func(w io.Writer) (int64, error) {
			h, want := hash.Hash(crc32.NewIEEE()), fmt.Sprintf("%08x", p.crc)
			if p.digest != "" {
				h, want = sha256.New(), p.digest
			}
			n, err := write(io.MultiWriter(w, h))
			if got := hex.EncodeToString(h.Sum(nil)); err == nil && got != want {
				err = &CorruptError{Digest: p.digest, Payload: slot, Want: want, Got: got}
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
		list[i] = weightPayload{payload: s.blobPayload(e.Digest, e.Size, e.CRC32, e.Codec, e.Parents),
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
	rs := &rankPayloads{name: name, rank: man.Rank, worldSize: man.WorldSize, step: man.Step, layout: layout,
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
		rs.groups[i] = groupPayload{payload: s.blobPayload(g.Digest, g.Size, g.CRC32, g.Codec, g.Parents), meta: meta}
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

// newTensor allocates the tensor the payload decodes to.
func (w *weightPayload) newTensor() (*tensor.Tensor, error) {
	dt, err := tensor.ParseDType(w.dtype)
	if err != nil {
		return nil, err
	}
	return tensor.New(w.name, dt, w.shape...), nil
}

// decode reads the payload straight into the tensor dst names for it (a nil
// dst, or a nil tensor: the bytes are only checked). dst runs once the bytes
// have passed their CRC, so no destination is ever sized from a claim.
func (w *weightPayload) decode(file string, dst func() (*tensor.Tensor, error)) error {
	return w.read(file, fmt.Sprintf("tensor %q", w.name), func(buf []byte) error {
		if dst == nil {
			return nil
		}
		t, err := dst()
		if err != nil || t == nil {
			return err
		}
		return t.Decode(buf)
	})
}

// ReadTensor lazily reads one tensor's payload, verifies its CRC and returns
// the decoded tensor. Only the tensor's bytes are read — the lazy property
// the paper notes model weights enjoy but optimizer states do not.
func (w *Weights) ReadTensor(name string) (*tensor.Tensor, error) {
	p, err := w.lookup(name)
	if err != nil {
		return nil, err
	}
	var t *tensor.Tensor
	err = p.decode(w.label, func() (*tensor.Tensor, error) {
		var err error
		t, err = p.newTensor()
		return t, err
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// ReadAll reads every tensor, through the load driver, in name order.
func (w *Weights) ReadAll() ([]*tensor.Tensor, error) {
	out := make([]*tensor.Tensor, len(w.list))
	_, err := w.set().load(newLoadGate(), func(wp *weightPayload) (t *tensor.Tensor, err error) {
		t, err = wp.newTensor()
		out[w.index[wp.name]] = t
		return t, err
	}, nil)
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
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
	return &payloadSet{label: w.label, model: w.model, weights: append([]weightPayload(nil), w.list...)}
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

// newLoadGate bounds the payload bytes one load holds in flight.
func newLoadGate() *parallel.ByteGate { return parallel.NewByteGate(loadBytes) }

// load is the whole-checkpoint load driver: every payload of the set —
// weights, then rank-major groups, the order each defines — goes through one
// pipeline of requestWidth workers, and a worker fetches its payload, checks
// the CRC and decodes the bytes straight into their destination: the tensor
// dst names for a weight (a nil dst, or a nil tensor, only checks the bytes),
// the three FP32 sections of a zero.GroupShard for a group. The decoded shard files come back by position
// in s.ranks. Request wait and decode overlap across payloads; the window is
// the whole set, so a slow fetch never holds back the dispatch behind it.
//
// A content-addressed rank is a job per group. A plain rank is ONE job — one
// Open of its shard file, header parsed off the stream, groups in file order
// (§5.4) — so plain ranks run side by side and nothing more.
//
// Memory: a payload is admitted under gate at its charge (its size, times one
// more per recorded xor ancestor the store resolves alongside it; a plain rank
// at its file size), released as it leaves the pipeline.
//
// Errors: results are consumed in payload order, so the failure reported is
// the first failing payload in that order, whatever order the workers finish
// in. With bad set, each failure is handed to it instead (rank is the position
// in s.ranks, -1 for a weight), the load goes on while it returns nil, and a
// rank that failed comes back nil.
func (s *payloadSet) load(gate *parallel.ByteGate, dst func(w *weightPayload) (*tensor.Tensor, error),
	bad func(rank int, err error) error) ([]*ShardFile, error) {
	type job struct {
		rank int
		run  func() error
	}
	type outcome struct {
		rank int
		err  error
	}
	jobs := len(s.weights)
	for i := range s.ranks {
		jobs += max(1, len(s.ranks[i].groups))
	}
	shards := make([]*ShardFile, len(s.ranks))
	pipe := parallel.NewPipeline(requestWidth, jobs,
		func(j job) (outcome, error) { return outcome{j.rank, j.run()}, nil },
		func(o outcome) error {
			if o.err == nil || bad == nil {
				return o.err
			}
			if o.rank >= 0 {
				shards[o.rank] = nil // set before the rank's first push, read after Close
			}
			return bad(o.rank, o.err)
		})
	push := func(rank int, cost int64, run func() error) error {
		gate.Acquire(cost)
		if err := pipe.PushWithCleanup(job{rank, run}, func() { gate.Release(cost) }); err != nil {
			gate.Release(cost)
			return err
		}
		return nil
	}
	err := func() error {
		for i := range s.weights {
			w := &s.weights[i]
			var into func() (*tensor.Tensor, error)
			if dst != nil {
				into = func() (*tensor.Tensor, error) { return dst(w) }
			}
			if err := push(-1, w.charge(), func() error { return w.decode(s.label, into) }); err != nil {
				return err
			}
		}
		for i := range s.ranks {
			rs, f := &s.ranks[i], &ShardFile{}
			shards[i] = f
			var err error
			switch {
			case rs.err != nil:
				err = push(i, 0, func() error { return rs.err })
			case rs.stream != nil:
				err = push(i, rs.fileBytes, func() error { return rs.loadStream(f) })
			default:
				f.init(rs)
				for j := 0; j < len(rs.groups) && err == nil; j++ {
					g := &rs.groups[j]
					err = push(i, g.charge(), func() error {
						return g.read(rs.name, fmt.Sprintf("group %d", g.meta.Index), func(buf []byte) error {
							f.Shards[j] = g.decode(rs.rank, buf)
							return nil
						})
					})
				}
			}
			if err != nil {
				return err
			}
		}
		return nil
	}()
	if cerr := pipe.Close(); cerr != nil {
		err = cerr // the first failure; a refused push only echoes it
	}
	if err != nil {
		return nil, err
	}
	return shards, nil
}

// init sizes the decoded form of a listed rank.
func (f *ShardFile) init(rs *rankPayloads) {
	*f = ShardFile{
		Rank: rs.rank, WorldSize: rs.worldSize, Step: rs.step, Layout: rs.layout,
		Meta:      make([]ShardGroupMeta, len(rs.groups)),
		Shards:    make([]*zero.GroupShard, len(rs.groups)),
		FileBytes: rs.fileBytes,
	}
	for i := range rs.groups {
		f.Meta[i] = rs.groups[i].meta
	}
}

// decode turns a group payload's checked bytes into its three FP32 sections.
// len(seg) is exactly 12×ShardLen: both codecs checked it by division.
func (g *groupPayload) decode(rank int, seg []byte) *zero.GroupShard {
	n := g.meta.ShardLen
	return &zero.GroupShard{
		GroupIndex: g.meta.Index,
		Rank:       rank,
		Master:     decodeF32(seg, n),
		ExpAvg:     decodeF32(seg[n*4:], n),
		ExpAvgSq:   decodeF32(seg[n*8:], n),
	}
}

// loadSet lists the checkpoint for the load driver: the weights Open listed,
// then ranks 0..R-1 of the trainer state's world size. Content-addressed
// ranks are listed from their manifests side by side; a plain rank is not
// listed at all — its header comes off the one stream its load opens. A rank
// that cannot be listed fails in its place in payload order.
func (c *Checkpoint) loadSet() (*payloadSet, error) {
	ws := c.State.WorldSize
	if ws <= 0 {
		return nil, fmt.Errorf("ckpt: %s: invalid world size %d", c.Dir, ws)
	}
	set := c.weights.set()
	set.ranks = make([]rankPayloads, ws)
	_ = parallel.ForEach(requestWidth, ws, func(r int) error {
		if c.src.store == nil {
			set.ranks[r] = streamedRank(c.Backend, c.Dir+"/"+ShardFileName(r))
		} else if rs, err := c.src.rank(r); err != nil {
			set.ranks[r] = rankPayloads{err: err}
		} else {
			set.ranks[r] = *rs
		}
		return nil
	})
	return set, nil
}

// ReadState reads everything the checkpoint stores through the load driver:
// every weight payload checked against its CRC and decoded into the tensor
// dst names for it (nil: only checked), every rank's optimizer shard decoded,
// returned by rank. With bad nil the first failure in payload order is the
// error; otherwise each failing payload or rank is handed to bad (rank -1: a
// weight), the read goes on while bad returns nil, and a failed rank comes
// back nil.
func (c *Checkpoint) ReadState(dst func(name string) (*tensor.Tensor, error), bad func(rank int, err error) error) ([]*ShardFile, error) {
	return c.readState(newLoadGate(), dst, bad)
}

func (c *Checkpoint) readState(gate *parallel.ByteGate, dst func(name string) (*tensor.Tensor, error),
	bad func(rank int, err error) error) ([]*ShardFile, error) {
	set, err := c.loadSet()
	if err != nil {
		return nil, err
	}
	var into func(*weightPayload) (*tensor.Tensor, error)
	if dst != nil {
		into = func(w *weightPayload) (*tensor.Tensor, error) {
			t, err := dst(w.name)
			if err != nil || t == nil {
				return nil, err
			}
			if dt, err := tensor.ParseDType(w.dtype); err != nil || dt != t.DType || !tensor.ShapeEqual(t.Shape, w.shape) {
				return nil, fmt.Errorf("ckpt: %s: tensor %q is stored as %s %v, want %s %v",
					c.weights.label, w.name, w.dtype, w.shape, t.DType, t.Shape)
			}
			return t, nil
		}
	}
	return set.load(gate, into, bad)
}

// ReadOptimShard fully reads one rank's optimizer state: the LTOS shard
// file of a plain checkpoint as one stream, or the rank's shard manifest
// plus group blobs of a content-addressed one, fetched side by side.
func (c *Checkpoint) ReadOptimShard(rank int) (*ShardFile, error) {
	if c.src.store == nil {
		return ReadShardFile(c.Backend, c.Dir+"/"+ShardFileName(rank))
	}
	rs, err := c.src.rank(rank)
	if err != nil {
		return nil, err
	}
	return rs.loadAlone()
}

// loadAlone runs the load driver over this one rank.
func (rs *rankPayloads) loadAlone() (*ShardFile, error) {
	shards, err := (&payloadSet{ranks: []rankPayloads{*rs}}).load(newLoadGate(), nil, nil)
	if err != nil {
		return nil, err
	}
	return shards[0], nil
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
