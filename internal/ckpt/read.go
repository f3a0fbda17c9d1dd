// The checkpoint read stage (DESIGN.md "The read stage").
//
// Every reader of a checkpoint — Open/Restore, merge, verify, reshard,
// Materialize* — sees it as the write stage's payloadSet:
// weights and each rank's groups in stored order, every payload with its
// size, CRC, digest (content-addressed checkpoints) and a ranged opener.
// Whether the bytes sit in an LTSF/LTOS container extent or in a blob is
// decided once, in openSource.
//
// An opener ranges over the UNCOMPRESSED payload bytes (the blob store decodes
// codec containers) and verifies nothing. Whoever decodes a payload checks its
// CRC (payload.read, under Weights.ReadTensor and the load driver); a replay —
// an Output re-staging it by reference, Materialize*, a splice's check — is
// held to its CRC, its digest and its padding rule by construction
// (payload.replays).
//
// A whole checkpoint — or a whole rank, or all the weights — is read by the
// one load driver, payloadSet.load: every payload under a byte gate, up to
// storage.ReadDepth fetched and storage.RequestWidth decoded at once, each
// checked and decoded straight into its destination.

package ckpt

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"errors"
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

// source is a checkpoint directory with its layout decided. A
// content-addressed one (blobs) reads its payloads from the blob store at
// root — its objects root, or the hub it is attached to — which store opens
// on first use, reading root's shard map.
type source struct {
	b     storage.Backend
	dir   string
	blobs bool
	root  string
	store func() (*storage.BlobStore, error)
}

// openSource decides dir's layout and, with weights set, lists its weights:
// a content-addressed directory's weight manifest is read beside hubref.json,
// where its store lives, in one wave of requests.
func openSource(b storage.Backend, dir string, weights bool) (s *source, w *Weights, err error) {
	s = &source{b: b, dir: dir, blobs: IsDedup(b, dir)}
	errs := make([]error, 2)
	_ = parallel.ForEach(2, 2, func(i int) error {
		switch {
		case i == 0 && s.blobs:
			s.root, _, errs[0] = storage.ResolveHub(b, ObjectsRoot(dir))
			s.store = sync.OnceValues(func() (*storage.BlobStore, error) { return storage.OpenCASAt(b, s.root) })
		case i == 1 && weights:
			w, errs[1] = s.weights()
		}
		return nil
	})
	return s, w, cmp.Or(errs...)
}

// storedPayload describes bytes a committed checkpoint already holds: open
// ranges over them, write replays them whole through their checks (replays).
// what names the payload in errors.
func storedPayload(size int64, crc uint32, digest, what string, open func(off, n int64) (io.ReadCloser, error)) payload {
	p := payload{size: size, crc: crc, hasCRC: true, digest: digest, open: open}
	p.replays(what)
	return p
}

// blobPayload describes a blob as its manifest entry records it, opened
// through one storage.BlobStore.Ranges opener. The recorded codec only seeds
// the form that opener tries first (a stale record costs a request, never a
// wrong byte) and adds the decoder's scratch to what the load driver charges.
func (s *source) blobPayload(what, digest string, size int64, crc uint32, codec string, stored int64, parents []string) payload {
	ranges := sync.OnceValues(func() (func(off, n int64) (io.ReadCloser, error), error) {
		st, err := s.store()
		if err != nil {
			return nil, err
		}
		return st.Ranges(digest, codec != "" && codec != storage.CodecRaw.String()), nil
	})
	p := storedPayload(size, crc, digest, what, func(off, n int64) (io.ReadCloser, error) {
		open, err := ranges()
		if err != nil {
			return nil, err
		}
		return open(off, n)
	})
	p.codec, p.stored, p.parents, p.src = codec, stored, parents, s
	return p
}

// CorruptError reports stored bytes that do not match the integrity record
// kept for them: the payload, held by the blob Digest or in an extent of the
// container File (a manifest, for a blob it lists), hashes to Got where Want
// is recorded — CRC32s as eight hex digits, or SHA-256 content digests. A
// blob that cannot even be decoded (storage.ErrCorruptBlob: a malformed
// container, a broken xor chain) carries that failure in Err, and no Got.
type CorruptError struct {
	File, Digest string
	Payload      string
	Want, Got    string
	Err          error
}

func (e *CorruptError) Error() string {
	where, kind := "", "CRC"
	if e.File != "" {
		where = e.File + ": "
	}
	if e.Digest != "" {
		where += "blob " + e.Digest + ": "
	}
	if e.Err != nil {
		return fmt.Sprintf("ckpt: %s%s: %v", where, e.Payload, e.Err)
	}
	if len(e.Want) == sha256.Size*2 {
		kind = "digest"
	}
	return fmt.Sprintf("ckpt: %s%s: %s mismatch (%s != %s)", where, e.Payload, kind, e.Got, e.Want)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// loadBufs recycles the buffers payloads are fetched into: a read holds one
// from its open to the end of its decode.
var loadBufs = sync.Pool{New: func() any { return new([]byte) }}

// decoding is a load's decode stage: a payload takes one of its slots once
// its request is answered and holds it through fill, CRC and place, so the
// requests still waiting on the backend hold none. Each load has its own, so
// a nested or concurrent load never waits on another's.
type decoding chan struct{}

// take waits for a slot and returns what gives it back.
func (d decoding) take() (give func()) {
	d <- struct{}{}
	return func() { <-d }
}

// read is the one whole-payload read: the payload's bytes, fetched through
// its opener and checked in a slot of d, are handed to place. Ranges are
// validated at open, so a size a manifest merely claims fails there, before a
// buffer is sized to it. file and what name the payload in errors.
func (p *payload) read(file, what string, d decoding, place func(buf []byte) error) error {
	rc, err := p.open(0, p.size)
	if err != nil {
		return p.failed(file, what, err)
	}
	defer d.take()()
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
		return p.failed(file, what, err)
	}
	if got := crc32.ChecksumIEEE(buf); got != p.crc {
		return p.crcMismatch(file, what, got)
	}
	return place(buf)
}

// failed names the payload in the error of a read that produced no bytes to
// check: a blob whose structure is corrupt is a *CorruptError too.
func (p *payload) failed(file, what string, err error) error {
	if errors.Is(err, storage.ErrCorruptBlob) {
		return &CorruptError{File: file, Digest: p.digest, Payload: what, Want: fmt.Sprintf("%08x", p.crc), Err: err}
	}
	return fmt.Errorf("ckpt: %s: %s: %w", file, what, err)
}

// crcMismatch is the error of payload bytes whose CRC32 came out as got.
func (p *payload) crcMismatch(file, what string, got uint32) error {
	return &CorruptError{File: file, Digest: p.digest, Payload: what,
		Want: fmt.Sprintf("%08x", p.crc), Got: fmt.Sprintf("%08x", got)}
}

// charge is what a whole read of the payload may hold live: its bytes, plus
// the chunk decoder's scratch when its blob is recorded coded — however deep
// its xor chain, the store folds every ancestor into the destination.
func (p *payload) charge() int64 {
	if p.coded() {
		return p.size + storage.DecodeScratch
	}
	return p.size
}

// coded reports whether the payload's blob is recorded stored in a codec
// container.
func (p *payload) coded() bool { return p.codec != "" && p.codec != storage.CodecRaw.String() }

// replays makes write replay the payload's bytes through its opener, failing
// unless they match what was recorded for them — the CRC, and the digest when
// there is one — and meet its padding rule (pad), so a re-stager that carries
// the record forward cannot copy a corrupt payload into a clean-looking
// container. A destination that CRCs what it is handed (a container's
// in-stream check) lends its sum, so each byte is CRC'd once. what names the
// payload in errors.
func (p *payload) replays(what string) {
	open, size, digest, crc, pad := p.open, p.size, p.digest, p.crc, p.pad
	write := replay(func() (io.ReadCloser, error) { return open(0, size) })
	p.write = func(w io.Writer) (int64, error) {
		c, ok := w.(*crcWriter)
		if !ok {
			c = &crcWriter{w: w}
		}
		c.crc = 0
		var dst io.Writer = c
		var d hash.Hash
		if digest != "" {
			d = sha256.New()
			dst = io.MultiWriter(c, d)
		}
		if pad != nil {
			dst = &padWriter{w: dst, padRule: pad}
		}
		n, err := write(dst)
		want, got := fmt.Sprintf("%08x", crc), fmt.Sprintf("%08x", c.crc)
		if d != nil {
			if sum := hex.EncodeToString(d.Sum(nil)); sum != digest {
				want, got = digest, sum
			}
		}
		switch {
		case errors.Is(err, storage.ErrCorruptBlob):
			err = &CorruptError{Digest: digest, Payload: what, Want: want, Err: err}
		case err == nil && got != want:
			err = &CorruptError{Digest: digest, Payload: what, Want: want, Got: got}
		}
		return n, err
	}
}

// weights lists the checkpoint's tensors.
func (s *source) weights() (*Weights, error) {
	if !s.blobs {
		return openLTSF(s.b, s.dir+"/model.ltsf")
	}
	name := s.dir + "/" + WeightManifestName
	man, err := ReadWeightManifest(s.b, name)
	if err != nil {
		return nil, err
	}
	list := make([]weightPayload, len(man.Tensors))
	for i, e := range man.Tensors {
		list[i] = weightPayload{payload: s.blobPayload(weightSlot(e.Name), e.Digest, e.Size, e.CRC32, e.Codec, e.Stored, e.Parents),
			name: e.Name, dtype: e.DType, shape: e.Shape}
	}
	return newWeights(name, man.Model, list), nil
}

// rank lists one rank's optimizer groups without reading a payload byte.
func (s *source) rank(rank int) (*rankPayloads, error) {
	if !s.blobs {
		name := s.dir + "/" + ShardFileName(rank)
		h, err := readShardHeader(s.b, name)
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
		rs.groups[i] = groupPayload{payload: s.blobPayload(groupSlotKey(rank, g.Index), g.Digest, g.Size, g.CRC32, g.Codec, g.Stored, g.Parents), meta: meta}
		rs.fileBytes += g.Size
	}
	return rs, nil
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
	_ = parallel.ForEach(storage.RequestWidth, len(f.names), func(i int) error {
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
				wm, e = decodeWeightManifest(f.data[0])
			} else {
				sms[i-1], e = decodeShardManifest(f.data[i])
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
// plain model.ltsf (openLTSF) or a content-addressed manifest alike. Opening
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
func (w *weightPayload) decode(file string, d decoding, dst func() (*tensor.Tensor, error)) error {
	return w.read(file, fmt.Sprintf("tensor %q", w.name), d, func(buf []byte) error {
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
	err = p.decode(w.label, make(decoding, 1), func() (*tensor.Tensor, error) {
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
	err := w.set().load(newLoadGate(), func(wp *weightPayload) (t *tensor.Tensor, err error) {
		t, err = wp.newTensor()
		out[w.index[wp.name]] = t
		return t, err
	}, nil, nil, nil)
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

// rawEligible reports whether the named tensor can be taken by reference into
// an output of the given dtype: present, and stored in exactly that dtype (a
// conversion forces the decode path).
func (w *Weights) rawEligible(name string, out tensor.DType) bool {
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

// MaterializeWeights writes a checkpoint's weights as a full LTSF container
// at dst, whichever layout dir is stored in, byte-identical to a plain
// Save's. Every payload is replayed through its checks — a blob against the
// manifest's digest and CRC — so a corrupt one fails the materialization
// instead of poisoning the container.
func MaterializeWeights(b storage.Backend, dir, dst string, chunkBytes int) error {
	_, w, err := openSource(b, dir, true)
	if err != nil {
		return err
	}
	if _, _, err = w.set().writeContainers(b, dst, nil, readAhead{chunk: chunkBytes}); err != nil {
		return fmt.Errorf("ckpt: materialize %s: %w", dir, err)
	}
	return nil
}

// MaterializeShardFile writes one rank's full LTOS container at dst,
// byte-identical to the plain save's, verifying each group payload as it
// streams through.
func MaterializeShardFile(b storage.Backend, dir string, rank int, dst string, chunkBytes int) error {
	src, _, err := openSource(b, dir, false)
	if err != nil {
		return err
	}
	rs, err := src.rank(rank)
	if err != nil {
		return err
	}
	set := &payloadSet{ranks: []rankPayloads{*rs}}
	if _, _, err = set.writeContainers(b, "", []string{dst}, readAhead{chunk: chunkBytes}); err != nil {
		return fmt.Errorf("ckpt: materialize %s rank %d: %w", dir, rank, err)
	}
	return nil
}

// newLoadGate bounds the payload bytes one load holds in flight.
func newLoadGate() *parallel.ByteGate { return parallel.NewByteGate(loadBytes) }

// load is the whole-checkpoint load driver: every payload of the set —
// weights, then rank-major groups, the order each defines — goes through one
// pipeline of two stages. Up to storage.ReadDepth requests wait inside their
// openers, and at most storage.RequestWidth payloads are read, CRC'd and
// decoded at once (decoding), each straight into its destination: the tensor
// dst names for a weight (a nil dst, or a nil tensor, only checks the bytes),
// wherever into places a rank's groups. The window is the whole set, so a
// slow fetch never holds back the dispatch behind it.
//
// The driver owns the rank checks, so no byte reaches a placer unchecked: a
// rank is held to c's layout as the rank it is listed as (checkLayout) before
// into is asked where any of its bytes go, a group's padding must be zero
// before it is placed (padding), and once everything is loaded the ranks are
// held to one optimizer step, in rank order (checkStep).
//
// A content-addressed rank is a job per group. A plain rank is ONE job — one
// Open of its shard file, its request, then the header parsed off the stream
// and the groups in file order in one slot (§5.4) — so plain ranks run side
// by side and nothing more.
//
// Memory: a payload is admitted under gate at its charge (its size, plus the
// chunk decoder's scratch for a coded blob; a plain rank at its file size),
// released as it leaves the pipeline.
//
// Errors: results are consumed in payload order, so the failure reported is
// the first failing payload in that order, whatever order the workers finish
// in. With bad set, each failure — a payload's, a rank's layout or step — is
// handed to it instead (rank is the position in s.ranks, -1 for a weight),
// the load goes on while it returns nil, and a rank that failed keeps its
// first failure in its err.
func (s *payloadSet) load(gate *parallel.ByteGate, dst func(w *weightPayload) (*tensor.Tensor, error),
	c *Checkpoint, into placer, bad func(rank int, err error) error) error {
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
	failed := make([]error, len(s.ranks)) // set by the consumer, read after Close
	dec := make(decoding, storage.RequestWidth)
	pipe := parallel.NewPipeline(storage.ReadDepth, jobs,
		func(j job) (outcome, error) { return outcome{j.rank, j.run()}, nil },
		func(o outcome) error {
			if o.err == nil || bad == nil {
				return o.err
			}
			if o.rank >= 0 && failed[o.rank] == nil {
				failed[o.rank] = o.err
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
	admit := func(rs *rankPayloads) (func(int, []byte) error, error) { return c.admit(rs, into) }
	err := func() error {
		for i := range s.weights {
			w := &s.weights[i]
			var into func() (*tensor.Tensor, error)
			if dst != nil {
				into = func() (*tensor.Tensor, error) { return dst(w) }
			}
			if err := push(-1, w.charge(), func() error { return w.decode(s.label, dec, into) }); err != nil {
				return err
			}
		}
		for i := range s.ranks {
			rs := &s.ranks[i]
			var err error
			switch {
			case rs.err != nil:
				err = push(i, 0, func() error { return rs.err })
			case rs.stream != nil:
				err = push(i, rs.fileBytes, func() error { return rs.loadStream(admit, dec) })
			default:
				place, perr := admit(rs)
				if perr != nil {
					err = push(i, 0, func() error { return perr })
				}
				for j := 0; j < len(rs.groups) && err == nil && perr == nil; j++ {
					g := &rs.groups[j]
					err = push(i, g.charge(), func() error {
						return g.read(rs.name, fmt.Sprintf("group %d", g.meta.Index), dec, func(buf []byte) error { return place(j, buf) })
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
		return err
	}
	for i := range s.ranks {
		rs := &s.ranks[i]
		if rs.err = failed[i]; rs.err != nil {
			continue
		}
		if err := c.rankError(rs.want, c.checkStep(rs.want, rs.step)); err != nil {
			if bad == nil {
				return err
			}
			rs.err = err
			if err := bad(i, err); err != nil {
				return err
			}
		}
	}
	return nil
}

// placer names where the load driver puts a rank's groups: given the rank's
// listing, held to the layout already, it returns what takes group i's
// checked bytes — exactly 12×ShardLen of them, padding found zero — which
// must not keep buf.
type placer func(rs *rankPayloads) (place func(i int, buf []byte))

// admit is the load driver's gate for one listed rank: held to the layout as
// the rank it is listed as (checkLayout), it gets into's placement, behind
// the padding check of every group.
func (c *Checkpoint) admit(rs *rankPayloads, into placer) (func(i int, buf []byte) error, error) {
	if err := c.rankError(rs.want, c.checkLayout(rs.want, rs)); err != nil {
		return nil, err
	}
	place := into(rs)
	return func(i int, buf []byte) error {
		if err := (&padRule{c, rs.want, rs.groups[i].meta}).check(0, buf); err != nil {
			return err
		}
		place(i, buf)
		return nil
	}, nil
}

// padRule is where the padding of rank's shard of group m lies, m held to c's
// layout (checkLayout): the words of each section past the group's numel. A
// group payload carries one (payload.pad) while its padding is unproven.
type padRule struct {
	c    *Checkpoint
	rank int
	m    ShardGroupMeta
}

// tails are the byte ranges of the shard's padding, the end of each section,
// n bytes each (0: the shard holds no padding).
func (r *padRule) tails() (off [3]int64, n int64) {
	data := min(max(r.m.Numel-int64(r.rank)*r.m.ShardLen, 0), r.m.ShardLen)
	for k := range off {
		off[k] = (int64(k)*r.m.ShardLen + data) * 4
	}
	return off, (r.m.ShardLen - data) * 4
}

// check checks b, the bytes at offset off of the shard, in its padding: a
// shard is written zero-padded, and anything but a float zero there is
// corruption, which trimming would hide.
func (r *padRule) check(off int64, b []byte) error {
	tails, n := r.tails()
	for k, t := range tails {
		for p := max(off, t); p < min(off+int64(len(b)), t+n); p++ {
			if v := b[p-off]; v != 0 && (p%4 != 3 || v != 0x80) { // -0 is 00 00 00 80
				return fmt.Errorf("ckpt: %s: rank %d: group %d: non-zero padding at element %d (numel %d)",
					r.c.Dir, r.rank, r.m.Index, int64(r.rank-k)*r.m.ShardLen+p/4, r.m.Numel)
			}
		}
	}
	return nil
}

// padWriter holds the bytes of a group payload streaming through it to the
// padding check before they pass on.
type padWriter struct {
	w io.Writer
	*padRule
	off int64
}

func (p *padWriter) Write(b []byte) (int, error) {
	if err := p.check(p.off, b); err != nil {
		return 0, err
	}
	p.off += int64(len(b))
	return p.w.Write(b)
}

// listRank lists rank r for the load driver: a content-addressed rank from
// its manifest, a plain one not at all — its header comes off the one stream
// its load opens. A rank that cannot be listed fails in its place in payload
// order.
func (c *Checkpoint) listRank(r int) rankPayloads {
	var rs rankPayloads
	if !c.src.blobs {
		rs = streamedRank(c.Backend, c.Dir+"/"+ShardFileName(r))
	} else if l, err := c.src.rank(r); err != nil {
		rs.err = err
	} else {
		rs = *l
	}
	rs.want = r
	return rs
}

// loadSet lists the checkpoint for the load driver: the weights Open listed,
// then ranks 0..R-1 of the trainer state's world size, listed side by side
// with a content-addressed checkpoint's store opening — one wave of requests.
func (c *Checkpoint) loadSet() (*payloadSet, error) {
	ws := c.State.WorldSize
	if ws <= 0 {
		return nil, fmt.Errorf("ckpt: %s: invalid world size %d", c.Dir, ws)
	}
	set := c.weights.set()
	set.ranks = make([]rankPayloads, ws)
	var err error
	_ = parallel.ForEach(storage.RequestWidth, ws+1, func(i int) error {
		if i > 0 {
			set.ranks[i-1] = c.listRank(i - 1)
		} else if c.src.blobs {
			_, err = c.src.store()
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", c.Dir, err)
	}
	return set, nil
}

// ReadState reads everything the checkpoint stores through the load driver:
// every weight payload checked against its CRC, every rank held to the
// layout, its padding and the one optimizer step, every group payload against
// its CRC, and, once all of that reads clean, every weight to its master
// (rounded). It returns how many groups each rank stores, by rank, -1 for a
// rank that failed. With bad nil the first failure is the error; otherwise
// each failure is handed to bad (rank -1: a weight) and the read goes on while
// bad returns nil.
func (c *Checkpoint) ReadState(bad func(rank int, err error) error) ([]int, error) {
	return c.readState(newLoadGate(), bad)
}

func (c *Checkpoint) readState(gate *parallel.ByteGate, bad func(rank int, err error) error) ([]int, error) {
	set, err := c.loadSet()
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	weights, masters := map[string]*tensor.Tensor{}, map[int][]float32{}
	want, _, _ := c.wantGroups() // a layout that cannot be rebuilt fails every rank
	for _, m := range want {
		masters[m.Index] = make([]float32, m.Numel)
	}
	clean, report := true, bad
	if bad != nil {
		report = func(rank int, err error) error { clean = false; return bad(rank, err) }
	}
	err = set.load(gate, func(w *weightPayload) (*tensor.Tensor, error) {
		t, err := w.newTensor()
		mu.Lock()
		weights[w.name] = t
		mu.Unlock()
		return t, err
	}, c, func(rs *rankPayloads) func(int, []byte) {
		return func(i int, buf []byte) { // ranks fill disjoint ranges of a master
			m := rs.groups[i].meta
			lo := int64(rs.want) * m.ShardLen
			tensor.DecodeLE(masters[m.Index][min(lo, m.Numel):min(lo+m.ShardLen, m.Numel)], buf)
		}
	}, report)
	if err != nil {
		return nil, err
	}
	groups := make([]int, len(set.ranks))
	for r, rs := range set.ranks {
		if groups[r] = len(rs.groups); rs.err != nil {
			groups[r] = -1
		}
	}
	layout, lerr := c.Layout()
	for i := 0; clean && lerr == nil && err == nil && i < len(set.weights); i++ {
		t := weights[set.weights[i].name]
		seg, serr := layout.SegmentOf(t.Name)
		if serr == nil && masters[seg.Group] != nil && seg.Len == int64(t.Len()) {
			if err = c.rounded(t, masters[seg.Group][seg.Offset:seg.Offset+seg.Len]); err != nil && bad != nil {
				err = bad(-1, err)
			}
		}
	}
	return groups, err
}

// rounded checks that t's bits are master's rounding to t's dtype, as Restore
// returns it and optim writes it back, naming the first element that is not.
func (c *Checkpoint) rounded(t *tensor.Tensor, master []float32) error {
	want := tensor.New(t.Name, t.DType, t.Shape...)
	want.CopyFromF32(master)
	g, w, sz := t.Encode(nil), want.Encode(nil), t.DType.Size()
	for i := 0; i < len(g); i += sz {
		if !bytes.Equal(g[i:i+sz], w[i:i+sz]) {
			return fmt.Errorf("ckpt: %s: tensor %q element %d: stored bits %x are not its master %g's rounding %x",
				c.weights.label, t.Name, i/sz, g[i:i+sz], master[i/sz], w[i:i+sz])
		}
	}
	return nil
}

// weightDst has each weight decode into the tensor dst names for it, which
// must be of the stored dtype and shape (a nil tensor: the bytes are only
// checked).
func (c *Checkpoint) weightDst(dst func(name string) (*tensor.Tensor, error)) func(*weightPayload) (*tensor.Tensor, error) {
	return func(w *weightPayload) (*tensor.Tensor, error) {
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

// loadState is Restore's read: every weight decoded into the tensor dst
// names for it, and every rank's groups decoded straight into states — the
// layout's groups in index order, each allocated at its numel — with no shard
// of their own: a group's checked bytes land in their [rank·ShardLen, …)
// slice of the three sections (placeShard). The driver has held the rank to
// the layout first, so no destination is sized or indexed from a claim. It
// returns the one optimizer step of the ranks.
func (c *Checkpoint) loadState(dst func(name string) (*tensor.Tensor, error), states []*optim.GroupState) (int, error) {
	set, err := c.loadSet()
	if err != nil {
		return 0, err
	}
	err = set.load(newLoadGate(), c.weightDst(dst), c, func(rs *rankPayloads) func(int, []byte) {
		return func(i int, buf []byte) {
			m := rs.groups[i].meta
			placeShard(states[m.Index], rs.want, m.ShardLen, buf)
		}
	}, nil)
	if err != nil {
		return 0, err
	}
	return set.ranks[0].step, nil
}

// placeShard decodes rank pos's shard of a group — master, exp_avg and
// exp_avg_sq, shardLen FP32 words each — into [pos·shardLen, …) of the
// group's state. The words past the state's numel are padding, left behind.
func placeShard(st *optim.GroupState, pos int, shardLen int64, buf []byte) {
	lo := int64(pos) * shardLen
	a, b := min(lo, st.Numel()), min(lo+shardLen, st.Numel())
	for k, sec := range [][]float32{st.Master, st.ExpAvg, st.ExpAvgSq} {
		tensor.DecodeLE(sec[a:b], buf[int64(k)*shardLen*4:])
	}
}

// ShardBytes is one rank's optimizer shard as a whole load of it leaves it:
// the checked payload bytes of the groups asked for, by layout index —
// master, exp_avg and exp_avg_sq, FP32 little-endian, 12×ShardLen bytes,
// padding zero — its recorded step, and what the load moved off the backend.
type ShardBytes struct {
	Groups    map[int][]byte
	Step      int
	FileBytes int64
}

// ReadOptimShard fully reads one rank's optimizer state through the load
// driver — the LTOS shard file of a plain checkpoint as one stream, or the
// rank's shard manifest plus group blobs of a content-addressed one, fetched
// side by side — and keeps the bytes of the groups want selects (nil: every
// group).
func (c *Checkpoint) ReadOptimShard(rank int, want func(index int) bool) (*ShardBytes, error) {
	set := &payloadSet{ranks: []rankPayloads{c.listRank(rank)}}
	var held [][]byte
	err := set.load(newLoadGate(), nil, c, func(rs *rankPayloads) func(int, []byte) {
		held = make([][]byte, len(rs.groups))
		return func(i int, buf []byte) {
			if want == nil || want(rs.groups[i].meta.Index) {
				held[i] = append(make([]byte, 0, len(buf)), buf...)
			}
		}
	}, nil)
	if err != nil {
		return nil, err
	}
	rs := &set.ranks[0]
	sb := &ShardBytes{Groups: map[int][]byte{}, Step: rs.step, FileBytes: rs.fileBytes}
	for i, g := range rs.groups {
		if held[i] != nil {
			sb.Groups[g.meta.Index] = held[i]
		}
	}
	return sb, nil
}

// GroupExtent is one rank's stored payload of one optimizer group: recorded
// metadata plus ranged access to the (always uncompressed) payload bytes
// (p.open, which verifies nothing: a splice checks the whole payload first)
// — what an Output takes by reference or splices (OutputRank.Group).
type GroupExtent struct {
	ShardGroupMeta
	p *payload
	// check reads the whole payload through its checks (payload.replays),
	// once however often it is asked: the call that reads it reports the
	// bytes read, every other call 0.
	check func() (int64, error)
}

// OptimExtents lists one rank's optimizer groups in stored order — each
// exactly 12×ShardLen bytes — and its recorded optimizer step, reading no
// payload byte: what a feeder taking groups by reference, or splicing byte
// ranges of them across a world-size change, needs in place of a whole load.
// The rank is checked against the layout (checkRank), and a shard holding
// padding carries its padding rule: every replay, a splice's check included,
// meets it as the bytes stream, and a carry that moves no byte reads its tails
// (payload.carry).
func (c *Checkpoint) OptimExtents(rank int) (groups []GroupExtent, step int, err error) {
	rs, err := c.src.rank(rank)
	if err != nil {
		return nil, 0, err
	}
	if err := c.rankError(rank, c.checkRank(rank, rs)); err != nil {
		return nil, 0, err
	}
	groups = make([]GroupExtent, len(rs.groups))
	for i, g := range rs.groups {
		p := &rs.groups[i].payload
		pad := &padRule{c: c, rank: rank, m: g.meta}
		if _, n := pad.tails(); n > 0 {
			p.pad = pad
		}
		p.replays(groupSlotKey(rank, g.meta.Index))
		var once sync.Once
		var err error
		groups[i] = GroupExtent{ShardGroupMeta: g.meta, p: p,
			check: func() (n int64, _ error) {
				once.Do(func() { n, err = p.write(io.Discard) })
				return n, err
			}}
	}
	return groups, rs.step, nil
}

// rankCheck is what the one check of a checkpoint's optimizer ranks
// (checkRank) keeps per handle: the groups every rank must store, and the
// step of the first rank checked, which every other rank must match.
type rankCheck struct {
	once       sync.Once
	want       []ShardGroupMeta // the layout's groups of the manifest's layers, in index order
	at         map[int]int      // group index -> position in want
	err        error            // the layout's, when it cannot be rebuilt
	mu         sync.Mutex
	checked    bool // a rank has been checked: step is its step
	step, rank int
}

// checkRank is the one check of a rank's optimizer metadata against the
// checkpoint — what every reader of a rank's groups reads it through: the
// load driver in its two halves (Restore, ReadState, ReadOptimShard), and
// OptimExtents whole. The rank at position rank must claim that rank of the
// trainer state's world size, store exactly the layout's groups of the
// manifest's layers, none twice, in index order, each with the layout's
// numel, no_decay and layer and the shard length zero.Partition gives its
// numel over the world (checkLayout), and record the optimizer step every
// other rank read through this handle records (checkStep). It reads nothing,
// and returns every problem.
func (c *Checkpoint) checkRank(rank int, rs *rankPayloads) []error {
	return append(c.checkLayout(rank, rs), c.checkStep(rank, rs.step)...)
}

// checkStep is checkRank's step half: the first rank checked through this
// handle sets the step every other rank must record.
func (c *Checkpoint) checkStep(rank, step int) []error {
	rc := &c.ranks
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if !rc.checked {
		rc.checked, rc.step, rc.rank = true, step, rank
	} else if step != rc.step {
		return []error{fmt.Errorf("at optimizer step %d, rank %d at %d", step, rc.rank, rc.step)}
	}
	return nil
}

// checkLayout is checkRank's layout half: the rank's claim and its groups.
func (c *Checkpoint) checkLayout(rank int, rs *rankPayloads) []error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	ws := c.State.WorldSize
	if rs.rank != rank || rs.worldSize != ws {
		bad("shard claims rank %d of world size %d, want rank %d of %d", rs.rank, rs.worldSize, rank, ws)
	}
	rc := &c.ranks
	rc.once.Do(func() { rc.want, rc.at, rc.err = c.wantGroups() })
	if rc.err != nil {
		return append(errs, rc.err)
	}
	seen := make([]bool, len(rc.want))
	prev := -1
	for _, g := range rs.groups {
		m := g.meta
		i, ok := rc.at[m.Index]
		switch {
		case !ok:
			bad("unexpected group %d", m.Index)
			continue
		case seen[i]:
			bad("duplicate group %d", m.Index)
			continue
		case m.Index < prev:
			bad("group %d stored after group %d, out of index order", m.Index, prev)
		}
		seen[i], prev = true, m.Index
		w := rc.want[i]
		if m.Numel != w.Numel || m.NoDecay != w.NoDecay || m.Layer != w.Layer {
			bad("group %d metadata (numel %d, no_decay %v, layer %q) disagrees with the layout (numel %d, no_decay %v, layer %q)",
				m.Index, m.Numel, m.NoDecay, m.Layer, w.Numel, w.NoDecay, w.Layer)
			continue
		}
		if p, err := zero.NewPartition(w.Numel, ws); err != nil {
			bad("group %d: %v", m.Index, err)
		} else if m.ShardLen != p.ShardLen() {
			bad("group %d shard length %d, want %d (%d elements over %d ranks)", m.Index, m.ShardLen, p.ShardLen(), w.Numel, ws)
		}
	}
	for i, w := range rc.want {
		if !seen[i] {
			bad("missing group %d (%s)", w.Index, w.Layer)
		}
	}
	return errs
}

// wantGroups lists the groups every rank must store: the layout's groups of
// the manifest's layers (every group without a layer), in index order.
func (c *Checkpoint) wantGroups() ([]ShardGroupMeta, map[int]int, error) {
	layout, err := c.Layout()
	if err != nil {
		return nil, nil, fmt.Errorf("trainer state: %w", err)
	}
	layers := map[string]bool{}
	for _, l := range c.Manifest.Layers {
		layers[l] = true
	}
	var want []ShardGroupMeta
	at := map[int]int{}
	for _, g := range layout.Groups {
		if m := metaForGroup(g); !g.HasLayer || layers[m.Layer] {
			at[g.Index] = len(want)
			want = append(want, m)
		}
	}
	return want, at, nil
}

// rankError is checkRank's problems as one error.
func (c *Checkpoint) rankError(rank int, errs []error) error {
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("ckpt: %s: rank %d: %w", c.Dir, rank, errors.Join(errs...))
}
