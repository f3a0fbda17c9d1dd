// Package ckpt implements the on-disk checkpoint anatomy the paper operates
// on, with the same structural asymmetry as a DeepSpeed/HuggingFace
// checkpoint directory:
//
//	checkpoint-<step>/
//	  model.ltsf            consolidated half-precision weights (lazy reads)
//	  zero/rank_NN.ltos     one optimizer-state shard file per rank
//	  config.json           model architecture
//	  trainer_state.json    step, LR, loss history, layout, hyperparameters
//	  manifest.json         which layers this (possibly partial) ckpt holds
//
// LTSF ("LLMTailor safetensors") is a safetensors-like container: a JSON
// header with per-tensor dtype/shape/offset/CRC followed by raw
// little-endian payloads, so individual tensors can be read lazily by
// offset. LTOS shard files hold each parameter group's flat FP32 master +
// exp_avg + exp_avg_sq shard; they can only be read whole — the property
// that drives the paper's Table 7 loading costs.
package ckpt

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"sort"

	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

// FormatVersion is bumped on incompatible layout changes.
const FormatVersion = 1

var (
	ltsfMagic = [4]byte{'L', 'T', 'S', 'F'}
	ltosMagic = [4]byte{'L', 'T', 'O', 'S'}
)

type ltsfTensorMeta struct {
	DType   string   `json:"dtype"`
	Shape   []int    `json:"shape"`
	Offsets [2]int64 `json:"data_offsets"`
	CRC32   uint32   `json:"crc32"`
}

type ltsfHeader struct {
	Version int                       `json:"version"`
	Model   string                    `json:"model"`
	Tensors map[string]ltsfTensorMeta `json:"tensors"`
}

// WriteLTSF serialises the given tensors into an LTSF container at name.
// Tensor payload order follows the given slice order; the header indexes
// them by name for lazy retrieval. It is a convenience loop over LTSFWriter
// for callers that already hold every tensor; streaming producers should use
// LTSFWriter directly and feed tensors one at a time.
func WriteLTSF(b storage.Backend, name, modelName string, tensors []*tensor.Tensor) error {
	w, err := NewLTSFWriter(b, name, modelName, 0)
	if err != nil {
		return err
	}
	defer w.Abort()
	for _, t := range tensors {
		if err := w.WriteTensor(t); err != nil {
			return err
		}
	}
	return w.Close()
}

// containerWriter is the spool-then-assemble lifecycle shared by the
// streaming LTSF and LTOS writers: payload sections are encoded in bounded
// chunks into backend scratch space (a temp file for OS-rooted backends),
// and finish assembles magic + header + payload through the backend's
// streaming writer. Peak memory is one chunk plus accumulated metadata —
// never the payload.
type containerWriter struct {
	b     storage.Backend
	name  string
	magic [4]byte
	spool storage.Spool
	buf   []byte
	off   int64
	wrote int64
	err   error
	done  bool
}

func newContainerWriter(b storage.Backend, name string, magic [4]byte, chunkBytes int) (containerWriter, error) {
	spool, err := storage.NewSpool(b)
	if err != nil {
		return containerWriter{}, err
	}
	return containerWriter{
		b:     b,
		name:  name,
		magic: magic,
		spool: spool,
		buf:   make([]byte, storage.ChunkOrDefault(chunkBytes)),
	}, nil
}

// writable gates a section write, reporting any sticky or lifecycle error.
func (w *containerWriter) writable() error {
	if w.err != nil {
		return w.err
	}
	if w.done {
		return fmt.Errorf("ckpt: write to %s after Close", w.name)
	}
	return nil
}

// spoolSection streams one payload section produced by write into the
// spool and advances the payload offset. The section's CRC is crc carried
// forward when hasCRC is set, computed inline otherwise. write must deliver
// exactly size bytes.
func (w *containerWriter) spoolSection(size int64, crc uint32, hasCRC bool,
	write func(io.Writer) (int64, error)) (uint32, error) {
	var sink io.Writer = w.spool
	var inline hash.Hash32
	if !hasCRC {
		inline = crc32.NewIEEE()
		sink = io.MultiWriter(sink, inline)
	}
	n, err := write(sink)
	if err == nil && n != size {
		err = fmt.Errorf("source delivered %d of %d bytes", n, size)
	}
	if err != nil {
		return 0, err
	}
	if inline != nil {
		crc = inline.Sum32()
	}
	w.off += size
	return crc, nil
}

// fail makes err sticky: the writer refuses further sections.
func (w *containerWriter) fail(err error) error {
	w.err = err
	return err
}

// finish writes the final container with the given header and releases the
// scratch space. Idempotent; returns the sticky error if the writer failed.
func (w *containerWriter) finish(hdr any) error {
	if w.err != nil {
		w.Abort()
		return w.err
	}
	if w.done {
		return nil
	}
	w.done = true
	n, err := writeContainerStream(w.b, w.name, w.magic, hdr, w.spool, w.buf)
	w.wrote = n
	w.spool = nil
	return err
}

// Preallocate reserves scratch capacity for a payload whose total size the
// caller knows upfront. Advisory: file-backed spools ignore it, and the
// payload may still exceed (or undershoot) the reservation.
func (w *containerWriter) Preallocate(n int64) {
	if w.spool != nil {
		storage.GrowSpool(w.spool, n)
	}
}

// Abort discards the writer without producing the file (safe after Close).
func (w *containerWriter) Abort() {
	w.done = true
	if w.spool != nil {
		w.spool.Discard()
		w.spool = nil
	}
}

// BytesWritten returns the total container size once Close has succeeded.
func (w *containerWriter) BytesWritten() int64 { return w.wrote }

// LTSFWriter streams an LTSF container section by section: tensors are
// accepted one at a time through the shared containerWriter lifecycle. The
// bytes produced are identical to WriteLTSF given the same tensors in the
// same order.
type LTSFWriter struct {
	containerWriter
	hdr ltsfHeader
}

// NewLTSFWriter opens a streaming writer targeting name. chunkBytes <= 0
// selects the default chunk size.
func NewLTSFWriter(b storage.Backend, name, modelName string, chunkBytes int) (*LTSFWriter, error) {
	cw, err := newContainerWriter(b, name, ltsfMagic, chunkBytes)
	if err != nil {
		return nil, err
	}
	return &LTSFWriter{
		containerWriter: cw,
		hdr:             ltsfHeader{Version: FormatVersion, Model: modelName, Tensors: map[string]ltsfTensorMeta{}},
	}, nil
}

// WriteTensor appends one tensor's payload and records its metadata. The
// tensor may be released by the caller as soon as WriteTensor returns.
func (w *LTSFWriter) WriteTensor(t *tensor.Tensor) error {
	rt := RawTensor{Name: t.Name, DType: t.DType.String(), Shape: append([]int(nil), t.Shape...), Size: int64(t.Bytes())}
	return w.appendPayload(rt, false, func(sink io.Writer) (int64, error) {
		return t.EncodeTo(sink, w.buf)
	})
}

// appendPayload spools one tensor payload produced by write and records its
// header entry — the single section writer under WriteTensor, AppendRaw and
// the checkpoint write stage. With hasCRC set, rt.CRC32 is carried forward
// untouched; otherwise the checksum is computed inline as the bytes stream
// through. The metadata is validated the same way OpenLTSF validates headers
// — an inconsistent dtype/shape/size errors out (never panics) before any
// byte is spooled — and write must deliver exactly rt.Size bytes. rt.Shape
// is retained, not copied.
func (w *LTSFWriter) appendPayload(rt RawTensor, hasCRC bool, write func(io.Writer) (int64, error)) error {
	if err := w.writable(); err != nil {
		return err
	}
	if _, dup := w.hdr.Tensors[rt.Name]; dup {
		return fmt.Errorf("ckpt: duplicate tensor %q in LTSF write", rt.Name)
	}
	meta := ltsfTensorMeta{
		DType:   rt.DType,
		Shape:   rt.Shape,
		Offsets: [2]int64{w.off, w.off + rt.Size},
		CRC32:   rt.CRC32,
	}
	if rt.Size < 0 {
		return fmt.Errorf("ckpt: %s: tensor %q: negative size %d", w.name, rt.Name, rt.Size)
	}
	// Validate against an unbounded virtual payload ending at the extent.
	if err := validateTensorMeta(rt.Name, meta, meta.Offsets[1]); err != nil {
		return fmt.Errorf("ckpt: %s: %w", w.name, err)
	}
	var err error
	if meta.CRC32, err = w.spoolSection(rt.Size, rt.CRC32, hasCRC, write); err != nil {
		return w.fail(fmt.Errorf("ckpt: %s: spool tensor %q: %w", w.name, rt.Name, err))
	}
	w.hdr.Tensors[rt.Name] = meta
	return nil
}

// Close writes the final container and releases the scratch space.
func (w *LTSFWriter) Close() error { return w.finish(w.hdr) }

// writeContainerStream streams magic + header length + JSON header + the
// spooled payload to the backend, returning the container's total size.
func writeContainerStream(b storage.Backend, name string, magic [4]byte, hdr any, spool storage.Spool, buf []byte) (int64, error) {
	hj, err := json.Marshal(hdr)
	if err != nil {
		spool.Discard()
		return 0, fmt.Errorf("ckpt: marshal header: %w", err)
	}
	pr, err := spool.Reader()
	if err != nil {
		spool.Discard()
		return 0, fmt.Errorf("ckpt: %s: read spool: %w", name, err)
	}
	defer pr.Close()
	out, err := b.Create(name)
	if err != nil {
		return 0, err
	}
	prefix := make([]byte, 0, 12)
	prefix = append(prefix, magic[:]...)
	prefix = binary.LittleEndian.AppendUint64(prefix, uint64(len(hj)))
	var total int64
	for _, seg := range [][]byte{prefix, hj} {
		n, err := out.Write(seg)
		total += int64(n)
		if err != nil {
			out.Close()
			return total, fmt.Errorf("ckpt: write %s: %w", name, err)
		}
	}
	n, err := io.CopyBuffer(out, pr, buf)
	total += n
	if err != nil {
		out.Close()
		return total, fmt.Errorf("ckpt: write %s payload: %w", name, err)
	}
	if err := out.Close(); err != nil {
		return total, fmt.Errorf("ckpt: close %s: %w", name, err)
	}
	return total, nil
}

// readContainerHeader reads the magic, validates it, decodes the JSON header
// into hdr and returns the payload start offset within the file.
func readContainerHeader(b storage.Backend, name string, magic [4]byte, hdr any) (int64, error) {
	head := make([]byte, 12)
	if err := b.ReadAt(name, 0, head); err != nil {
		return 0, fmt.Errorf("ckpt: %s: read header: %w", name, err)
	}
	for i := range magic {
		if head[i] != magic[i] {
			return 0, fmt.Errorf("ckpt: %s: bad magic %q, want %q", name, head[:4], magic[:])
		}
	}
	hlen := int64(binary.LittleEndian.Uint64(head[4:]))
	size, err := b.Stat(name)
	if err != nil {
		return 0, err
	}
	// Compare without adding: a near-MaxInt64 header length would overflow
	// 12+hlen and sail past the bound into a giant allocation.
	if hlen <= 0 || hlen > size-12 {
		return 0, fmt.Errorf("ckpt: %s: corrupt header length %d (file %d bytes)", name, hlen, size)
	}
	hj := make([]byte, hlen)
	if err := b.ReadAt(name, 12, hj); err != nil {
		return 0, fmt.Errorf("ckpt: %s: read header body: %w", name, err)
	}
	if err := json.Unmarshal(hj, hdr); err != nil {
		return 0, fmt.Errorf("ckpt: %s: decode header: %w", name, err)
	}
	return 12 + hlen, nil
}

// LTSFReader provides lazy per-tensor access to an LTSF file — analogous to
// memory-mapping a safetensors file. Opening reads only the header.
type LTSFReader struct {
	backend    storage.Backend
	name       string
	hdr        ltsfHeader
	payloadOff int64
}

// OpenLTSF reads and validates the header of an LTSF file. Every tensor
// entry is bounds-checked against the payload here, so later ReadTensor
// allocations are capped by the real file size no matter what a corrupt or
// adversarial header claims.
func OpenLTSF(b storage.Backend, name string) (*LTSFReader, error) {
	r := &LTSFReader{backend: b, name: name}
	off, err := readContainerHeader(b, name, ltsfMagic, &r.hdr)
	if err != nil {
		return nil, err
	}
	if r.hdr.Version != FormatVersion {
		return nil, fmt.Errorf("ckpt: %s: version %d, want %d", name, r.hdr.Version, FormatVersion)
	}
	size, err := b.Stat(name)
	if err != nil {
		return nil, err
	}
	payloadLen := size - off
	for tn, meta := range r.hdr.Tensors {
		if err := validateTensorMeta(tn, meta, payloadLen); err != nil {
			return nil, fmt.Errorf("ckpt: %s: %w", name, err)
		}
	}
	r.payloadOff = off
	return r, nil
}

// validateTensorMeta rejects header entries whose dtype, shape or offsets
// are inconsistent or escape the payload — the guards that keep truncated
// and bit-flipped containers erroring instead of panicking or allocating
// unbounded memory.
func validateTensorMeta(name string, meta ltsfTensorMeta, payloadLen int64) error {
	dt, err := tensor.ParseDType(meta.DType)
	if err != nil {
		return fmt.Errorf("tensor %q: %w", name, err)
	}
	if meta.Offsets[0] < 0 || meta.Offsets[1] < meta.Offsets[0] || meta.Offsets[1] > payloadLen {
		return fmt.Errorf("tensor %q: offsets %v outside payload (%d bytes)", name, meta.Offsets, payloadLen)
	}
	numel := int64(1)
	for _, d := range meta.Shape {
		// Dimensions must be positive (tensor.New rejects 0 and negatives
		// by panicking — this reader must error instead), and the running
		// product must stay within the payload, checked by division so it
		// can never wrap around int64.
		if d <= 0 {
			return fmt.Errorf("tensor %q: non-positive dimension %d", name, d)
		}
		if numel > payloadLen/int64(d) {
			return fmt.Errorf("tensor %q: shape %v overflows payload (%d bytes)", name, meta.Shape, payloadLen)
		}
		numel *= int64(d)
	}
	// numel ≤ payloadLen here, so numel*size cannot overflow.
	if want := numel * int64(dt.Size()); want != meta.Offsets[1]-meta.Offsets[0] {
		return fmt.Errorf("tensor %q: shape %v (%s) needs %d bytes, offsets hold %d",
			name, meta.Shape, meta.DType, want, meta.Offsets[1]-meta.Offsets[0])
	}
	return nil
}

// Model returns the model name recorded at write time.
func (r *LTSFReader) Model() string { return r.hdr.Model }

// Names returns the sorted tensor names present in the file.
func (r *LTSFReader) Names() []string {
	out := make([]string, 0, len(r.hdr.Tensors))
	for n := range r.hdr.Tensors {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Has reports whether the file contains the named tensor.
func (r *LTSFReader) Has(name string) bool {
	_, ok := r.hdr.Tensors[name]
	return ok
}

// PayloadSize returns the stored byte size of the named tensor's payload
// (header-only metadata — no payload I/O). The merge pipeline uses it to
// reserve in-flight memory before reading.
func (r *LTSFReader) PayloadSize(name string) (int64, bool) {
	meta, ok := r.hdr.Tensors[name]
	if !ok {
		return 0, false
	}
	return meta.Offsets[1] - meta.Offsets[0], true
}

// ReadTensor lazily reads one tensor's payload, verifies its CRC and
// returns the decoded tensor. Only the tensor's bytes are read — the lazy
// property the paper notes model weights enjoy but optimizer states do not.
func (r *LTSFReader) ReadTensor(name string) (*tensor.Tensor, error) {
	meta, ok := r.hdr.Tensors[name]
	if !ok {
		return nil, fmt.Errorf("ckpt: %s: no tensor %q", r.name, name)
	}
	dt, err := tensor.ParseDType(meta.DType)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: tensor %q: %w", r.name, name, err)
	}
	n := meta.Offsets[1] - meta.Offsets[0]
	buf := make([]byte, n)
	if err := r.backend.ReadAt(r.name, r.payloadOff+meta.Offsets[0], buf); err != nil {
		return nil, err
	}
	if got := crc32.ChecksumIEEE(buf); got != meta.CRC32 {
		return nil, fmt.Errorf("ckpt: %s: tensor %q: CRC mismatch (%08x != %08x)", r.name, name, got, meta.CRC32)
	}
	t := tensor.New(name, dt, meta.Shape...)
	if err := t.Decode(buf); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadAll reads every tensor in name order.
func (r *LTSFReader) ReadAll() ([]*tensor.Tensor, error) {
	names := r.Names()
	out := make([]*tensor.Tensor, 0, len(names))
	for _, n := range names {
		t, err := r.ReadTensor(n)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
