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
//
// This file and ltos.go are the codecs (writers, framing, header validation);
// what a committed checkpoint holds is read through the read stage (read.go).
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

// formatVersion is bumped on incompatible layout changes.
const formatVersion = 1

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

// reserve sizes the scratch space for a payload of n bytes the caller knows
// upfront. Advisory: file-backed spools ignore it.
func (w *containerWriter) reserve(n int64) {
	if w.spool != nil {
		storage.Reserve(w.spool, n)
	}
}

// Abort discards the writer without producing the file (safe after Close).
func (w *containerWriter) Abort() {
	w.done = true
	if w.spool != nil {
		w.spool.Release()
		w.spool = nil
	}
}

// BytesWritten returns the total container size once Close has succeeded.
func (w *containerWriter) BytesWritten() int64 { return w.wrote }

// ltsfWriter streams an LTSF container section by section: tensors are
// accepted one at a time through the shared containerWriter lifecycle. The
// bytes produced are identical to writeLTSF's (ltsf_test.go) given the same
// tensors in the same order.
type ltsfWriter struct {
	containerWriter
	hdr ltsfHeader
}

// newLTSFWriter opens a streaming writer targeting name. chunkBytes <= 0
// selects the default chunk size.
func newLTSFWriter(b storage.Backend, name, modelName string, chunkBytes int) (*ltsfWriter, error) {
	cw, err := newContainerWriter(b, name, ltsfMagic, chunkBytes)
	if err != nil {
		return nil, err
	}
	return &ltsfWriter{
		containerWriter: cw,
		hdr:             ltsfHeader{Version: formatVersion, Model: modelName, Tensors: map[string]ltsfTensorMeta{}},
	}, nil
}

// WriteTensor appends one tensor's payload and records its metadata. The
// tensor may be released by the caller as soon as WriteTensor returns.
func (w *ltsfWriter) WriteTensor(t *tensor.Tensor) error {
	rt := RawTensor{Name: t.Name, DType: t.DType.String(), Shape: append([]int(nil), t.Shape...), Size: int64(t.Bytes())}
	return w.appendPayload(rt, false, func(sink io.Writer) (int64, error) {
		return t.EncodeTo(sink, w.buf)
	})
}

// appendPayload spools one tensor payload produced by write and records its
// header entry — the single section writer under WriteTensor and the
// checkpoint write stage. With hasCRC set, rt.CRC32 is carried forward
// untouched; otherwise the checksum is computed inline as the bytes stream
// through. The metadata is validated the same way openLTSF validates headers
// — an inconsistent dtype/shape/size errors out (never panics) before any
// byte is spooled — and write must deliver exactly rt.Size bytes. rt.Shape
// is retained, not copied.
func (w *ltsfWriter) appendPayload(rt RawTensor, hasCRC bool, write func(io.Writer) (int64, error)) error {
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
func (w *ltsfWriter) Close() error { return w.finish(w.hdr) }

// writeContainerStream streams magic + header length + JSON header + the
// spooled payload to the backend, returning the container's total size.
func writeContainerStream(b storage.Backend, name string, magic [4]byte, hdr any, spool storage.Spool, buf []byte) (int64, error) {
	defer spool.Release()
	hj, err := json.Marshal(hdr)
	if err != nil {
		return 0, fmt.Errorf("ckpt: marshal header: %w", err)
	}
	pr, err := spool.Open()
	if err != nil {
		return 0, fmt.Errorf("ckpt: %s: read spool: %w", name, err)
	}
	defer pr.Close()
	out, err := b.Create(name)
	if err != nil {
		return 0, err
	}
	storage.Reserve(out, 12+int64(len(hj))+spool.Len())
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

// readContainerHeader is parseContainerHeader for a lazy reader: one Stat and
// two ReadAts, no payload byte touched. It returns the payload section's
// start offset within the file and its length.
func readContainerHeader(b storage.Backend, name string, magic [4]byte, hdr any) (off, payloadLen int64, err error) {
	size, err := b.Stat(name)
	if err != nil {
		return 0, 0, err
	}
	var pos int64
	hlen, err := parseContainerHeader(name, size, magic, hdr, func(p []byte) error {
		err := b.ReadAt(name, pos, p)
		pos += int64(len(p))
		return err
	})
	return 12 + hlen, size - 12 - hlen, err
}

// parseContainerHeader reads the framing every container shares — magic,
// little-endian uint64 header length, JSON header — through next, which
// delivers the file's leading bytes in order (ReadAts for a lazy reader, the
// one open stream for a whole-file load). The header length is bounded by
// size, the file's real size, before anything is allocated.
func parseContainerHeader(name string, size int64, magic [4]byte, hdr any, next func(p []byte) error) (hlen int64, err error) {
	if size < 12 {
		return 0, fmt.Errorf("ckpt: %s: truncated (%d bytes)", name, size)
	}
	head := make([]byte, 12)
	if err := next(head); err != nil {
		return 0, fmt.Errorf("ckpt: %s: read header: %w", name, err)
	}
	for i := range magic {
		if head[i] != magic[i] {
			return 0, fmt.Errorf("ckpt: %s: bad magic %q, want %q", name, head[:4], magic[:])
		}
	}
	// Compare without adding: a near-MaxInt64 header length would overflow
	// 12+hlen and sail past the bound into a giant allocation.
	hlen = int64(binary.LittleEndian.Uint64(head[4:]))
	if hlen <= 0 || hlen > size-12 {
		return 0, fmt.Errorf("ckpt: %s: corrupt header length %d (file %d bytes)", name, hlen, size)
	}
	hj := make([]byte, hlen)
	if err := next(hj); err != nil {
		return 0, fmt.Errorf("ckpt: %s: read header body: %w", name, err)
	}
	if err := json.Unmarshal(hj, hdr); err != nil {
		return 0, fmt.Errorf("ckpt: %s: decode header: %w", name, err)
	}
	return hlen, nil
}

// openLTSF reads and validates the header of an LTSF file and lists its
// tensors as Weights — analogous to memory-mapping a safetensors file: no
// payload byte is read. Every tensor entry is bounds-checked against the
// payload here, so later ReadTensor allocations are capped by the real file
// size no matter what a corrupt or adversarial header claims.
func openLTSF(b storage.Backend, name string) (*Weights, error) {
	var hdr ltsfHeader
	off, payloadLen, err := readContainerHeader(b, name, ltsfMagic, &hdr)
	if err != nil {
		return nil, err
	}
	if hdr.Version != formatVersion {
		return nil, fmt.Errorf("ckpt: %s: version %d, want %d", name, hdr.Version, formatVersion)
	}
	names := make([]string, 0, len(hdr.Tensors))
	for tn, meta := range hdr.Tensors {
		if err := validateTensorMeta(tn, meta, payloadLen); err != nil {
			return nil, fmt.Errorf("ckpt: %s: %w", name, err)
		}
		names = append(names, tn)
	}
	// Stored order; names break ties (overlapping extents of a hand-made
	// header) so the listing stays deterministic.
	sort.Slice(names, func(i, j int) bool {
		oi, oj := hdr.Tensors[names[i]].Offsets[0], hdr.Tensors[names[j]].Offsets[0]
		return oi < oj || oi == oj && names[i] < names[j]
	})
	list := make([]weightPayload, len(names))
	for i, tn := range names {
		meta := hdr.Tensors[tn]
		base := off + meta.Offsets[0]
		list[i] = weightPayload{
			payload: storedPayload(meta.Offsets[1]-meta.Offsets[0], meta.CRC32, "", weightSlot(tn),
				func(o, n int64) (io.ReadCloser, error) { return b.OpenRange(name, base+o, n) }),
			name: tn, dtype: meta.DType, shape: meta.Shape,
		}
	}
	return newWeights(name, hdr.Model, list), nil
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
