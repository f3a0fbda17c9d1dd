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
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"

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

// containerWriter is the header-first lifecycle shared by the LTSF and LTOS
// writers: sections are listed as they are appended, and Close builds the
// header from their sizes and CRCs, opens the file through Backend.Create and
// streams each section straight in, CRCing the bytes as they go, so a section
// whose bytes differ from its header CRC fails the container before anything
// commits. A section appended without a CRC (an output's computed payload) is
// first encoded into one scratch spool for the container, created at the
// first such section, and replayed from it; every other section's bytes are
// produced once, into the file. Peak memory is one chunk plus metadata and
// an output's weight read-ahead, never the payload.
type containerWriter struct {
	b     storage.Backend
	name  string
	magic [4]byte
	ra    readAhead
	// label names the i-th section in errors.
	label func(i int) string
	secs  []section
	off   int64
	spool storage.Spool
	peak  int64
	wrote int64
	done  bool
}

// section is the i-th payload section of a container.
type section struct {
	*payload
	i int
}

// add lists one payload section at the current payload offset.
func (w *containerWriter) add(p *payload) error {
	if w.done {
		return fmt.Errorf("ckpt: write to %s after Close", w.name)
	}
	w.secs = append(w.secs, section{p, len(w.secs)})
	w.off += p.size
	return nil
}

// crcWriter passes bytes on to w, CRCing them. A checked replay or a
// read-ahead handed one supplies the sum, so each byte is CRC'd once.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// chunkWriter hands w writes of at most n bytes (a buffered writer passes a
// write larger than its free space straight on).
type chunkWriter struct {
	w io.Writer
	n int
}

func (c chunkWriter) Write(p []byte) (n int, err error) {
	for n < len(p) && err == nil {
		k := min(len(p)-n, c.n)
		var m int
		if m, err = c.w.Write(p[n : n+k]); m < k && err == nil {
			err = io.ErrShortWrite
		}
		n += m
	}
	return n, err
}

// settle gives every listed section without a CRC its CRC by encoding it,
// through the read-ahead, into the container's spool, which the section
// replays from then on. Sections that have one are untouched, so settle is
// idempotent.
func (w *containerWriter) settle() error {
	var todo []section
	var total int64
	for _, s := range w.secs {
		if !s.hasCRC {
			todo, total = append(todo, s), total+s.size
		}
	}
	if len(todo) == 0 {
		return nil
	}
	if w.spool == nil {
		sp, err := storage.NewSpool(w.b)
		if err != nil {
			return err
		}
		w.spool = sp
		storage.Reserve(sp, total)
	}
	sp, c := w.spool, &crcWriter{w: w.spool}
	peak, err := w.ra.stream(todo, func(s section, write func(io.Writer) (int64, error)) error {
		off := sp.Len()
		c.crc = 0
		if err := s.copyTo(c, write); err != nil {
			return fmt.Errorf("ckpt: %s: spool %s: %w", w.name, w.label(s.i), err)
		}
		s.crc, s.hasCRC = c.crc, true
		s.write = replay(func() (io.ReadCloser, error) { return sp.OpenRange(off, s.size) })
		return nil
	})
	w.peak = max(w.peak, peak)
	return err
}

// copyTo writes the section's bytes, as write delivers them, to dst: exactly
// its size, its payload released once they are out.
func (s section) copyTo(dst io.Writer, write func(io.Writer) (int64, error)) error {
	n, err := write(dst)
	if err == nil && n != s.size {
		err = fmt.Errorf("source delivered %d of %d bytes", n, s.size)
	}
	if err == nil {
		s.consumed()
	}
	return err
}

// fileBufs recycles the default-size buffers containers are written through:
// a save writes several containers at once, and every checkpoint writes W+1.
var fileBufs = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, storage.ChunkOrDefault(0)) }}

// finish writes the container, once: every section settled, the header hdr
// returns, then the payload sections in order, each held to its size and its
// header CRC. Magic and length, and the header, are one write each; the
// payload goes through one chunk-sized buffer, in writes of at most a chunk.
// A container that fails mid-stream is removed. The writer is spent
// afterwards, whatever the outcome.
func (w *containerWriter) finish(hdr func() any) error {
	if w.done {
		return nil
	}
	defer w.Abort()
	if err := w.settle(); err != nil {
		return err
	}
	hj, err := json.Marshal(hdr())
	if err != nil {
		return fmt.Errorf("ckpt: marshal header: %w", err)
	}
	out, err := w.b.Create(w.name)
	if err != nil {
		return err
	}
	size := 12 + int64(len(hj)) + w.off
	storage.Reserve(out, size)
	prefix := binary.LittleEndian.AppendUint64(append([]byte(nil), w.magic[:]...), uint64(len(hj)))
	for _, seg := range [][]byte{prefix, hj} {
		if _, err = out.Write(seg); err != nil {
			break
		}
	}
	var bw *bufio.Writer
	chunk := chunkWriter{out, storage.ChunkOrDefault(w.ra.chunk)}
	if w.ra.chunk <= 0 {
		bw = fileBufs.Get().(*bufio.Writer)
		defer fileBufs.Put(bw)
		bw.Reset(chunk)
	} else {
		bw = bufio.NewWriterSize(chunk, w.ra.chunk)
	}
	if err == nil {
		var peak int64
		c := &crcWriter{w: bw}
		peak, err = w.ra.stream(w.secs, func(s section, write func(io.Writer) (int64, error)) error {
			c.crc = 0
			err := s.copyTo(c, write)
			if err == nil && c.crc != s.crc {
				err = fmt.Errorf("streamed CRC %08x, header %08x", c.crc, s.crc)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", w.label(s.i), err)
			}
			return nil
		})
		w.peak = max(w.peak, peak)
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		// What was streamed is no container: leave no file behind.
		out.Close()
		w.b.Remove(w.name)
		return fmt.Errorf("ckpt: write %s: %w", w.name, err)
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("ckpt: close %s: %w", w.name, err)
	}
	w.wrote = size
	return nil
}

// Abort discards the writer without producing the file (safe after Close).
func (w *containerWriter) Abort() {
	w.done = true
	if w.spool != nil {
		w.spool.Release()
		w.spool = nil
	}
}

// ltsfWriter writes an LTSF container through the shared containerWriter
// lifecycle, tensors appended one at a time. The bytes produced are
// identical to writeLTSF's (ltsf_test.go) given the same tensors in the same
// order.
type ltsfWriter struct {
	containerWriter
	hdr   ltsfHeader
	names []string
}

// newLTSFWriter starts a writer targeting name; ra shapes how its sections
// are produced (ra.chunk <= 0: the default chunk size).
func newLTSFWriter(b storage.Backend, name, modelName string, ra readAhead) *ltsfWriter {
	w := &ltsfWriter{
		containerWriter: containerWriter{b: b, name: name, magic: ltsfMagic, ra: ra},
		hdr:             ltsfHeader{Version: formatVersion, Model: modelName, Tensors: map[string]ltsfTensorMeta{}},
	}
	w.label = func(i int) string { return fmt.Sprintf("tensor %q", w.names[i]) }
	return w
}

// appendPayload lists one tensor payload and its header entry — the write
// stage's one section writer for weights. The metadata is validated the same
// way openLTSF validates headers: an inconsistent dtype/shape/size errors out
// (never panics) before anything is listed. wp.shape is retained, not copied.
func (w *ltsfWriter) appendPayload(wp *weightPayload) error {
	if _, dup := w.hdr.Tensors[wp.name]; dup {
		return fmt.Errorf("ckpt: duplicate tensor %q in LTSF write", wp.name)
	}
	if wp.size < 0 {
		return fmt.Errorf("ckpt: %s: tensor %q: negative size %d", w.name, wp.name, wp.size)
	}
	meta := ltsfTensorMeta{DType: wp.dtype, Shape: wp.shape, Offsets: [2]int64{w.off, w.off + wp.size}}
	// Validate against an unbounded virtual payload ending at the extent.
	if err := validateTensorMeta(wp.name, meta, meta.Offsets[1]); err != nil {
		return fmt.Errorf("ckpt: %s: %w", w.name, err)
	}
	if err := w.add(&wp.payload); err != nil {
		return err
	}
	w.hdr.Tensors[wp.name] = meta
	w.names = append(w.names, wp.name)
	return nil
}

// Close writes the container.
func (w *ltsfWriter) Close() error {
	return w.finish(func() any {
		for i, name := range w.names {
			meta := w.hdr.Tensors[name]
			meta.CRC32 = w.secs[i].crc
			w.hdr.Tensors[name] = meta
		}
		return w.hdr
	})
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
