package ckpt

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/zero"
)

// ShardGroupMeta describes one parameter group's shard inside an LTOS file.
type ShardGroupMeta struct {
	// Index is the group's global index in the optimizer layout.
	Index int `json:"index"`
	// Numel is the *unpadded* element count of the full group.
	Numel int64 `json:"numel"`
	// ShardLen is this rank's (padded) shard length.
	ShardLen int64 `json:"shard_len"`
	// NoDecay mirrors the group's weight-decay exemption.
	NoDecay bool `json:"no_decay"`
	// Layer names the owning layer ("layer.3", "embed_tokens", ...);
	// empty in two-group layouts.
	Layer string `json:"layer,omitempty"`
	// Offsets is the [start, end) payload range of the group's data:
	// master, exp_avg and exp_avg_sq concatenated, FP32 little-endian.
	Offsets [2]int64 `json:"data_offsets"`
	// CRC32 covers the group's payload range.
	CRC32 uint32 `json:"crc32"`
}

type ltosHeader struct {
	Version   int              `json:"version"`
	Rank      int              `json:"rank"`
	WorldSize int              `json:"world_size"`
	Step      int              `json:"step"`
	Layout    string           `json:"layout"`
	Groups    []ShardGroupMeta `json:"groups"`
}

// ShardFile is the fully decoded contents of one rank's optimizer file.
type ShardFile struct {
	Rank      int
	WorldSize int
	Step      int
	Layout    optim.LayoutKind
	// Groups holds the decoded shards in file order, alongside their
	// metadata (same indices).
	Meta   []ShardGroupMeta
	Shards []*zero.GroupShard
	// FileBytes is the on-disk container size, for I/O accounting.
	FileBytes int64
}

// GroupByIndex returns the shard and metadata of the group with the given
// global layout index, or an error if the file does not contain it (partial
// checkpoints omit unsaved layers' groups).
func (f *ShardFile) GroupByIndex(idx int) (*zero.GroupShard, ShardGroupMeta, error) {
	for i, m := range f.Meta {
		if m.Index == idx {
			return f.Shards[i], m, nil
		}
	}
	return nil, ShardGroupMeta{}, fmt.Errorf("ckpt: rank %d shard has no group %d", f.Rank, idx)
}

// ShardFileName returns the conventional per-rank optimizer file name,
// mirroring DeepSpeed's bf16_zero_pp_rank_N_mp_rank_00_optim_states.pt.
func ShardFileName(rank int) string {
	return fmt.Sprintf("zero/rank_%02d_optim_states.ltos", rank)
}

// WriteShardFile serialises one rank's shards of the given groups. meta and
// shards must be parallel slices. It is a convenience loop over
// ShardFileWriter; streaming producers should feed groups one at a time.
func WriteShardFile(b storage.Backend, name string, rank, worldSize, step int,
	layout optim.LayoutKind, meta []ShardGroupMeta, shards []*zero.GroupShard) error {
	if len(meta) != len(shards) {
		return fmt.Errorf("ckpt: %d metas vs %d shards", len(meta), len(shards))
	}
	w, err := NewShardFileWriter(b, name, rank, worldSize, step, layout, 0)
	if err != nil {
		return err
	}
	defer w.Abort()
	for i, m := range meta {
		if err := w.WriteGroup(m, shards[i]); err != nil {
			return err
		}
	}
	return w.Close()
}

// ShardFileWriter streams an LTOS shard file group by group, mirroring
// LTSFWriter: groups are accepted one at a time through the shared
// containerWriter lifecycle. Byte-identical to WriteShardFile given the
// same groups in the same order.
type ShardFileWriter struct {
	containerWriter
	rank int
	hdr  ltosHeader
}

// NewShardFileWriter opens a streaming writer for one rank's optimizer
// shard file. chunkBytes <= 0 selects the default chunk size.
func NewShardFileWriter(b storage.Backend, name string, rank, worldSize, step int,
	layout optim.LayoutKind, chunkBytes int) (*ShardFileWriter, error) {
	cw, err := newContainerWriter(b, name, ltosMagic, chunkBytes)
	if err != nil {
		return nil, err
	}
	return &ShardFileWriter{
		containerWriter: cw,
		rank:            rank,
		hdr: ltosHeader{
			Version: FormatVersion, Rank: rank, WorldSize: worldSize,
			Step: step, Layout: layout.String(),
		},
	}, nil
}

// WriteGroup appends one group's shard (master + exp_avg + exp_avg_sq) and
// records its metadata. The shard may be released once WriteGroup returns.
func (w *ShardFileWriter) WriteGroup(m ShardGroupMeta, s *zero.GroupShard) error {
	if s.Rank != w.rank {
		return fmt.Errorf("ckpt: shard for rank %d written into rank %d file", s.Rank, w.rank)
	}
	m.ShardLen = s.Numel()
	return w.appendPayload(m, s.Numel()*12, false, func(sink io.Writer) (int64, error) {
		return encodeGroupPayload(sink, w.buf, s)
	})
}

// AppendRawGroup splices a pre-encoded group payload (master + exp_avg +
// exp_avg_sq, FP32 little-endian) into the shard file and records its
// metadata with the source CRC carried forward — the LTOS counterpart of
// LTSFWriter.AppendRaw. m must carry the group's geometry and CRC.
func (w *ShardFileWriter) AppendRawGroup(m ShardGroupMeta, size int64, src io.Reader) error {
	return w.appendPayload(m, size, true, func(sink io.Writer) (int64, error) {
		return spliceTo(sink, src, size, w.buf)
	})
}

// appendPayload spools one group payload produced by write and records its
// metadata — the single section writer under WriteGroup, AppendRawGroup and
// the checkpoint write stage. With hasCRC set, m.CRC32 is carried forward;
// otherwise it is computed inline. Offsets are assigned here (a full save's
// payload is gap-free). The size is validated against the geometry before
// any byte is spooled, and a short or long source errors out (never panics).
func (w *ShardFileWriter) appendPayload(m ShardGroupMeta, size int64, hasCRC bool, write func(io.Writer) (int64, error)) error {
	if err := w.writable(); err != nil {
		return err
	}
	// Division-checked geometry: size is a caller claim, so 12×ShardLen
	// must never be formed directly (int64 wrap).
	if m.ShardLen < 0 || size < 0 || size%12 != 0 || m.ShardLen != size/12 {
		return fmt.Errorf("ckpt: %s: group %d payload %d bytes, want 12×%d", w.name, m.Index, size, m.ShardLen)
	}
	m.Offsets = [2]int64{w.off, w.off + size}
	var err error
	if m.CRC32, err = w.spoolSection(size, m.CRC32, hasCRC, write); err != nil {
		return w.fail(fmt.Errorf("ckpt: %s: spool group %d: %w", w.name, m.Index, err))
	}
	w.hdr.Groups = append(w.hdr.Groups, m)
	return nil
}

// Close writes the final container and releases the scratch space.
func (w *ShardFileWriter) Close() error { return w.finish(w.hdr) }

// writeF32s streams a float32 slice little-endian through buf-sized chunks.
func writeF32s(w io.Writer, buf []byte, src []float32) (int64, error) {
	perChunk := len(buf) / 4
	if perChunk < 1 {
		buf = make([]byte, 4096)
		perChunk = len(buf) / 4
	}
	var total int64
	for base := 0; base < len(src); base += perChunk {
		end := base + perChunk
		if end > len(src) {
			end = len(src)
		}
		chunk := buf[:(end-base)*4]
		for i := base; i < end; i++ {
			binary.LittleEndian.PutUint32(chunk[(i-base)*4:], math.Float32bits(src[i]))
		}
		n, err := w.Write(chunk)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func decodeF32(src []byte, n int64) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[i*4:]))
	}
	return out
}

// ReadShardFile reads and decodes an entire rank optimizer file. There is
// deliberately no lazy variant: like DeepSpeed's pickled optimizer states,
// a shard file must be fully loaded before any group can be used (§5.4), so
// the load is ONE stream — the header parsed off the same Open the payload
// drains from, which is what the paper's Table 7 charges per shard file.
func ReadShardFile(b storage.Backend, name string) (*ShardFile, error) {
	rs := streamedRank(b, name)
	return rs.loadAlone()
}

// streamedRank is a plain shard file as the load driver first sees it: sized,
// not listed — loadStream lists it off the stream it loads it from.
func streamedRank(b storage.Backend, name string) rankPayloads {
	rs := rankPayloads{name: name, stream: b}
	rs.fileBytes, rs.err = b.Stat(name)
	return rs
}

// loadStream is the load driver's job for a plain rank: one Open, the header
// parsed off it, then group by group in file order — read, CRC, decode — so
// the transient memory is one group's payload, not the encoded file beside
// its decoded form. It fills in rs as it lists it.
func (rs *rankPayloads) loadStream(f *ShardFile) error {
	b, name, size := rs.stream, rs.name, rs.fileBytes
	r, err := b.Open(name)
	if err != nil {
		return err
	}
	defer r.Close()
	var hdr ltosHeader
	hlen, err := parseContainerHeader(name, size, ltosMagic, &hdr, func(p []byte) error {
		_, err := io.ReadFull(r, p)
		return err
	})
	if err != nil {
		return err
	}
	h, err := hdr.check(name, size, size-12-hlen)
	if err != nil {
		return err
	}
	*rs = *h.payloads(b, name)
	f.init(rs)
	var pos int64 // current offset within the payload section
	for i := range rs.groups {
		g := &rs.groups[i]
		err := g.check(name, fmt.Sprintf("group %d", g.meta.Index), func(buf []byte) error {
			if skip := g.meta.Offsets[0] - pos; skip > 0 {
				if _, err := io.CopyN(io.Discard, r, skip); err != nil {
					return err
				}
			}
			pos = g.meta.Offsets[1]
			_, err := io.ReadFull(r, buf)
			return err
		}, func(buf []byte) error {
			f.Shards[i] = g.decode(rs.rank, buf)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ShardHeader is the decoded header of an LTOS file — everything needed to
// decide whether the file can be copied verbatim, without touching a single
// payload byte.
type ShardHeader struct {
	Rank      int
	WorldSize int
	Step      int
	Layout    optim.LayoutKind
	Groups    []ShardGroupMeta
	// FileBytes is the container's total on-disk size.
	FileBytes int64
	// PayloadBytes is the payload section's size (FileBytes minus magic,
	// length prefix and JSON header).
	PayloadBytes int64
}

// ReadShardHeader reads and validates only an LTOS file's header: magic,
// version, layout and per-group metadata bounds — the cheap metadata pass
// the raw shard-copy fast path runs before deciding to stream the file
// verbatim. Payload bytes are never read.
func ReadShardHeader(b storage.Backend, name string) (*ShardHeader, error) {
	var hdr ltosHeader
	off, payloadLen, err := readContainerHeader(b, name, ltosMagic, &hdr)
	if err != nil {
		return nil, err
	}
	return hdr.check(name, off+payloadLen, payloadLen)
}

// check validates a decoded LTOS header against the container's real sizes:
// version, layout, every group's extent in range, in file order and exactly
// 12×ShardLen long. Both the header-only and the whole-file reader use it.
func (hdr *ltosHeader) check(name string, fileBytes, payloadLen int64) (*ShardHeader, error) {
	if hdr.Version != FormatVersion {
		return nil, fmt.Errorf("ckpt: %s: version %d, want %d", name, hdr.Version, FormatVersion)
	}
	layout, err := optim.ParseLayoutKind(hdr.Layout)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", name, err)
	}
	var pos int64
	for _, m := range hdr.Groups {
		if m.Offsets[0] < 0 || m.Offsets[1] > payloadLen || m.Offsets[0] > m.Offsets[1] {
			return nil, fmt.Errorf("ckpt: %s: group %d offsets %v out of range", name, m.Index, m.Offsets)
		}
		if m.Offsets[0] < pos {
			return nil, fmt.Errorf("ckpt: %s: group %d offsets %v overlap previous group", name, m.Index, m.Offsets)
		}
		pos = m.Offsets[1]
		// By division: a near-MaxInt64 ShardLen could wrap 12×ShardLen
		// around onto the extent's length and pass an equality.
		if size := m.Offsets[1] - m.Offsets[0]; m.ShardLen < 0 || size%12 != 0 || m.ShardLen != size/12 {
			return nil, fmt.Errorf("ckpt: %s: group %d payload %d bytes, want 12×%d", name, m.Index, size, m.ShardLen)
		}
	}
	return &ShardHeader{
		Rank: hdr.Rank, WorldSize: hdr.WorldSize, Step: hdr.Step,
		Layout: layout, Groups: hdr.Groups,
		FileBytes: fileBytes, PayloadBytes: payloadLen,
	}, nil
}

// payloads lists the file's groups, in file order, as extents of name.
func (h *ShardHeader) payloads(b storage.Backend, name string) *rankPayloads {
	rs := &rankPayloads{name: name, rank: h.Rank, worldSize: h.WorldSize, step: h.Step, layout: h.Layout,
		fileBytes: h.FileBytes, groups: make([]groupPayload, len(h.Groups))}
	for i, m := range h.Groups {
		base := h.FileBytes - h.PayloadBytes + m.Offsets[0]
		rs.groups[i] = groupPayload{meta: m, payload: storedPayload(m.Offsets[1]-m.Offsets[0], m.CRC32, "",
			func(o, n int64) (io.ReadCloser, error) { return b.OpenRange(name, base+o, n) })}
	}
	return rs
}

// metaForGroup builds a group's shard metadata from the layout.
func metaForGroup(g optim.Group) ShardGroupMeta {
	m := ShardGroupMeta{Index: g.Index, Numel: g.Numel, NoDecay: g.NoDecay}
	if g.HasLayer {
		m.Layer = g.Layer.String()
	}
	return m
}

// LayerRefOf parses the meta's layer field.
func (m ShardGroupMeta) LayerRefOf() (modelcfg.LayerRef, bool) {
	if m.Layer == "" {
		return modelcfg.LayerRef{}, false
	}
	ref, err := modelcfg.ParseLayerRef(m.Layer)
	if err != nil {
		return modelcfg.LayerRef{}, false
	}
	return ref, true
}
