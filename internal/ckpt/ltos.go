package ckpt

import (
	"fmt"
	"io"

	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
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

// ShardFileName returns the conventional per-rank optimizer file name,
// mirroring DeepSpeed's bf16_zero_pp_rank_N_mp_rank_00_optim_states.pt.
func ShardFileName(rank int) string {
	return fmt.Sprintf("zero/rank_%02d_optim_states.ltos", rank)
}

// shardFileWriter writes an LTOS shard file through the shared
// containerWriter lifecycle, groups appended one at a time, mirroring
// ltsfWriter. Byte-identical to the tests' writeShardFile (ltos_test.go)
// given the same groups in the same order.
type shardFileWriter struct {
	containerWriter
	hdr ltosHeader
}

// newShardFileWriter starts a writer for one rank's optimizer shard file;
// its groups stream in order (chunkBytes <= 0: the default chunk size).
func newShardFileWriter(b storage.Backend, name string, rank, worldSize, step int,
	layout optim.LayoutKind, chunkBytes int) *shardFileWriter {
	w := &shardFileWriter{
		containerWriter: containerWriter{b: b, name: name, magic: ltosMagic, ra: readAhead{chunk: chunkBytes}},
		hdr: ltosHeader{
			Version: formatVersion, Rank: rank, WorldSize: worldSize,
			Step: step, Layout: layout.String(),
		},
	}
	w.label = func(i int) string { return fmt.Sprintf("group %d", w.hdr.Groups[i].Index) }
	return w
}

// appendPayload lists one group payload and its metadata — the write stage's
// one section writer for a rank. ShardLen and offsets are derived here (a
// full save's payload is gap-free); a size no 12×ShardLen matches errors out
// before anything is listed.
func (w *shardFileWriter) appendPayload(g *groupPayload) error {
	m := g.meta
	if g.size < 0 || g.size%12 != 0 {
		return fmt.Errorf("ckpt: %s: group %d payload %d bytes, not 12×ShardLen", w.name, m.Index, g.size)
	}
	m.ShardLen, m.Offsets = g.size/12, [2]int64{w.off, w.off + g.size}
	if err := w.add(&g.payload); err != nil {
		return err
	}
	w.hdr.Groups = append(w.hdr.Groups, m)
	return nil
}

// Close writes the shard file.
func (w *shardFileWriter) Close() error {
	return w.finish(func() any {
		for i := range w.hdr.Groups {
			w.hdr.Groups[i].CRC32 = w.secs[i].crc
		}
		return w.hdr
	})
}

// encodeGroupRange streams elements [lo, hi) of a group's state — master,
// exp_avg and exp_avg_sq, FP32 little-endian, each section zero-padded past
// the state's end — straight off the state's own vectors: with lo and hi from
// zero.Partition.Range, the bytes of that rank's zero.ShardGroup shard,
// without the shard.
func encodeGroupRange(w io.Writer, buf []byte, st *optim.GroupState, lo, hi int64) (int64, error) {
	var n int64
	for _, sec := range [][]float32{st.Master, st.ExpAvg, st.ExpAvgSq} {
		a, b := min(lo, int64(len(sec))), min(hi, int64(len(sec)))
		k, err := tensor.WriteLE(w, buf, sec[a:b], int(hi-lo-(b-a)))
		n += k
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// streamedRank is a plain shard file as the load driver first sees it: sized,
// not listed — loadStream lists it off the stream it loads it from.
func streamedRank(b storage.Backend, name string) rankPayloads {
	rs := rankPayloads{name: name, stream: b}
	rs.fileBytes, rs.err = b.Stat(name)
	return rs
}

// loadStream is the load driver's job for a plain rank: one Open — the
// rank's request — then, in a slot of d, the header parsed off it and the
// rank listed and admitted (the driver's layout check and placement), then
// group by group in file order — read, CRC, place — so the transient memory
// is one group's payload, not the encoded file beside its decoded form. Like
// DeepSpeed's pickled optimizer states, a shard file is loaded whole before
// any group of it is used (§5.4): ONE stream is what the paper's Table 7
// charges per shard file.
func (rs *rankPayloads) loadStream(admit func(*rankPayloads) (func(int, []byte) error, error), d decoding) error {
	b, name, size, want := rs.stream, rs.name, rs.fileBytes, rs.want
	r, err := b.Open(name)
	if err != nil {
		return err
	}
	defer d.take()()
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
	rs.want = want
	place, err := admit(rs)
	if err != nil {
		return err
	}
	var at int64 // current offset within the payload section
	for i := range rs.groups {
		g := &rs.groups[i]
		err := g.check(name, fmt.Sprintf("group %d", g.meta.Index), func(buf []byte) error {
			if skip := g.meta.Offsets[0] - at; skip > 0 {
				if _, err := io.CopyN(io.Discard, r, skip); err != nil {
					return err
				}
			}
			at = g.meta.Offsets[1]
			_, err := io.ReadFull(r, buf)
			return err
		}, func(buf []byte) error { return place(i, buf) })
		if err != nil {
			return err
		}
	}
	return nil
}

// shardHeader is the decoded header of an LTOS file — everything needed to
// decide whether the file can be copied verbatim, without touching a single
// payload byte.
type shardHeader struct {
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

// readShardHeader reads and validates only an LTOS file's header: magic,
// version, layout and per-group metadata bounds — the cheap metadata pass
// the raw shard-copy fast path runs before deciding to stream the file
// verbatim. Payload bytes are never read.
func readShardHeader(b storage.Backend, name string) (*shardHeader, error) {
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
func (hdr *ltosHeader) check(name string, fileBytes, payloadLen int64) (*shardHeader, error) {
	if hdr.Version != formatVersion {
		return nil, fmt.Errorf("ckpt: %s: version %d, want %d", name, hdr.Version, formatVersion)
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
	return &shardHeader{
		Rank: hdr.Rank, WorldSize: hdr.WorldSize, Step: hdr.Step,
		Layout: layout, Groups: hdr.Groups,
		FileBytes: fileBytes, PayloadBytes: payloadLen,
	}, nil
}

// payloads lists the file's groups, in file order, as extents of name.
func (h *shardHeader) payloads(b storage.Backend, name string) *rankPayloads {
	rs := &rankPayloads{name: name, rank: h.Rank, worldSize: h.WorldSize, step: h.Step, layout: h.Layout,
		fileBytes: h.FileBytes, groups: make([]groupPayload, len(h.Groups))}
	for i, m := range h.Groups {
		base := h.FileBytes - h.PayloadBytes + m.Offsets[0]
		rs.groups[i] = groupPayload{meta: m, payload: storedPayload(m.Offsets[1]-m.Offsets[0], m.CRC32, "", groupSlotKey(h.Rank, m.Index),
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
