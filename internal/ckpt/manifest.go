// Dedup checkpoint manifests.
//
// A content-addressed ("dedup") checkpoint stores no payload bytes of its
// own: weights and optimizer-group payloads live as blobs in the run
// root's `objects/` store, and the checkpoint directory carries two small
// manifest containers referencing them by digest:
//
//	model.ltmf                     weight manifest (magic LTMF)
//	zero/rank_NN_optim_states.ltom one shard manifest per rank (magic LTOM)
//
// Both use the same container framing as LTSF/LTOS — magic, little-endian
// uint64 header length, JSON header — with an empty payload section, so
// the existing commit-marker CRC machinery covers them unchanged. Entry
// order is the exact payload order a plain save would write, which is what
// makes materialization (AppendRaw splices in manifest order) byte-
// identical to a non-dedup save.
//
// Readers hold the same contract as every other container reader in this
// package: corrupt input — truncated, bit-flipped, adversarial digests or
// extents — surfaces as an error, never a panic or unbounded allocation.

package ckpt

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
)

var (
	ltmfMagic = [4]byte{'L', 'T', 'M', 'F'}
	ltomMagic = [4]byte{'L', 'T', 'O', 'M'}
)

// WeightManifestName is the weight manifest's file name inside a dedup
// checkpoint directory (the role model.ltsf plays in a plain one).
const WeightManifestName = "model.ltmf"

// ShardManifestName returns the per-rank shard manifest name inside a
// dedup checkpoint directory.
func ShardManifestName(rank int) string {
	return fmt.Sprintf("zero/rank_%02d_optim_states.ltom", rank)
}

// WeightEntry references one tensor's stored payload blob. The fields
// mirror ltsfTensorMeta plus the content digest; Size and CRC32 describe
// the exact bytes AppendRaw splices back during materialization — always
// the UNCOMPRESSED payload, whatever codec the blob is stored under.
//
// Codec records how the blob landed in the CAS ("" for raw — which is also
// what every pre-codec manifest decodes as), Stored its on-backend size,
// and Parents the full xor-parent ancestor chain (direct parent first).
// Carrying the whole chain, not just the direct parent, is what lets GC pin
// ancestors transitively without walking blob headers.
type WeightEntry struct {
	Name    string   `json:"name"`
	DType   string   `json:"dtype"`
	Shape   []int    `json:"shape"`
	Size    int64    `json:"size"`
	CRC32   uint32   `json:"crc32"`
	Digest  string   `json:"digest"`
	Codec   string   `json:"codec,omitempty"`
	Stored  int64    `json:"stored,omitempty"`
	Parents []string `json:"parents,omitempty"`
}

// WeightManifest is the decoded model.ltmf: the model name plus tensor
// entries in payload order.
type WeightManifest struct {
	Version int           `json:"version"`
	Model   string        `json:"model"`
	Tensors []WeightEntry `json:"tensors"`
}

// Entry returns the named tensor's entry.
func (m *WeightManifest) Entry(name string) (WeightEntry, bool) {
	for _, e := range m.Tensors {
		if e.Name == name {
			return e, true
		}
	}
	return WeightEntry{}, false
}

// Digests returns every referenced blob digest in entry order (with
// repeats — the caller counts references).
func (m *WeightManifest) Digests() []string {
	out := make([]string, len(m.Tensors))
	for i, e := range m.Tensors {
		out[i] = e.Digest
	}
	return out
}

// PinDigests returns every digest this manifest keeps alive: the referenced
// blobs plus the xor-parent ancestors their decoding depends on. GC and the
// ref index must use this, not Digests — sweeping an ancestor would corrupt
// every delta blob below it.
func (m *WeightManifest) PinDigests() []string {
	out := m.Digests()
	for _, e := range m.Tensors {
		out = append(out, e.Parents...)
	}
	return out
}

// ShardGroupEntry references one optimizer group's payload blob. The
// embedded meta is what ShardFileWriter needs to rebuild the group's LTOS
// header entry; offsets are recomputed on materialization (a full save's
// payload is gap-free, so order determines them).
type ShardGroupEntry struct {
	Index    int      `json:"index"`
	Numel    int64    `json:"numel"`
	ShardLen int64    `json:"shard_len"`
	NoDecay  bool     `json:"no_decay"`
	Layer    string   `json:"layer,omitempty"`
	Size     int64    `json:"size"`
	CRC32    uint32   `json:"crc32"`
	Digest   string   `json:"digest"`
	Codec    string   `json:"codec,omitempty"`
	Stored   int64    `json:"stored,omitempty"`
	Parents  []string `json:"parents,omitempty"`
}

// Meta converts the entry back to the LTOS group metadata (offsets unset).
func (e ShardGroupEntry) Meta() ShardGroupMeta {
	return ShardGroupMeta{Index: e.Index, Numel: e.Numel, ShardLen: e.ShardLen,
		NoDecay: e.NoDecay, Layer: e.Layer, CRC32: e.CRC32}
}

// ShardManifest is the decoded per-rank .ltom: the LTOS header fields plus
// group blob references in payload order.
type ShardManifest struct {
	Version   int               `json:"version"`
	Rank      int               `json:"rank"`
	WorldSize int               `json:"world_size"`
	Step      int               `json:"step"`
	Layout    string            `json:"layout"`
	Groups    []ShardGroupEntry `json:"groups"`
}

// Digests returns every referenced blob digest in group order.
func (m *ShardManifest) Digests() []string {
	out := make([]string, len(m.Groups))
	for i, g := range m.Groups {
		out[i] = g.Digest
	}
	return out
}

// PinDigests returns referenced blobs plus their xor-parent ancestors; see
// WeightManifest.PinDigests.
func (m *ShardManifest) PinDigests() []string {
	out := m.Digests()
	for _, g := range m.Groups {
		out = append(out, g.Parents...)
	}
	return out
}

// encodeManifest frames a manifest header into its container bytes.
func encodeManifest(magic [4]byte, hdr any) ([]byte, error) {
	hj, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("ckpt: marshal manifest: %w", err)
	}
	out := make([]byte, 0, 12+len(hj))
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(hj)))
	return append(out, hj...), nil
}

// decodeManifestHeader validates the container framing shared by LTMF and
// LTOM — the framing every container has (parseContainerHeader), with an
// empty payload section — and unmarshals the header.
func decodeManifestHeader(data []byte, magic [4]byte, hdr any) error {
	rest := data
	hlen, err := parseContainerHeader("manifest", int64(len(data)), magic, hdr, func(p []byte) error {
		rest = rest[copy(p, rest):] // the parser never asks past len(data)
		return nil
	})
	if err == nil && hlen != int64(len(data))-12 {
		err = fmt.Errorf("ckpt: manifest header length %d, file holds %d", hlen, len(data)-12)
	}
	return err
}

// validateBlobRef rejects inconsistent size/digest pairs.
func validateBlobRef(what string, size int64, digest string) error {
	if size < 0 {
		return fmt.Errorf("%s: negative blob size %d", what, size)
	}
	if !storage.ValidDigest(digest) {
		return fmt.Errorf("%s: malformed blob digest %q", what, digest)
	}
	return nil
}

// validateCodecRef rejects incoherent codec metadata on a manifest entry:
// unknown codecs, stored sizes or parent chains that contradict the codec,
// malformed or self-referential parents, chains past the resolver's depth
// bound.
func validateCodecRef(what, codec string, stored int64, parents []string, digest string) error {
	c, err := storage.ParseBlobCodec(codec)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if c == storage.CodecXORParent {
		if len(parents) == 0 {
			return fmt.Errorf("%s: xor-parent codec with no parent chain", what)
		}
	} else if len(parents) > 0 {
		return fmt.Errorf("%s: codec %q carries a parent chain", what, c)
	}
	if c == storage.CodecRaw {
		if stored != 0 {
			return fmt.Errorf("%s: raw codec with stored size %d", what, stored)
		}
		return nil
	}
	if stored <= 0 {
		return fmt.Errorf("%s: codec %q with stored size %d", what, c, stored)
	}
	if len(parents) > storage.MaxParentDepth {
		return fmt.Errorf("%s: parent chain of %d exceeds depth bound %d", what, len(parents), storage.MaxParentDepth)
	}
	for _, p := range parents {
		if !storage.ValidDigest(p) {
			return fmt.Errorf("%s: malformed parent digest %q", what, p)
		}
		if p == digest {
			return fmt.Errorf("%s: blob lists itself as an ancestor", what)
		}
	}
	return nil
}

// DecodeWeightManifest parses and validates a weight manifest container.
// Every entry must be internally consistent: parseable dtype, positive
// dimensions whose product times the dtype size equals the blob size
// (division-checked so it cannot wrap), a well-formed digest, and no
// duplicate names.
func DecodeWeightManifest(data []byte) (*WeightManifest, error) {
	m := &WeightManifest{}
	if err := decodeManifestHeader(data, ltmfMagic, m); err != nil {
		return nil, err
	}
	if m.Version != FormatVersion {
		return nil, fmt.Errorf("ckpt: weight manifest version %d, want %d", m.Version, FormatVersion)
	}
	seen := map[string]bool{}
	for _, e := range m.Tensors {
		if e.Name == "" || seen[e.Name] {
			return nil, fmt.Errorf("ckpt: weight manifest: missing or duplicate tensor name %q", e.Name)
		}
		seen[e.Name] = true
		if err := validateBlobRef("tensor "+e.Name, e.Size, e.Digest); err != nil {
			return nil, fmt.Errorf("ckpt: weight manifest: %w", err)
		}
		if err := validateCodecRef("tensor "+e.Name, e.Codec, e.Stored, e.Parents, e.Digest); err != nil {
			return nil, fmt.Errorf("ckpt: weight manifest: %w", err)
		}
		// The same dtype/shape/extent consistency pass OpenLTSF applies,
		// against a virtual payload of exactly the blob size.
		meta := ltsfTensorMeta{DType: e.DType, Shape: e.Shape, Offsets: [2]int64{0, e.Size}, CRC32: e.CRC32}
		if err := validateTensorMeta(e.Name, meta, e.Size); err != nil {
			return nil, fmt.Errorf("ckpt: weight manifest: %w", err)
		}
	}
	return m, nil
}

// DecodeShardManifest parses and validates a shard manifest container.
// Group entries must carry coherent geometry: a parseable layout, non-
// negative shard lengths whose 12× payload equals the blob size
// (overflow-checked), and well-formed digests.
func DecodeShardManifest(data []byte) (*ShardManifest, error) {
	m := &ShardManifest{}
	if err := decodeManifestHeader(data, ltomMagic, m); err != nil {
		return nil, err
	}
	if m.Version != FormatVersion {
		return nil, fmt.Errorf("ckpt: shard manifest version %d, want %d", m.Version, FormatVersion)
	}
	if _, err := optim.ParseLayoutKind(m.Layout); err != nil {
		return nil, fmt.Errorf("ckpt: shard manifest: %w", err)
	}
	if m.WorldSize <= 0 || m.Rank < 0 || m.Rank >= m.WorldSize {
		return nil, fmt.Errorf("ckpt: shard manifest: rank %d of world size %d", m.Rank, m.WorldSize)
	}
	seen := map[int]bool{}
	for _, g := range m.Groups {
		if g.Index < 0 || seen[g.Index] {
			return nil, fmt.Errorf("ckpt: shard manifest: invalid or duplicate group index %d", g.Index)
		}
		seen[g.Index] = true
		if err := validateBlobRef(fmt.Sprintf("group %d", g.Index), g.Size, g.Digest); err != nil {
			return nil, fmt.Errorf("ckpt: shard manifest: %w", err)
		}
		if err := validateCodecRef(fmt.Sprintf("group %d", g.Index), g.Codec, g.Stored, g.Parents, g.Digest); err != nil {
			return nil, fmt.Errorf("ckpt: shard manifest: %w", err)
		}
		// Check the geometry by division, never by multiplication: unlike
		// the LTOS reader (where the extent is physically bounded by the
		// file), Size here is an unbounded manifest claim, and a crafted
		// ShardLen can wrap 12×ShardLen around int64 onto Size while
		// staying below it.
		if g.ShardLen < 0 || g.Size%12 != 0 || g.ShardLen != g.Size/12 {
			return nil, fmt.Errorf("ckpt: shard manifest: group %d blob %d bytes, want 12×%d", g.Index, g.Size, g.ShardLen)
		}
		if g.Numel < 0 || g.Numel > math.MaxInt64-int64(m.WorldSize) {
			return nil, fmt.Errorf("ckpt: shard manifest: group %d numel %d", g.Index, g.Numel)
		}
	}
	return m, nil
}

// WriteWeightManifest encodes and writes a weight manifest file.
func WriteWeightManifest(b storage.Backend, name string, m *WeightManifest) error {
	data, err := encodeManifest(ltmfMagic, m)
	if err != nil {
		return err
	}
	return b.WriteFile(name, data)
}

// ReadWeightManifest reads and validates a weight manifest file.
func ReadWeightManifest(b storage.Backend, name string) (*WeightManifest, error) {
	data, err := b.ReadFile(name)
	if err != nil {
		return nil, err
	}
	m, err := DecodeWeightManifest(data)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", name, err)
	}
	return m, nil
}

// WriteShardManifest encodes and writes a per-rank shard manifest file.
func WriteShardManifest(b storage.Backend, name string, m *ShardManifest) error {
	data, err := encodeManifest(ltomMagic, m)
	if err != nil {
		return err
	}
	return b.WriteFile(name, data)
}

// ReadShardManifest reads and validates a per-rank shard manifest file.
func ReadShardManifest(b storage.Backend, name string) (*ShardManifest, error) {
	data, err := b.ReadFile(name)
	if err != nil {
		return nil, err
	}
	m, err := DecodeShardManifest(data)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", name, err)
	}
	return m, nil
}
