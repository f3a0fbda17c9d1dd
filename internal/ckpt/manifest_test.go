package ckpt

import (
	"strings"
	"testing"

	"llmtailor/internal/storage"
)

// writeWeightManifest encodes and writes a weight manifest file, as the
// write stage stages one.
func writeWeightManifest(b storage.Backend, name string, m *WeightManifest) error {
	data, err := encodeManifest(ltmfMagic, m)
	if err != nil {
		return err
	}
	return b.WriteFile(name, data)
}

// writeShardManifest encodes and writes a per-rank shard manifest file.
func writeShardManifest(b storage.Backend, name string, m *ShardManifest) error {
	data, err := encodeManifest(ltomMagic, m)
	if err != nil {
		return err
	}
	return b.WriteFile(name, data)
}

// goldenWeightManifest builds a small valid weight manifest's container
// bytes (also the fuzz seed).
func goldenWeightManifest(tb testing.TB) []byte {
	tb.Helper()
	m := &WeightManifest{
		Version: formatVersion,
		Model:   "tiny",
		Tensors: []WeightEntry{
			{Name: "embed_tokens.weight", DType: "bf16", Shape: []int{4, 8}, Size: 64,
				CRC32: 0xdeadbeef, Digest: strings.Repeat("ab", 32)},
			{Name: "layers.0.mlp.weight", DType: "f32", Shape: []int{2, 2}, Size: 16,
				CRC32: 7, Digest: strings.Repeat("cd", 32)},
		},
	}
	data, err := encodeManifest(ltmfMagic, m)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// goldenShardManifest builds a small valid shard manifest's container
// bytes (also the fuzz seed).
func goldenShardManifest(tb testing.TB) []byte {
	tb.Helper()
	m := &ShardManifest{
		Version: formatVersion, Rank: 1, WorldSize: 2, Step: 7, Layout: "layerwise",
		Groups: []ShardGroupEntry{
			{Index: 0, Numel: 12, ShardLen: 6, Size: 72, CRC32: 3, Layer: "embed_tokens",
				Digest: strings.Repeat("ef", 32)},
			{Index: 2, Numel: 4, ShardLen: 2, Size: 24, CRC32: 9, NoDecay: true,
				Digest: strings.Repeat("01", 32)},
		},
	}
	data, err := encodeManifest(ltomMagic, m)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func TestWeightManifestRoundtrip(t *testing.T) {
	b := storage.NewMem()
	m := &WeightManifest{Version: formatVersion, Model: "tiny", Tensors: []WeightEntry{
		{Name: "t", DType: "bf16", Shape: []int{3, 5}, Size: 30, CRC32: 5, Digest: strings.Repeat("77", 32)},
	}}
	if err := writeWeightManifest(b, "ckpt/model.ltmf", m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWeightManifest(b, "ckpt/model.ltmf")
	if err != nil {
		t.Fatal(err)
	}
	if got.Model != "tiny" || len(got.Tensors) != 1 ||
		got.Tensors[0].Name != "t" || got.Tensors[0].Digest != m.Tensors[0].Digest ||
		got.Tensors[0].CRC32 != 5 || len(got.Tensors[0].Shape) != 2 {
		t.Fatalf("roundtrip = %+v", got)
	}
	if e, ok := got.Entry("t"); !ok || e.Size != 30 {
		t.Fatalf("entry = %+v, %v", e, ok)
	}
	if _, ok := got.Entry("missing"); ok {
		t.Fatal("phantom entry")
	}
	if d := got.Digests(); len(d) != 1 || d[0] != m.Tensors[0].Digest {
		t.Fatalf("digests = %v", d)
	}
}

func TestShardManifestRoundtrip(t *testing.T) {
	b := storage.NewMem()
	data := goldenShardManifest(t)
	if err := b.WriteFile("ckpt/"+ShardManifestName(1), data); err != nil {
		t.Fatal(err)
	}
	got, err := ReadShardManifest(b, "ckpt/"+ShardManifestName(1))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != 1 || got.WorldSize != 2 || got.Step != 7 || len(got.Groups) != 2 {
		t.Fatalf("roundtrip = %+v", got)
	}
	meta := got.Groups[0].Meta()
	if meta.Index != 0 || meta.Numel != 12 || meta.Layer != "embed_tokens" || meta.CRC32 != 3 {
		t.Fatalf("meta = %+v", meta)
	}
}

// TestManifestDecodeRejectsCorruption covers the validation table for both
// codecs: every corrupt input must error (never panic).
func TestManifestDecodeRejectsCorruption(t *testing.T) {
	wm := goldenWeightManifest(t)
	sm := goldenShardManifest(t)
	d64 := strings.Repeat("ab", 32)

	weightCases := map[string]string{
		"bad-digest-short": `{"version":1,"model":"m","tensors":[{"name":"t","dtype":"f32","shape":[1],"size":4,"crc32":0,"digest":"abc"}]}`,
		"bad-digest-chars": `{"version":1,"model":"m","tensors":[{"name":"t","dtype":"f32","shape":[1],"size":4,"crc32":0,"digest":"` + strings.Repeat("zz", 32) + `"}]}`,
		"negative-size":    `{"version":1,"model":"m","tensors":[{"name":"t","dtype":"f32","shape":[1],"size":-4,"crc32":0,"digest":"` + d64 + `"}]}`,
		"size-mismatch":    `{"version":1,"model":"m","tensors":[{"name":"t","dtype":"f32","shape":[3],"size":4,"crc32":0,"digest":"` + d64 + `"}]}`,
		"zero-dim":         `{"version":1,"model":"m","tensors":[{"name":"t","dtype":"f32","shape":[0],"size":0,"crc32":0,"digest":"` + d64 + `"}]}`,
		"overflow-dim":     `{"version":1,"model":"m","tensors":[{"name":"t","dtype":"f32","shape":[4611686018427387904,4611686018427387904],"size":8,"crc32":0,"digest":"` + d64 + `"}]}`,
		"bad-dtype":        `{"version":1,"model":"m","tensors":[{"name":"t","dtype":"f13","shape":[1],"size":4,"crc32":0,"digest":"` + d64 + `"}]}`,
		"dup-name":         `{"version":1,"model":"m","tensors":[{"name":"t","dtype":"f32","shape":[1],"size":4,"crc32":0,"digest":"` + d64 + `"},{"name":"t","dtype":"f32","shape":[1],"size":4,"crc32":0,"digest":"` + d64 + `"}]}`,
		"empty-name":       `{"version":1,"model":"m","tensors":[{"name":"","dtype":"f32","shape":[1],"size":4,"crc32":0,"digest":"` + d64 + `"}]}`,
		"bad-version":      `{"version":9,"model":"m","tensors":[]}`,
	}
	for name, hdr := range weightCases {
		if _, err := decodeWeightManifest(manifestContainer(ltmfMagic, hdr)); err == nil {
			t.Errorf("weight manifest %s: accepted", name)
		}
	}

	shardCases := map[string]string{
		"bad-layout":     `{"version":1,"rank":0,"world_size":1,"layout":"diagonal","groups":[]}`,
		"bad-rank":       `{"version":1,"rank":3,"world_size":2,"layout":"layerwise","groups":[]}`,
		"neg-world":      `{"version":1,"rank":0,"world_size":-1,"layout":"layerwise","groups":[]}`,
		"size-not-12x":   `{"version":1,"rank":0,"world_size":1,"layout":"layerwise","groups":[{"index":0,"numel":2,"shard_len":2,"size":25,"crc32":0,"digest":"` + d64 + `"}]}`,
		"overflow-shard": `{"version":1,"rank":0,"world_size":1,"layout":"layerwise","groups":[{"index":0,"numel":2,"shard_len":4611686018427387904,"size":24,"crc32":0,"digest":"` + d64 + `"}]}`,
		"wrap-shard":     `{"version":1,"rank":0,"world_size":1,"layout":"layerwise","groups":[{"index":0,"numel":2,"shard_len":2000000000000000000,"size":5553255926290448384,"crc32":0,"digest":"` + d64 + `"}]}`,
		"dup-index":      `{"version":1,"rank":0,"world_size":1,"layout":"layerwise","groups":[{"index":0,"numel":1,"shard_len":1,"size":12,"crc32":0,"digest":"` + d64 + `"},{"index":0,"numel":1,"shard_len":1,"size":12,"crc32":0,"digest":"` + d64 + `"}]}`,
		"neg-index":      `{"version":1,"rank":0,"world_size":1,"layout":"layerwise","groups":[{"index":-1,"numel":1,"shard_len":1,"size":12,"crc32":0,"digest":"` + d64 + `"}]}`,
		"bad-digest":     `{"version":1,"rank":0,"world_size":1,"layout":"layerwise","groups":[{"index":0,"numel":1,"shard_len":1,"size":12,"crc32":0,"digest":"nope"}]}`,
	}
	for name, hdr := range shardCases {
		if _, err := decodeShardManifest(manifestContainer(ltomMagic, hdr)); err == nil {
			t.Errorf("shard manifest %s: accepted", name)
		}
	}

	// Framing corruption applies to both.
	for name, mut := range map[string]func([]byte) []byte{
		"truncated":    func(d []byte) []byte { return d[:len(d)/2] },
		"short-prefix": func(d []byte) []byte { return d[:8] },
		"bad-magic":    func(d []byte) []byte { d[0] ^= 0xff; return d },
		"trailing":     func(d []byte) []byte { return append(d, 'x') },
		"huge-length": func(d []byte) []byte {
			for i := 4; i < 12; i++ {
				d[i] = 0xff
			}
			return d
		},
		"zero-length": func(d []byte) []byte {
			for i := 4; i < 12; i++ {
				d[i] = 0
			}
			return d
		},
	} {
		if _, err := decodeWeightManifest(mut(append([]byte(nil), wm...))); err == nil {
			t.Errorf("weight manifest framing %s: accepted", name)
		}
		if _, err := decodeShardManifest(mut(append([]byte(nil), sm...))); err == nil {
			t.Errorf("shard manifest framing %s: accepted", name)
		}
	}

	// The golden containers themselves decode.
	if _, err := decodeWeightManifest(wm); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeShardManifest(sm); err != nil {
		t.Fatal(err)
	}
}

// manifestContainer frames a JSON header into manifest container bytes.
func manifestContainer(magic [4]byte, hdr string) []byte {
	out := append([]byte(nil), magic[:]...)
	out = append(out, byte(len(hdr)), byte(len(hdr)>>8), 0, 0, 0, 0, 0, 0)
	return append(out, hdr...)
}
