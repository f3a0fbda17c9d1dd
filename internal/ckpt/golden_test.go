package ckpt

// Format-stability goldens: the streaming LTSF/LTOS writers must produce
// files byte-identical to the seed's in-memory writers. seedWriteLTSF and
// seedWriteShardFile below are verbatim re-implementations of the pre-
// streaming write path; if a refactor changes a single output byte, these
// tests catch it before any stored checkpoint becomes unreadable.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
	"llmtailor/internal/zero"
)

// seedWriteContainer mirrors the seed's writeContainer: one in-memory
// buffer holding magic + header length + JSON header + payload.
func seedWriteContainer(b storage.Backend, name string, magic [4]byte, hdr any, payload []byte) error {
	hj, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 12+len(hj)+len(payload))
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(hj)))
	buf = append(buf, hj...)
	buf = append(buf, payload...)
	return b.WriteFile(name, buf)
}

// seedWriteLTSF is the seed's writeLTSF: whole payload accumulated in
// memory before a single write.
func seedWriteLTSF(b storage.Backend, name, modelName string, tensors []*tensor.Tensor) error {
	hdr := ltsfHeader{Version: formatVersion, Model: modelName, Tensors: make(map[string]ltsfTensorMeta, len(tensors))}
	var payload []byte
	var off int64
	for _, t := range tensors {
		start := off
		payload = t.Encode(payload)
		off = int64(len(payload))
		hdr.Tensors[t.Name] = ltsfTensorMeta{
			DType:   t.DType.String(),
			Shape:   append([]int(nil), t.Shape...),
			Offsets: [2]int64{start, off},
			CRC32:   crc32.ChecksumIEEE(payload[start:off]),
		}
	}
	return seedWriteContainer(b, name, ltsfMagic, hdr, payload)
}

// seedWriteShardFile is the seed's writeShardFile.
func seedWriteShardFile(b storage.Backend, name string, rank, worldSize, step int,
	layout optim.LayoutKind, meta []ShardGroupMeta, shards []*zero.GroupShard) error {
	hdr := ltosHeader{
		Version: formatVersion, Rank: rank, WorldSize: worldSize,
		Step: step, Layout: layout.String(),
		Groups: make([]ShardGroupMeta, len(meta)),
	}
	appendF32 := func(dst []byte, src []float32) []byte {
		for _, v := range src {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
		return dst
	}
	var payload []byte
	for i, m := range meta {
		s := shards[i]
		start := int64(len(payload))
		payload = appendF32(payload, s.Master)
		payload = appendF32(payload, s.ExpAvg)
		payload = appendF32(payload, s.ExpAvgSq)
		end := int64(len(payload))
		m.ShardLen = s.Numel()
		m.Offsets = [2]int64{start, end}
		m.CRC32 = crc32.ChecksumIEEE(payload[start:end])
		hdr.Groups[i] = m
	}
	return seedWriteContainer(b, name, ltosMagic, hdr, payload)
}

func TestStreamedLTSFMatchesSeedBytes(t *testing.T) {
	ts := randTensors(41)
	seed := storage.NewMem()
	if err := seedWriteLTSF(seed, "m", "tiny", ts); err != nil {
		t.Fatal(err)
	}
	want, _ := seed.ReadFile("m")

	// Via the convenience wrapper.
	got1B := storage.NewMem()
	if err := writeLTSF(got1B, "m", "tiny", ts); err != nil {
		t.Fatal(err)
	}
	got1, _ := got1B.ReadFile("m")
	if string(got1) != string(want) {
		t.Fatal("writeLTSF output differs from seed writer")
	}

	// Via the streaming writer, one tensor at a time, with a tiny chunk so
	// every code path that splits payloads is exercised.
	got2B := storage.NewMem()
	w := newLTSFWriter(got2B, "m", "tiny", readAhead{chunk: 7})
	for _, ts := range ts {
		if err := w.WriteTensor(ts); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got2, _ := got2B.ReadFile("m")
	if string(got2) != string(want) {
		t.Fatal("ltsfWriter output differs from seed writer")
	}
	if w.wrote != int64(len(want)) {
		t.Fatalf("bytes written = %d, file = %d", w.wrote, len(want))
	}
}

func TestStreamedLTSFMatchesSeedOnOSBackend(t *testing.T) {
	// The OS path spools through a temp file rather than memory; the bytes
	// must be identical all the same.
	ts := randTensors(43)
	seed := storage.NewMem()
	if err := seedWriteLTSF(seed, "m", "tiny", ts); err != nil {
		t.Fatal(err)
	}
	want, _ := seed.ReadFile("m")

	osb, err := storage.NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := writeLTSF(osb, "m", "tiny", ts); err != nil {
		t.Fatal(err)
	}
	got, err := osb.ReadFile("m")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("OS-backend streamed LTSF differs from seed writer")
	}
}

func buildShardFixture(t *testing.T) ([]ShardGroupMeta, []*zero.GroupShard, *optim.Layout) {
	t.Helper()
	cfg := modelcfg.Tiny()
	m, o := buildOptim(t, cfg, 42)
	_ = m
	var metas []ShardGroupMeta
	var states []*optim.GroupState
	for gi, g := range o.Layout.Groups {
		metas = append(metas, metaForGroup(g))
		states = append(states, o.States[gi])
	}
	byRank, err := zero.ShardAll(states, 2)
	if err != nil {
		t.Fatal(err)
	}
	return metas, byRank[0], o.Layout
}

func TestStreamedLTOSMatchesSeedBytes(t *testing.T) {
	metas, shards, layout := buildShardFixture(t)

	seed := storage.NewMem()
	if err := seedWriteShardFile(seed, "s", 0, 2, 9, layout.Kind, metas, shards); err != nil {
		t.Fatal(err)
	}
	want, _ := seed.ReadFile("s")

	got1B := storage.NewMem()
	if err := writeShardFile(got1B, "s", 0, 2, 9, layout.Kind, metas, shards); err != nil {
		t.Fatal(err)
	}
	got1, _ := got1B.ReadFile("s")
	if string(got1) != string(want) {
		t.Fatal("writeShardFile output differs from seed writer")
	}

	got2B := storage.NewMem()
	w := newShardFileWriter(got2B, "s", 0, 2, 9, layout.Kind, 16)
	for i, m := range metas {
		if err := writeGroup(w, m, shards[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got2, _ := got2B.ReadFile("s")
	if string(got2) != string(want) {
		t.Fatal("shardFileWriter output differs from seed writer")
	}
}

// TestLTSFGoldenDigest pins the exact bytes of a deterministic container.
// The equality tests above compare two live implementations; this digest
// survives even a coordinated rewrite of both.
func TestLTSFGoldenDigest(t *testing.T) {
	a := tensor.New("a", tensor.BF16, 2, 2)
	bt := tensor.New("b", tensor.F32, 3)
	for i := 0; i < a.Len(); i++ {
		a.Set(i, float32(i)+0.5)
	}
	for i := 0; i < bt.Len(); i++ {
		bt.Set(i, -float32(i))
	}
	b := storage.NewMem()
	if err := writeLTSF(b, "m", "golden", []*tensor.Tensor{a, bt}); err != nil {
		t.Fatal(err)
	}
	data, _ := b.ReadFile("m")
	sum := sha256.Sum256(data)
	const want = "46774f6f0facc4328671bdb350d3911db792f9267c548b6afa906fd18812bf3a"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("LTSF golden digest changed:\n got %s\nwant %s\n(on-disk format change? bump formatVersion and regenerate)", got, want)
	}
}

// Streamed reads must agree with what the seed's whole-file decoder saw: a
// rank file the seed's writer wrote reads back through the load driver as
// the shards it was given.
func TestStreamedShardReadRoundtrip(t *testing.T) {
	b := storage.NewMem()
	_, o := saveFull(t, b, "run/checkpoint-3", 42, 2)
	metas, shards, layout := buildShardFixture(t)
	name := "run/checkpoint-3/" + ShardFileName(0)
	if err := seedWriteShardFile(b, name, 0, 2, o.StepCount, layout.Kind, metas, shards); err != nil {
		t.Fatal(err)
	}
	c, err := Open(b, "run/checkpoint-3")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := c.ReadOptimShard(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := b.Stat(name)
	if sb.FileBytes != size {
		t.Fatalf("FileBytes = %d, want %d", sb.FileBytes, size)
	}
	if len(sb.Groups) != len(shards) {
		t.Fatalf("groups = %d, want %d", len(sb.Groups), len(shards))
	}
	for i, s := range shards {
		g := decodeShard(metas[i].Index, 0, sb.Groups[metas[i].Index])
		for j := range s.Master {
			if g.Master[j] != s.Master[j] || g.ExpAvg[j] != s.ExpAvg[j] || g.ExpAvgSq[j] != s.ExpAvgSq[j] {
				t.Fatalf("group %d state differs at %d", i, j)
			}
		}
	}
}

func TestStreamedShardReadDetectsCorruption(t *testing.T) {
	b := storage.NewMem()
	saveFull(t, b, "run/checkpoint-3", 42, 2)
	name := "run/checkpoint-3/" + ShardFileName(0)
	raw, _ := b.ReadFile(name)
	raw[len(raw)-1] ^= 0xff // flip a payload byte in the last group
	if err := b.WriteFile(name, raw); err != nil {
		t.Fatal(err)
	}
	c, err := Open(b, "run/checkpoint-3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadOptimShard(0, nil); err == nil {
		t.Fatal("corrupted shard file read without error")
	} else if !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("err = %v, want CRC mismatch", err)
	}
}
