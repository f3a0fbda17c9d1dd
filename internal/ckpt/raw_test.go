package ckpt

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"testing"

	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

// openRaw opens a streaming reader over the named tensor's payload, exactly
// as stored — no CRC verification, no decode.
func (w *Weights) openRaw(name string) (RawTensor, io.ReadCloser, error) {
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

// appendRaw splices a pre-encoded tensor payload into the container with
// the source CRC carried forward — appendPayload with a carried CRC, reading
// at most rt.Size bytes of src now. Close holds what was read to rt.Size and
// to that CRC.
func (w *ltsfWriter) appendRaw(rt RawTensor, src io.Reader) error {
	data, err := io.ReadAll(io.LimitReader(src, rt.Size))
	if err != nil {
		return err
	}
	return w.appendPayload(&weightPayload{
		payload: payload{size: rt.Size, crc: rt.CRC32, hasCRC: true, write: func(sink io.Writer) (int64, error) {
			n, err := sink.Write(data)
			return int64(n), err
		}},
		name: rt.Name, dtype: rt.DType, shape: append([]int(nil), rt.Shape...),
	})
}

// rawTestTensors builds a deterministic mixed-dtype tensor set.
func rawTestTensors(tb testing.TB) []*tensor.Tensor {
	tb.Helper()
	a := tensor.New("w.a", tensor.BF16, 16, 8)
	b := tensor.New("w.b", tensor.F32, 33)
	c := tensor.New("w.c", tensor.BF16, 5)
	rng := tensor.NewRNG(123)
	for _, t := range []*tensor.Tensor{a, b, c} {
		for i := 0; i < t.Len(); i++ {
			t.Set(i, rng.NormFloat32())
		}
	}
	return []*tensor.Tensor{a, b, c}
}

// The byte-identity contract of the fast path: splicing every tensor of a
// container raw (appendRaw with carried-forward CRCs) produces exactly the
// bytes the decode path (ReadTensor + WriteTensor) produces.
func TestAppendRawByteIdenticalToDecodePath(t *testing.T) {
	b := storage.NewMem()
	tensors := rawTestTensors(t)
	if err := writeLTSF(b, "src", "m", tensors); err != nil {
		t.Fatal(err)
	}
	r, err := openLTSF(b, "src")
	if err != nil {
		t.Fatal(err)
	}

	// Decode path.
	wd := newLTSFWriter(b, "via-decode", "m", readAhead{})
	for _, ts := range tensors {
		got, err := r.ReadTensor(ts.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := wd.WriteTensor(got); err != nil {
			t.Fatal(err)
		}
	}
	if err := wd.Close(); err != nil {
		t.Fatal(err)
	}

	// Raw path, same order.
	wr := newLTSFWriter(b, "via-raw", "m", readAhead{})
	for _, ts := range tensors {
		rt, rc, err := r.openRaw(ts.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := wr.appendRaw(rt, rc); err != nil {
			t.Fatal(err)
		}
		rc.Close()
	}
	if err := wr.Close(); err != nil {
		t.Fatal(err)
	}

	dec, _ := b.ReadFile("via-decode")
	raw, _ := b.ReadFile("via-raw")
	src, _ := b.ReadFile("src")
	if !bytes.Equal(dec, raw) {
		t.Fatal("raw splice differs from decode path")
	}
	if !bytes.Equal(src, raw) {
		t.Fatal("whole-container raw splice differs from the source container")
	}

	// The spliced container must decode and CRC-verify like the original.
	rr, err := openLTSF(b, "via-raw")
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range tensors {
		got, err := rr.ReadTensor(ts.Name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ts.Len(); i++ {
			if got.At(i) != ts.At(i) {
				t.Fatalf("%s[%d]: %v != %v", ts.Name, i, got.At(i), ts.At(i))
			}
		}
	}
}

func TestRawTensorMetadata(t *testing.T) {
	b := storage.NewMem()
	tensors := rawTestTensors(t)
	if err := writeLTSF(b, "src", "m", tensors); err != nil {
		t.Fatal(err)
	}
	r, err := openLTSF(b, "src")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := r.RawTensor("w.a")
	if err != nil {
		t.Fatal(err)
	}
	if rt.DType != tensor.BF16.String() || rt.Size != 16*8*2 || len(rt.Shape) != 2 {
		t.Fatalf("RawTensor meta = %+v", rt)
	}
	if size, _ := r.PayloadSize("w.a"); size != rt.Size {
		t.Fatalf("RawTensor size %d != PayloadSize %d", rt.Size, size)
	}
	if _, err := r.RawTensor("nope"); err == nil {
		t.Fatal("missing tensor accepted")
	}
	if !r.rawEligible("w.a", tensor.BF16) || r.rawEligible("w.a", tensor.F32) {
		t.Fatal("RawEligible dtype check wrong")
	}
	if !r.rawEligible("w.b", tensor.F32) || r.rawEligible("nope", tensor.BF16) {
		t.Fatal("RawEligible presence check wrong")
	}
}

// appendRaw must reject inconsistent metadata with errors (never panics),
// listing nothing; a short extent or a CRC the bytes miss fails Close and
// leaves no file.
func TestAppendRawRejectsCorruptExtents(t *testing.T) {
	mk := func() *ltsfWriter {
		return newLTSFWriter(storage.NewMem(), "out", "m", readAhead{})
	}
	payload := make([]byte, 64)

	cases := []struct {
		name string
		rt   RawTensor
		src  io.Reader
		want string
	}{
		{"bad dtype", RawTensor{Name: "t", DType: "q4", Shape: []int{16}, Size: 64},
			bytes.NewReader(payload), "dtype"},
		{"zero dim", RawTensor{Name: "t", DType: "f32", Shape: []int{0}, Size: 0},
			bytes.NewReader(nil), "dimension"},
		{"negative dim", RawTensor{Name: "t", DType: "f32", Shape: []int{-4}, Size: 64},
			bytes.NewReader(payload), "dimension"},
		{"size mismatch", RawTensor{Name: "t", DType: "f32", Shape: []int{16}, Size: 32},
			bytes.NewReader(payload), "bytes"},
		{"negative size", RawTensor{Name: "t", DType: "f32", Shape: []int{16}, Size: -64},
			bytes.NewReader(payload), "size"},
		{"overflow shape", RawTensor{Name: "t", DType: "f32", Shape: []int{1 << 62, 1 << 62}, Size: 64},
			bytes.NewReader(payload), "overflows"},
	}
	for _, tc := range cases {
		w := mk()
		err := w.appendRaw(tc.rt, tc.src)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err %q does not mention %q", tc.name, err, tc.want)
		}
		w.Abort()
	}

	// Valid meta, duplicate name.
	w := mk()
	rt := RawTensor{Name: "t", DType: "f32", Shape: []int{16}, Size: 64}
	if err := w.appendRaw(rt, bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	if err := w.appendRaw(rt, bytes.NewReader(payload)); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate accepted: %v", err)
	}
	w.Abort()

	// A rejected splice lists nothing: the writer goes on, and the name
	// stays free.
	w = mk()
	if err := w.appendRaw(RawTensor{Name: "t", DType: "q4", Shape: []int{16}, Size: 64},
		bytes.NewReader(payload)); err == nil {
		t.Fatal("bad dtype accepted")
	}
	if err := w.appendRaw(rt, bytes.NewReader(payload)); err != nil {
		t.Fatalf("writer refused a section after a rejected splice: %v", err)
	}
	w.Abort()

	// A short extent, or a carried CRC the bytes do not match, fails Close
	// naming the container and the tensor, and leaves no file.
	for _, tc := range []struct {
		name string
		src  []byte
		crc  uint32
		want string
	}{
		{"short extent", payload[:10], crc32.ChecksumIEEE(payload), `out: tensor "t": source delivered 10 of 64 bytes`},
		{"bad CRC", payload, 1, `out: tensor "t": streamed CRC`},
	} {
		b := storage.NewMem()
		w := newLTSFWriter(b, "out", "m", readAhead{})
		if err := w.appendRaw(RawTensor{Name: "t", DType: "f32", Shape: []int{16}, Size: 64, CRC32: tc.crc},
			bytes.NewReader(tc.src)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := w.Close(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if _, err := b.Stat("out"); err == nil {
			t.Fatalf("%s: failed Close left a file", tc.name)
		}
	}
}

// An extent longer than advertised must not drag trailing bytes into the
// container: appendRaw consumes exactly rt.Size bytes.
func TestAppendRawConsumesExactExtent(t *testing.T) {
	b := storage.NewMem()
	w := newLTSFWriter(b, "out", "m", readAhead{})
	payload := make([]byte, 64+17) // 17 trailing bytes must stay unread
	src := bytes.NewReader(payload)
	rt := RawTensor{Name: "t", DType: "f32", Shape: []int{16}, Size: 64, CRC32: crc32.ChecksumIEEE(payload[:64])}
	if err := w.appendRaw(rt, src); err != nil {
		t.Fatal(err)
	}
	if src.Len() != 17 {
		t.Fatalf("%d bytes left in source, want 17", src.Len())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReadShardHeaderMatchesFullRead(t *testing.T) {
	b := storage.NewMem()
	saveFull(t, b, "run/checkpoint-3", 7, 2)
	h, err := readShardHeader(b, "run/checkpoint-3/"+ShardFileName(0))
	if err != nil {
		t.Fatal(err)
	}
	// The whole-rank load lists the rank off the stream it loads.
	c, err := Open(b, "run/checkpoint-3")
	if err != nil {
		t.Fatal(err)
	}
	set := &payloadSet{ranks: []rankPayloads{c.listRank(0)}}
	if err := set.load(newLoadGate(), nil, c, checkOnly, nil); err != nil {
		t.Fatal(err)
	}
	full := &set.ranks[0]
	if h.Rank != full.rank || h.WorldSize != full.worldSize || h.Step != full.step ||
		h.Layout != full.layout || len(h.Groups) != len(full.groups) || h.FileBytes != full.fileBytes {
		t.Fatalf("header read %+v disagrees with full read", h)
	}
	for i := range h.Groups {
		if h.Groups[i] != full.groups[i].meta {
			t.Fatalf("group %d meta differs: %+v vs %+v", i, h.Groups[i], full.groups[i].meta)
		}
	}
	if h.Groups[len(h.Groups)-1].Offsets[1] != h.PayloadBytes {
		t.Fatalf("payload bytes %d do not end at the last group", h.PayloadBytes)
	}

	// Corrupt containers must error, not panic.
	if _, err := readShardHeader(b, "missing"); err == nil {
		t.Fatal("missing file accepted")
	}
	data, _ := b.ReadFile("s")
	b.WriteFile("torn", data[:len(data)/3])
	if _, err := readShardHeader(b, "torn"); err == nil {
		t.Log("truncated header accepted (payload truncation is invisible to a header read)")
	}
}

// checkOnly places nothing: the rank's bytes are fetched and checked, and no
// one keeps them.
func checkOnly(*rankPayloads) func(int, []byte) { return func(int, []byte) {} }
