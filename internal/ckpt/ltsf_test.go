package ckpt

import (
	"encoding/binary"
	"io"
	"strings"
	"testing"

	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

func randTensors(seed uint64) []*tensor.Tensor {
	rng := tensor.NewRNG(seed)
	a := tensor.New("model.embed_tokens.weight", tensor.BF16, 8, 4)
	b := tensor.New("model.norm.weight", tensor.BF16, 4)
	c := tensor.New("lm_head.weight", tensor.F32, 8, 4)
	for _, t := range []*tensor.Tensor{a, b, c} {
		t.FillRandN(rng, 1)
	}
	return []*tensor.Tensor{a, b, c}
}

func TestLTSFRoundtrip(t *testing.T) {
	b := storage.NewMem()
	ts := randTensors(1)
	if err := writeLTSF(b, "model.ltsf", "tiny", ts); err != nil {
		t.Fatal(err)
	}
	r, err := openLTSF(b, "model.ltsf")
	if err != nil {
		t.Fatal(err)
	}
	if r.Model() != "tiny" {
		t.Fatalf("model = %q", r.Model())
	}
	names := r.Names()
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
	for _, want := range ts {
		got, err := r.ReadTensor(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(got, want) {
			t.Fatalf("tensor %s mismatch", want.Name)
		}
	}
}

func TestLTSFReadAll(t *testing.T) {
	b := storage.NewMem()
	ts := randTensors(2)
	writeLTSF(b, "m", "x", ts)
	r, _ := openLTSF(b, "m")
	all, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("read %d tensors", len(all))
	}
}

func TestLTSFHas(t *testing.T) {
	b := storage.NewMem()
	writeLTSF(b, "m", "x", randTensors(3))
	r, _ := openLTSF(b, "m")
	if !r.Has("model.norm.weight") || r.Has("nope") {
		t.Fatal("Has wrong")
	}
	if _, err := r.ReadTensor("nope"); err == nil {
		t.Fatal("expected missing tensor error")
	}
}

func TestLTSFDuplicateRejected(t *testing.T) {
	b := storage.NewMem()
	a := tensor.New("dup", tensor.F32, 2)
	if err := writeLTSF(b, "m", "x", []*tensor.Tensor{a, a}); err == nil {
		t.Fatal("duplicate tensor accepted")
	}
}

func TestLTSFLazyReadIsPartial(t *testing.T) {
	mem := storage.NewMem()
	meter := storage.NewMeter(mem, storage.LocalNVMe())
	ts := randTensors(4)
	writeLTSF(meter, "m", "x", ts)
	meter.Reset()

	r, err := openLTSF(meter, "m")
	if err != nil {
		t.Fatal(err)
	}
	afterOpen := meter.Stats().BytesRead
	size, _ := mem.Stat("m")
	if afterOpen >= size {
		t.Fatalf("open read %d of %d bytes; header should be partial", afterOpen, size)
	}
	if _, err := r.ReadTensor("model.norm.weight"); err != nil {
		t.Fatal(err)
	}
	afterTensor := meter.Stats().BytesRead - afterOpen
	// norm is 4 bf16 elements = 8 bytes; a lazy read must not touch the
	// big embed/lm_head payloads.
	if afterTensor != 8 {
		t.Fatalf("lazy tensor read = %d bytes, want 8", afterTensor)
	}
}

func TestLTSFCorruptMagic(t *testing.T) {
	b := storage.NewMem()
	writeLTSF(b, "m", "x", randTensors(5))
	raw, _ := b.ReadFile("m")
	raw[0] = 'X'
	b.WriteFile("m", raw)
	if _, err := openLTSF(b, "m"); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("err = %v", err)
	}
}

func TestLTSFCorruptPayloadCRC(t *testing.T) {
	b := storage.NewMem()
	writeLTSF(b, "m", "x", randTensors(6))
	raw, _ := b.ReadFile("m")
	raw[len(raw)-1] ^= 0xFF
	b.WriteFile("m", raw)
	r, err := openLTSF(b, "m")
	if err != nil {
		t.Fatal(err)
	}
	// The corrupted byte is in the last tensor's payload.
	var sawCRC bool
	for _, n := range r.Names() {
		if _, err := r.ReadTensor(n); err != nil && strings.Contains(err.Error(), "CRC") {
			sawCRC = true
		}
	}
	if !sawCRC {
		t.Fatal("corruption not detected")
	}
}

func TestLTSFCorruptHeaderLength(t *testing.T) {
	b := storage.NewMem()
	writeLTSF(b, "m", "x", randTensors(7))
	raw, _ := b.ReadFile("m")
	binary.LittleEndian.PutUint64(raw[4:], uint64(len(raw)*2))
	b.WriteFile("m", raw)
	if _, err := openLTSF(b, "m"); err == nil {
		t.Fatal("corrupt header length accepted")
	}
}

func TestLTSFWrongVersion(t *testing.T) {
	b := storage.NewMem()
	writeLTSF(b, "m", "x", randTensors(8))
	raw, _ := b.ReadFile("m")
	// Flip the version digit inside the JSON header.
	s := string(raw)
	s = strings.Replace(s, `"version":1`, `"version":9`, 1)
	b.WriteFile("m", []byte(s))
	if _, err := openLTSF(b, "m"); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v", err)
	}
}

func TestLTSFMissingFile(t *testing.T) {
	if _, err := openLTSF(storage.NewMem(), "absent"); err == nil {
		t.Fatal("expected error")
	}
}

func TestLTSFEmptyTensorList(t *testing.T) {
	b := storage.NewMem()
	if err := writeLTSF(b, "m", "x", nil); err != nil {
		t.Fatal(err)
	}
	r, err := openLTSF(b, "m")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Names()) != 0 {
		t.Fatal("phantom tensors")
	}
}

// writeLTSF serialises the given tensors into an LTSF container at name.
// Tensor payload order follows the given slice order; the header indexes
// them by name for lazy retrieval. It is the reference the
// streaming ltsfWriter is held byte-identical to.
func writeLTSF(b storage.Backend, name, modelName string, tensors []*tensor.Tensor) error {
	w := newLTSFWriter(b, name, modelName, readAhead{})
	defer w.Abort()
	for _, t := range tensors {
		if err := w.WriteTensor(t); err != nil {
			return err
		}
	}
	return w.Close()
}

// WriteTensor appends one tensor's payload, encoded in the writer's chunk
// size, and records its metadata. The tensor must stay unchanged until Close.
func (w *ltsfWriter) WriteTensor(t *tensor.Tensor) error {
	buf := make([]byte, storage.ChunkOrDefault(w.ra.chunk))
	return w.appendPayload(&weightPayload{
		payload: payload{size: int64(t.Bytes()), write: func(sink io.Writer) (int64, error) { return t.EncodeTo(sink, buf) }},
		name:    t.Name, dtype: t.DType.String(), shape: append([]int(nil), t.Shape...),
	})
}
