package ckpt

// Fuzz targets for the container readers. The contract under test: corrupt
// input — truncated, bit-flipped, adversarial headers — must surface as an
// error, never as a panic or an unbounded allocation. Seeds are the golden
// containers the writers produce, plus truncations and bit flips of them;
// the regression corpus lives in testdata/fuzz/.

import (
	"testing"

	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
	"llmtailor/internal/zero"
)

// goldenLTSF builds a small deterministic LTSF container.
func goldenLTSF(tb testing.TB) []byte {
	tb.Helper()
	a := tensor.New("a", tensor.BF16, 2, 3)
	b := tensor.New("b", tensor.F32, 4)
	for i := 0; i < a.Len(); i++ {
		a.Set(i, float32(i)-1.5)
	}
	for i := 0; i < b.Len(); i++ {
		b.Set(i, float32(i)*0.25)
	}
	mem := storage.NewMem()
	if err := writeLTSF(mem, "m", "fuzz", []*tensor.Tensor{a, b}); err != nil {
		tb.Fatal(err)
	}
	data, _ := mem.ReadFile("m")
	return data
}

// ltosFixture saves the checkpoint FuzzReadShardFile reads its inputs in, as
// the file of rank 0, and returns it with its layout and the golden LTOS
// container: that rank's file as saved.
func ltosFixture(tb testing.TB) (storage.Backend, *optim.Layout, []byte) {
	tb.Helper()
	b := storage.NewMem()
	_, o := saveFull(tb, b, ltosFixtureDir, 99, 2)
	data, err := b.ReadFile(ltosFixtureDir + "/" + ShardFileName(0))
	if err != nil {
		tb.Fatal(err)
	}
	return b, o.Layout, data
}

const ltosFixtureDir = "run/checkpoint-3"

// container assembles magic + length-prefixed JSON header + payload, for
// hand-crafting adversarial inputs.
func container(magic []byte, hdr string, payload []byte) []byte {
	out := append([]byte(nil), magic...)
	out = append(out, byte(len(hdr)), 0, 0, 0, 0, 0, 0, 0)
	out = append(out, hdr...)
	return append(out, payload...)
}

// Regression: adversarial LTSF headers that once slipped past validation.
// Zero dimensions would panic inside tensor.New, and a single huge
// dimension would wrap numel*size around int64 to match an empty payload
// range — both must surface as Open errors, never panics.
func TestOpenLTSFRejectsAdversarialHeaders(t *testing.T) {
	cases := map[string]string{
		"zero-dim": `{"version":1,"model":"m","tensors":{"t":{"dtype":"f32","shape":[0],"data_offsets":[0,0],"crc32":0}}}`,
		"overflow": `{"version":1,"model":"m","tensors":{"t":{"dtype":"f32","shape":[4611686018427387904],"data_offsets":[0,0],"crc32":0}}}`,
		"negative": `{"version":1,"model":"m","tensors":{"t":{"dtype":"f32","shape":[-4],"data_offsets":[0,16],"crc32":0}}}`,
		"escape":   `{"version":1,"model":"m","tensors":{"t":{"dtype":"f32","shape":[64],"data_offsets":[0,256],"crc32":0}}}`,
	}
	for name, hdr := range cases {
		b := storage.NewMem()
		if err := b.WriteFile("m", container([]byte("LTSF"), hdr, []byte("payload"))); err != nil {
			t.Fatal(err)
		}
		if _, err := openLTSF(b, "m"); err == nil {
			t.Errorf("%s: adversarial header accepted", name)
		}
	}
}

func addMutations(f *testing.F, golden []byte) {
	f.Add(golden)
	for _, cut := range []int{1, 7, 13, len(golden) / 2, len(golden) - 1} {
		if cut < len(golden) {
			f.Add(golden[:cut])
		}
	}
	for _, pos := range []int{4, 8, 15, len(golden) / 3, len(golden) - 2} {
		if pos < len(golden) {
			flipped := append([]byte(nil), golden...)
			flipped[pos] ^= 0x40
			f.Add(flipped)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("LTSF"))
	f.Add([]byte("LTOS"))
}

// FuzzReadShardFile: any bytes standing as a plain checkpoint's rank file
// read through the one-rank load (Checkpoint.ReadOptimShard) as the layout's
// groups, or as an error.
func FuzzReadShardFile(f *testing.F) {
	b, layout, golden := ltosFixture(f)
	addMutations(f, golden)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := b.WriteFile(ltosFixtureDir+"/"+ShardFileName(0), data); err != nil {
			t.Fatal(err)
		}
		c, err := Open(b, ltosFixtureDir)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := c.ReadOptimShard(0, nil)
		if err != nil {
			return // corrupt input must error, and did
		}
		// A successful read holds the layout's groups, each rank 0's shard.
		if len(sb.Groups) != layout.NumGroups() {
			t.Fatalf("%d groups read, the layout has %d", len(sb.Groups), layout.NumGroups())
		}
		for _, g := range layout.Groups {
			p, err := zero.NewPartition(g.Numel, 2)
			if err != nil {
				t.Fatal(err)
			}
			if n := int64(len(sb.Groups[g.Index])); n != 12*p.ShardLen() {
				t.Fatalf("group %d: %d bytes, want 12×%d", g.Index, n, p.ShardLen())
			}
		}
	})
}

func FuzzLTSFReader(f *testing.F) {
	addMutations(f, goldenLTSF(f))
	f.Add(container([]byte("LTSF"),
		`{"version":1,"model":"m","tensors":{"t":{"dtype":"f32","shape":[0],"data_offsets":[0,0],"crc32":0}}}`, nil))
	f.Add(container([]byte("LTSF"),
		`{"version":1,"model":"m","tensors":{"t":{"dtype":"f32","shape":[4611686018427387904],"data_offsets":[0,0],"crc32":0}}}`, nil))
	// Raw-path seeds: extents brushing the payload boundary, a reversed
	// extent, and a CRC that cannot match — RawTensor/openRaw/appendRaw
	// must error (or succeed consistently), never panic.
	f.Add(container([]byte("LTSF"),
		`{"version":1,"model":"m","tensors":{"t":{"dtype":"f32","shape":[2],"data_offsets":[1,9],"crc32":7}}}`, []byte("123456789")))
	f.Add(container([]byte("LTSF"),
		`{"version":1,"model":"m","tensors":{"t":{"dtype":"f32","shape":[2],"data_offsets":[8,0],"crc32":0}}}`, []byte("12345678")))
	f.Add(container([]byte("LTSF"),
		`{"version":1,"model":"m","tensors":{"t":{"dtype":"bf16","shape":[4],"data_offsets":[0,8],"crc32":4294967295}}}`, []byte("12345678")))
	f.Fuzz(func(t *testing.T, data []byte) {
		b := storage.NewMem()
		if err := b.WriteFile("m", data); err != nil {
			t.Fatal(err)
		}
		r, err := openLTSF(b, "m")
		if err != nil {
			return
		}
		dst := storage.NewMem()
		w := newLTSFWriter(dst, "spliced", "m", readAhead{})
		defer w.Abort()
		for _, name := range r.Names() {
			ts, err := r.ReadTensor(name)
			if err == nil {
				if size, ok := r.PayloadSize(name); !ok || int64(ts.Bytes()) != size {
					t.Fatalf("tensor %q: decoded %d bytes, header says %d", name, ts.Bytes(), size)
				}
			}
			// The raw surface must hold the same never-panic contract over
			// whatever header survived openLTSF: the extent opens and
			// delivers exactly its advertised size, and splicing it into a
			// fresh container round-trips the metadata.
			rt, rc, err := r.openRaw(name)
			if err != nil {
				continue
			}
			// A splice rejection (an inconsistent extent) lists nothing;
			// only panics are bugs here.
			w.appendRaw(rt, rc)
			rc.Close()
		}
		// Close streams every spliced section, holding it to its size and
		// to the CRC its header carried: a mismatch fails Close, and a
		// container Close accepts must open again.
		if err := w.Close(); err == nil {
			if _, err := openLTSF(dst, "spliced"); err != nil {
				t.Fatalf("spliced container does not reopen: %v", err)
			}
		}
	})
}
