package tailor

// Dedup × merge integration: dedup checkpoints as transparent merge
// sources (raw splice straight from blobs), and the -dedup output mode
// (Options.DedupOutput) for both passthrough and blend merges.

import (
	"bytes"
	"testing"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/recipe"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

// TestMergeFromDedupSources pins byte identity: the same parity recipe
// executed over plain sources and over dedup-converted sources produces
// identical output containers.
func TestMergeFromDedupSources(t *testing.T) {
	cfg := modelcfg.Tiny()
	plain := storage.NewMem()
	newRun(t, plain, cfg, 2, []int{5, 10}, nil)
	dedup := storage.NewMem()
	newDedupRun(t, dedup, cfg, 2, []int{5, 10})

	mk := func() *recipe.Recipe {
		return recipe.Parity("run/checkpoint-5", "run/checkpoint-10", cfg, "run/merged")
	}
	for _, noRaw := range []bool{false, true} {
		sp, err := Merge(plain, mk(), Options{Workers: 2, NoRawCopy: noRaw})
		if err != nil {
			t.Fatal(err)
		}
		sd, err := Merge(dedup, mk(), Options{Workers: 2, NoRawCopy: noRaw})
		if err != nil {
			t.Fatal(err)
		}
		if !noRaw && (sd.TensorsRawCopied == 0 || sp.TensorsRawCopied != sd.TensorsRawCopied) {
			t.Fatalf("raw path over dedup sources: plain %d, dedup %d raw-copied",
				sp.TensorsRawCopied, sd.TensorsRawCopied)
		}
		for _, f := range []string{"model.ltsf", ckpt.ShardFileName(0), ckpt.ShardFileName(1)} {
			want, err := plain.ReadFile("run/merged/" + f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dedup.ReadFile("run/merged/" + f)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("noRaw=%v: %s differs between plain and dedup sources", noRaw, f)
			}
		}
	}
}

func TestMergeDedupOutput(t *testing.T) {
	cfg := modelcfg.Tiny()
	b := storage.NewMem()
	r := newRun(t, b, cfg, 2, []int{5, 10}, nil)

	rec := recipe.Parity("run/checkpoint-5", "run/checkpoint-10", cfg, "run/merged")
	stats, err := Merge(b, rec, Options{Workers: 2, DedupOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlobsPut == 0 {
		t.Fatalf("no blobs stored: %+v", stats)
	}
	if b.Exists("run/merged/model.ltsf") || !b.Exists("run/merged/"+ckpt.WeightManifestName) {
		t.Fatal("output is not content-addressed")
	}
	// The dedup output restores exactly like a plain merge would.
	m, _, _, err := ckpt.Restore(b, "run/merged", tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check a passthrough tensor against its source model.
	name := "model.norm.weight"
	got, _ := m.Tensor(name)
	want, _ := r.models[10].Tensor(name)
	for i := 0; i < got.Len(); i++ {
		if got.At(i) != want.At(i) {
			t.Fatalf("elem %d: %v != %v", i, got.At(i), want.At(i))
		}
	}

	// Re-merging with -dedup against the populated store reuses blobs.
	stats2, err := Merge(b, recipe.Parity("run/checkpoint-5", "run/checkpoint-10", cfg, "run/merged2"), Options{DedupOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.BlobsReused == 0 {
		t.Fatalf("second dedup merge reused nothing: %+v", stats2)
	}
}

func TestBlendDedupOutput(t *testing.T) {
	cfg := modelcfg.Tiny()
	b := storage.NewMem()
	newRun(t, b, cfg, 2, []int{5, 10}, nil)

	rec := &recipe.Recipe{
		MergeMethod: "linear",
		Models: []recipe.WeightedSource{
			{Checkpoint: "run/checkpoint-5"},
			{Checkpoint: "run/checkpoint-10"},
		},
		Output: "soup",
	}
	stats, err := Merge(b, rec, Options{DedupOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlobsPut == 0 {
		t.Fatalf("no blobs stored: %+v", stats)
	}
	if b.Exists("soup/model.ltsf") || !b.Exists("soup/"+ckpt.WeightManifestName) {
		t.Fatal("blend output is not content-addressed")
	}
	c, err := ckpt.Open(b, "soup")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Weights().ReadAll(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeDedupOutputReadsOnce pins what a content-addressed output reads:
// every payload is produced once — hashed and spooled in one pass, put from
// the spool — so a parity merge over plain sources loads each rank's shard
// files as often as the plain output does, and reads no more source bytes.
func TestMergeDedupOutputReadsOnce(t *testing.T) {
	cfg := modelcfg.Tiny()
	for _, noRaw := range []bool{false, true} {
		// A fresh store each time: blobs an earlier merge put would turn the
		// puts into hits, which read blob headers instead.
		mem := storage.NewMem()
		newRun(t, mem, cfg, 2, []int{5, 10}, nil)
		b := storage.NewMeter(mem, storage.Profile{})
		merge := func(out string, dedup bool) (*Stats, storage.Stats) {
			b.Reset()
			rec := recipe.Parity("run/checkpoint-5", "run/checkpoint-10", cfg, out)
			stats, err := Merge(b, rec, Options{Workers: 2, NoRawCopy: noRaw, DedupOutput: dedup})
			if err != nil {
				t.Fatal(err)
			}
			return stats, b.Stats()
		}
		plain, plainIO := merge("run/plain", false)
		ca, caIO := merge("run/ca", true)
		if ca.ShardFileLoads != plain.ShardFileLoads || ca.BytesRead != plain.BytesRead {
			t.Errorf("noRaw=%v: dedup output loaded %d shard files (%d B), plain %d (%d B)",
				noRaw, ca.ShardFileLoads, ca.BytesRead, plain.ShardFileLoads, plain.BytesRead)
		}
		if caIO.BytesRead > plainIO.BytesRead {
			t.Errorf("noRaw=%v: dedup output read %d B off the backend, plain %d B", noRaw, caIO.BytesRead, plainIO.BytesRead)
		}
	}
}
