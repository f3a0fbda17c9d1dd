package tailor

// Tailoring by reference: a merge over content-addressed sources hands the
// write stage the sources' payload identities, so a dedup output into the
// same store moves no payload bytes — it carries them, reading only the
// padding of a shard that holds some — and every payload it does replay is
// checked on the way through.

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/recipe"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
	"llmtailor/internal/zero"
)

// countingBackend tallies GETs and payload bytes read by key class, the
// ranged reads of blobs, and the writes under a blob store.
type countingBackend struct {
	storage.Backend
	mu        sync.Mutex
	gets      map[string]int
	blobBytes int64
	blobPuts  int
	ranges    [][2]int64 // offset and length of each ranged blob read
}

func keyClass(key string) string {
	switch {
	case strings.Contains(key, "/objects/refs"):
		return "journal"
	case strings.Contains(key, "/objects/"):
		return "blob"
	case strings.HasSuffix(key, ".ltmf"), strings.HasSuffix(key, ".ltom"):
		return "manifest"
	case strings.HasSuffix(key, ".json"):
		return "document"
	}
	return "other"
}

func (c *countingBackend) get(key string, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gets == nil {
		c.gets = map[string]int{}
	}
	class := keyClass(key)
	c.gets[class]++
	if class == "blob" || class == "other" {
		c.blobBytes += n
	}
}

func (c *countingBackend) put(key string) {
	if keyClass(key) == "blob" {
		c.mu.Lock()
		c.blobPuts++
		c.mu.Unlock()
	}
}

func (c *countingBackend) ReadFile(name string) ([]byte, error) {
	data, err := c.Backend.ReadFile(name)
	c.get(name, int64(len(data)))
	return data, err
}

func (c *countingBackend) ReadAt(name string, off int64, p []byte) error {
	c.get(name, int64(len(p)))
	return c.Backend.ReadAt(name, off, p)
}

func (c *countingBackend) Open(name string) (io.ReadCloser, error) {
	size, _ := c.Backend.Stat(name)
	c.get(name, size)
	return c.Backend.Open(name)
}

func (c *countingBackend) OpenRange(name string, off, n int64) (io.ReadCloser, error) {
	c.get(name, n)
	if keyClass(name) == "blob" {
		c.mu.Lock()
		c.ranges = append(c.ranges, [2]int64{off, n})
		c.mu.Unlock()
	}
	return c.Backend.OpenRange(name, off, n)
}

func (c *countingBackend) WriteFile(name string, data []byte) error {
	c.put(name)
	return c.Backend.WriteFile(name, data)
}

func (c *countingBackend) Create(name string) (io.WriteCloser, error) {
	c.put(name)
	return c.Backend.Create(name)
}

func (c *countingBackend) Unwrap() storage.Backend { return c.Backend }

// TestTailorByReferenceRequestBudget: a parity merge of two content-addressed
// checkpoints into a content-addressed output in their own run root puts no
// blob, and reads each source's manifests once (1 + R a source), plus the
// small JSON documents. Every group is carried (payload.carry): at world 2 no
// Tiny group holds padding, so no payload byte is read at all; at world 3,
// where groups 0–6 are padded on rank 2, each of those costs exactly three
// ranged reads — the tails of its three sections, 4 bytes a padding word —
// and the one 4-byte head read by which its opener learns the blob is stored
// raw (the manifest's codec is a hint, never trusted). Nothing else is read,
// and the merge's BytesRead counts the tails.
func TestTailorByReferenceRequestBudget(t *testing.T) {
	backends := []struct {
		name string
		mk   func() storage.Backend
	}{
		{"mem-meter", func() storage.Backend { return storage.NewMeter(storage.NewMem(), storage.Profile{}) }},
		{"objstore-500us", func() storage.Backend {
			s := storage.NewObjStore()
			s.SetLatency(500*time.Microsecond, 0)
			return s
		}},
	}
	cfg := modelcfg.Tiny()
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			for _, ranks := range []int{2, 3} {
				t.Run(fmt.Sprintf("world=%d", ranks), func(t *testing.T) {
					base := bk.mk()
					r := newDedupRun(t, base, cfg, ranks, []int{5, 10})
					c := &countingBackend{Backend: base}
					rec := recipe.Parity("run/checkpoint-5", "run/checkpoint-10", cfg, "run/merged")
					stats, err := Merge(c, rec, Options{Workers: 2, DedupOutput: true})
					if err != nil {
						t.Fatal(err)
					}
					sources := len(rec.Checkpoints())
					// The padded shards' tails, and their openers' head reads.
					var tails []int64
					layout := optim.NewLayerwiseLayout(cfg)
					for _, g := range layout.Groups {
						part, err := zero.NewPartition(g.Numel, ranks)
						if err != nil {
							t.Fatal(err)
						}
						if pad := part.ShardLen()*int64(ranks) - g.Numel; pad > 0 {
							tails = append(tails, 4*pad, 4*pad, 4*pad)
						}
					}
					var gotTails, heads []int64
					var tailBytes int64
					for _, r := range c.ranges {
						if r[0] > 0 {
							gotTails = append(gotTails, r[1])
							tailBytes += r[1]
						} else {
							heads = append(heads, r[1])
						}
					}
					slices.Sort(tails)
					slices.Sort(gotTails)
					if ranks == 2 && len(tails) != 0 || ranks == 3 && len(tails) != 3*7 {
						t.Fatalf("fixture: %d padded shards at world %d", len(tails)/3, ranks)
					}
					if !slices.Equal(gotTails, tails) || len(heads) != len(tails)/3 || slices.ContainsFunc(heads, func(n int64) bool { return n != 4 }) {
						t.Errorf("ranged blob reads: tails %v and heads %v, want tails %v and one 4-byte head a padded shard", gotTails, heads, tails)
					}
					configs := int64(0)
					for _, f := range []string{"config.json", "trainer_state.json"} {
						data, err := base.ReadFile(rec.ConfigsSource() + "/" + f)
						if err != nil {
							t.Fatal(err)
						}
						configs += int64(len(data))
					}
					if checked := stats.BytesRead - stats.BytesRawCopied - configs; checked != tailBytes {
						t.Errorf("BytesRead counts %d bytes checked, the tails are %d", checked, tailBytes)
					}
					budget := []struct {
						what      string
						got, most int64
					}{
						{"payload bytes read", c.blobBytes, tailBytes + 4*int64(len(heads))},
						{"blob puts", int64(c.blobPuts), 0},
						{"manifest GETs", int64(c.gets["manifest"]), int64(sources * (1 + ranks))},
						// Each source's three trailer documents at Open, the configs
						// source's config and trainer state again for the output.
						{"document GETs", int64(c.gets["document"]), int64(3*sources + 2)},
					}
					for _, b := range budget {
						if b.got > b.most {
							t.Errorf("%s: %d, budget %d (gets %v)", b.what, b.got, b.most, c.gets)
						}
					}
					if stats.BlobsPut != 0 || stats.BlobsReused == 0 || stats.ShardFileLoads != 0 {
						t.Fatalf("stats = %+v", stats)
					}
					m, o, _, err := ckpt.Restore(base, "run/merged", tensor.BF16)
					if err != nil {
						t.Fatal(err)
					}
					assign, err := rec.Assignments(cfg)
					if err != nil {
						t.Fatal(err)
					}
					steps := map[string]int{"run/checkpoint-5": 5, "run/checkpoint-10": 10}
					for ref, path := range assign {
						r.assertLayerMatches(t, m, o, ref, steps[path])
					}
				})
			}
		})
	}
}

// TestMergeCorruptSource is merge's column of ckpt's
// TestReadStageCorruptionTable: a flipped byte in a plain source's tensor or
// optimizer group, or in a raw or codec-coded blob of a content-addressed
// one, fails a whole-source passthrough merge under default options with a
// *ckpt.CorruptError naming the payload, and publishes nothing. A payload
// taken by reference is replayed through its check, never copied on trust.
func TestMergeCorruptSource(t *testing.T) {
	cases := []struct {
		name   string
		codec  string // "" plain, else the dedup source's blob codec
		weight bool
	}{
		{"plain tensor", "", true},
		{"plain ltos", "", false},
		{"raw blob", "raw", true},
		{"coded blob", "plane", false},
	}
	const src = "run/checkpoint-10"
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := storage.NewMem()
			cfg := modelcfg.Tiny()
			m, _ := model.NewInitialized(cfg, tensor.BF16, 5)
			o, _ := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
			// Zeroed moments byte-plane-compress: the last group is what the
			// plane codec stores coded.
			last := o.States[len(o.States)-1]
			for i := range last.ExpAvg {
				last.ExpAvg[i], last.ExpAvgSq[i] = 0, 0
			}
			if err := ckpt.Save(b, ckpt.SaveSpec{Dir: src, Model: m, Optim: o, WorldSize: 2,
				Strategy: "full", Dedup: tc.codec != "", Codec: tc.codec,
				State: ckpt.TrainerState{Step: 10, Seed: 5}}); err != nil {
				t.Fatal(err)
			}
			c, err := ckpt.Open(b, src)
			if err != nil {
				t.Fatal(err)
			}
			groups, _, err := c.OptimExtents(1)
			if err != nil {
				t.Fatal(err)
			}
			group := groups[len(groups)-1].Index
			object, payload := src+"/"+ckpt.ShardFileName(1), fmt.Sprintf("group %d", group)
			if tc.weight {
				object, payload = src+"/model.ltsf", "lm_head.weight"
			}
			if tc.codec != "" {
				object = corruptibleBlob(t, b, src, tc.weight, payload, group, tc.codec)
			}
			data, err := b.ReadFile(object)
			if err != nil {
				t.Fatal(err)
			}
			pos := len(data) - 3 // the end of a container: its last payload
			if tc.codec != "" {
				pos = len(data) / 2
			}
			data[pos] ^= 0x20
			if err := b.WriteFile(object, data); err != nil {
				t.Fatal(err)
			}

			_, err = Merge(b, singleSourceRecipe(src, "run/merged"), Options{})
			var ce *ckpt.CorruptError
			if !errors.As(err, &ce) || !strings.Contains(ce.Payload, payload) {
				t.Fatalf("merge of a corrupt %s: no *CorruptError naming %s: %v", tc.name, payload, err)
			}
			if !strings.Contains(err.Error(), payload) {
				t.Fatalf("error does not name %s: %v", payload, err)
			}
			if b.Exists("run/merged") || b.Exists(ckpt.StagingDir("run/merged")) {
				t.Fatal("failed merge left an output directory")
			}
		})
	}
}

// corruptibleBlob is the stored object behind one manifest entry of a
// content-addressed checkpoint, checked to be stored in the codec asked for.
func corruptibleBlob(t *testing.T, b storage.Backend, dir string, weight bool, tensorName string, group int, codec string) string {
	t.Helper()
	store := storage.NewBlobStore(b, ckpt.ObjectsRoot(dir))
	digest := ""
	if weight {
		wm, err := ckpt.ReadWeightManifest(b, dir+"/"+ckpt.WeightManifestName)
		if err != nil {
			t.Fatal(err)
		}
		e, ok := wm.Entry(tensorName)
		if !ok {
			t.Fatalf("fixture: no tensor %s", tensorName)
		}
		digest = e.Digest
	} else {
		sm, err := ckpt.ReadShardManifest(b, dir+"/"+ckpt.ShardManifestName(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range sm.Groups {
			if g.Index == group {
				digest = g.Digest
			}
		}
	}
	meta, err := store.Meta(digest)
	if err != nil || meta.Codec.String() != codec {
		t.Fatalf("fixture: blob %q stored as %v (%v), want %s", digest, meta.Codec, err, codec)
	}
	return store.Path(digest)
}
