package tailor

import (
	"encoding/binary"
	"encoding/json"
	"sync/atomic"
	"testing"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/recipe"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

// singleSourceRecipe routes every layer to one checkpoint — the whole
// passthrough shape that takes tensors and optimizer groups by reference.
func singleSourceRecipe(src, out string) *recipe.Recipe {
	return &recipe.Recipe{
		MergeMethod: "passthrough",
		Base:        src,
		Optimizer:   true,
		Output:      out,
	}
}

// The acceptance property of taking payloads by reference: the output is
// what the sources hold, for every worker count. A whole passthrough of one
// source (groups by reference too) writes that source's own containers byte
// for byte; a two-source parity (tensors by reference, groups decoded from
// the shard files) restores every layer exactly as its assigned source holds
// it, and writes the same bytes at every worker count.
func TestRawCopyByteIdenticalToDecodeAcrossWorkers(t *testing.T) {
	b := storage.NewMem()
	cfg := modelcfg.Tiny()
	r := newRun(t, b, cfg, 2, []int{5, 10}, nil)

	recipes := map[string]func(out string) *recipe.Recipe{
		"single-source": func(out string) *recipe.Recipe {
			return singleSourceRecipe("run/checkpoint-10", out)
		},
		"parity": func(out string) *recipe.Recipe {
			return recipe.Parity("run/checkpoint-5", "run/checkpoint-10", cfg, out)
		},
	}
	containers := []string{"model.ltsf", ckpt.ShardFileName(0), ckpt.ShardFileName(1)}
	steps := map[string]int{"run/checkpoint-5": 5, "run/checkpoint-10": 10}

	for name, mk := range recipes {
		t.Run(name, func(t *testing.T) {
			var refOut string
			for _, workers := range []int{1, 2, 8} {
				out := "raw-" + name + "-" + string(rune('0'+workers))
				stats, err := Merge(b, mk(out), Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if stats.TensorsRawCopied != len(cfg.Tensors()) {
					t.Fatalf("workers=%d: %d of %d tensors raw-copied", workers, stats.TensorsRawCopied, len(cfg.Tensors()))
				}
				if name == "parity" && stats.ShardFileLoads == 0 {
					t.Fatalf("workers=%d: parity merge took groups from two plain sources by reference", workers)
				}
				if name == "single-source" && stats.ShardFileLoads != 0 {
					t.Fatalf("workers=%d: groups by reference still decoded %d shard files", workers, stats.ShardFileLoads)
				}
				if stats.BytesRawCopied <= 0 {
					t.Fatalf("workers=%d: BytesRawCopied not tracked", workers)
				}
				if refOut == "" {
					refOut = out
					if name == "single-source" {
						refOut = "run/checkpoint-10"
					}
				}
				for _, f := range containers {
					ref, err := b.ReadFile(refOut + "/" + f)
					if err != nil {
						t.Fatal(err)
					}
					got, err := b.ReadFile(out + "/" + f)
					if err != nil {
						t.Fatal(err)
					}
					if string(ref) != string(got) {
						t.Fatalf("workers=%d: %s differs from %s's", workers, f, refOut)
					}
				}
				m, o, _, err := ckpt.Restore(b, out, tensor.BF16)
				if err != nil {
					t.Fatalf("workers=%d: raw-merged checkpoint not restorable: %v", workers, err)
				}
				plan, err := NewPlan(b, mk(out))
				if err != nil {
					t.Fatal(err)
				}
				for ref, path := range plan.Assign {
					r.assertLayerMatches(t, m, o, ref, steps[path])
				}
			}
		})
	}
}

// A dtype conversion must force every tensor back onto the decode path.
func TestRawCopyFallsBackOnDTypeConversion(t *testing.T) {
	b := storage.NewMem()
	cfg := modelcfg.Tiny()
	newRun(t, b, cfg, 2, []int{5, 10}, nil)

	rec := singleSourceRecipe("run/checkpoint-10", "conv")
	rec.DType = "float32" // sources store bf16
	rec.Optimizer = false
	stats, err := Merge(b, rec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TensorsRawCopied != 0 || stats.BytesRawCopied != 0 {
		t.Fatalf("converted merge took the raw path: %+v", stats)
	}
	if stats.TensorsRead != len(cfg.Tensors()) {
		t.Fatalf("TensorsRead = %d, want %d", stats.TensorsRead, len(cfg.Tensors()))
	}
}

// A multi-source merge of plain sources must not take groups by reference
// (Table 7 loads shard files), and the one source of a whole passthrough
// does.
func TestRawShardCopyDetection(t *testing.T) {
	cfg := modelcfg.Tiny()

	b := storage.NewMem()
	newRun(t, b, cfg, 2, []int{5, 10}, nil)
	plan, err := NewPlan(b, recipe.Parity("run/checkpoint-5", "run/checkpoint-10", cfg, "out"))
	if err != nil {
		t.Fatal(err)
	}
	for src := range plan.Sources {
		if fromExtents(plan, src) {
			t.Fatalf("two-source parity plan takes %q's groups by reference", src)
		}
	}

	plan, err = NewPlan(b, singleSourceRecipe("run/checkpoint-10", "out"))
	if err != nil {
		t.Fatal(err)
	}
	if !fromExtents(plan, "run/checkpoint-10") {
		t.Fatal("single-source plan does not take groups by reference")
	}
}

// A corrupt shard header never reaches an output by reference: every
// inconsistency the decode path (the rank's shard file loaded whole and its
// groups extracted, buildRankShards) rejects fails the by-reference path too,
// one the by-reference path accepts yields exactly the clean source's bytes,
// and a failed merge publishes nothing.
func TestShardCopyableRejectsInconsistentHeaders(t *testing.T) {
	cfg := modelcfg.Tiny()
	corruptions := map[string]func(h *shardHeader){
		"wrong rank":        func(h *shardHeader) { h.Rank = 1 },
		"wrong world size":  func(h *shardHeader) { h.WorldSize = 4 },
		"missing group":     func(h *shardHeader) { h.Groups = h.Groups[:len(h.Groups)-1] },
		"reordered groups":  func(h *shardHeader) { h.Groups[0].Index, h.Groups[1].Index = 1, 0 },
		"wrong numel":       func(h *shardHeader) { h.Groups[2].Numel++ },
		"corrupt shard len": func(h *shardHeader) { h.Groups[0].ShardLen++ },
		"negative shard len": func(h *shardHeader) {
			h.Groups[0].ShardLen = -h.Groups[0].ShardLen
		},
		"wrapping shard len": func(h *shardHeader) {
			// Chosen so ShardLen*12 wraps int64 back to a small value.
			h.Groups[0].ShardLen = (1<<63)/6 + h.Groups[0].ShardLen
		},
	}
	for name, corrupt := range corruptions {
		b := storage.NewMem()
		newRun(t, b, cfg, 2, []int{5, 10}, nil)
		files := []string{"model.ltsf", ckpt.ShardFileName(0), ckpt.ShardFileName(1)}
		clean := map[string][]byte{}
		for _, f := range files {
			clean[f], _ = b.ReadFile("run/checkpoint-10/" + f)
		}
		rewriteShardHeader(t, b, "run/checkpoint-10/"+ckpt.ShardFileName(0), corrupt)
		plan, decodeErr := NewPlan(b, singleSourceRecipe("run/checkpoint-10", "decoded"))
		if decodeErr == nil {
			_, _, _, _, decodeErr = buildRankShards(plan, Straightforward, 0, func(string) bool { return true })
		}
		_, refErr := Merge(b, singleSourceRecipe("run/checkpoint-10", "out"), Options{})
		switch {
		case decodeErr != nil && refErr == nil:
			t.Errorf("%s: taken by reference where the decode path refuses it (%v)", name, decodeErr)
		case refErr == nil:
			for _, f := range files {
				got, _ := b.ReadFile("out/" + f)
				if len(clean[f]) == 0 || string(clean[f]) != string(got) {
					t.Errorf("%s: %s differs from the clean source's", name, f)
				}
			}
		}
		if refErr != nil && b.Exists("out") {
			t.Errorf("%s: a failed merge published out", name)
		}
	}
}

// shardHeader is an LTOS file's JSON header, as its codec writes it.
type shardHeader struct {
	Version   int                   `json:"version"`
	Rank      int                   `json:"rank"`
	WorldSize int                   `json:"world_size"`
	Step      int                   `json:"step"`
	Layout    string                `json:"layout"`
	Groups    []ckpt.ShardGroupMeta `json:"groups"`
}

// rewriteShardHeader rewrites the JSON header of the LTOS file at name in
// place (magic, little-endian header length, header, payload).
func rewriteShardHeader(t *testing.T, b storage.Backend, name string, edit func(h *shardHeader)) {
	t.Helper()
	data, err := b.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	hlen := binary.LittleEndian.Uint64(data[4:12])
	var h shardHeader
	if err := json.Unmarshal(data[12:12+hlen], &h); err != nil {
		t.Fatal(err)
	}
	edit(&h)
	hj, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	out := append(binary.LittleEndian.AppendUint64(append([]byte(nil), data[:4]...), uint64(len(hj))), hj...)
	if err := b.WriteFile(name, append(out, data[12+hlen:]...)); err != nil {
		t.Fatal(err)
	}
}

// The byte gate still bounds the raw path: a MaxInFlight well below the
// model's total bytes holds as a hard ceiling while every tensor raw-copies.
func TestRawCopyRespectsMaxInFlight(t *testing.T) {
	b := storage.NewMem()
	cfg := modelcfg.Tiny()
	newRun(t, b, cfg, 2, []int{5, 10}, nil)

	var largest, total int64
	for _, spec := range cfg.Tensors() {
		n := spec.NumElems() * 2
		total += n
		if n > largest {
			largest = n
		}
	}
	bound := largest * 2
	if bound >= total {
		t.Fatalf("test model too small to exercise the bound (largest %d, total %d)", largest, total)
	}
	stats, err := Merge(b, singleSourceRecipe("run/checkpoint-10", "bounded"),
		Options{Workers: 4, MaxInFlight: bound, ChunkBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TensorsRawCopied != len(cfg.Tensors()) {
		t.Fatalf("%d of %d tensors raw-copied under the gate", stats.TensorsRawCopied, len(cfg.Tensors()))
	}
	if stats.PeakInFlightBytes <= 0 || stats.PeakInFlightBytes > bound {
		t.Fatalf("peak in-flight %d outside (0, %d]", stats.PeakInFlightBytes, bound)
	}
}

// Raw merges must survive adversarial short reads on the source backend —
// extent reads may deliver any number of bytes per call.
func TestRawMergeUnderShortReads(t *testing.T) {
	cfg := modelcfg.Tiny()
	clean := storage.NewMem()
	newRun(t, clean, cfg, 2, []int{5, 10}, nil)
	rec := singleSourceRecipe("run/checkpoint-10", "merged")
	if _, err := Merge(clean, rec, Options{Workers: 1, ChunkBytes: 512}); err != nil {
		t.Fatal(err)
	}
	want := mergeTreeDigest(t, clean, "merged")

	b := storage.NewMem()
	newRun(t, b, cfg, 2, []int{5, 10}, nil)
	f := storage.NewFault(b)
	f.SetShortReads(true)
	stats, err := Merge(f, rec, Options{Workers: 1, ChunkBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TensorsRawCopied == 0 || stats.ShardFileLoads != 0 {
		t.Fatalf("short-read merge left the raw path: %+v", stats)
	}
	if got := mergeTreeDigest(t, b, "merged"); got != want {
		t.Fatal("short reads changed raw merge output")
	}
}

// spoolCounter counts the scratch spools asked of the backend under it.
type spoolCounter struct {
	storage.Backend
	spools atomic.Int64
}

func (c *spoolCounter) NewSpool() (storage.Spool, error) {
	c.spools.Add(1)
	return storage.NewSpool(c.Backend)
}

func (c *spoolCounter) Unwrap() storage.Backend { return c.Backend }

// A whole passthrough takes every payload by reference with the CRC its
// source recorded, so each output container is written header first,
// straight from the source: no scratch spool, on Mem or OS.
func TestPassthroughMergeNeedsNoSpool(t *testing.T) {
	for _, name := range []string{"mem", "os"} {
		t.Run(name, func(t *testing.T) {
			var base storage.Backend = storage.NewMem()
			if name == "os" {
				var err error
				if base, err = storage.NewOS(t.TempDir()); err != nil {
					t.Fatal(err)
				}
			}
			newRun(t, base, modelcfg.Tiny(), 2, []int{5, 10}, nil)
			b := &spoolCounter{Backend: base}
			if _, err := Merge(b, singleSourceRecipe("run/checkpoint-10", "merged"), Options{Workers: 2}); err != nil {
				t.Fatal(err)
			}
			if n := b.spools.Load(); n != 0 {
				t.Fatalf("passthrough merge asked for %d spools", n)
			}
		})
	}
}
