package train

// Retention hook coverage: Config.KeepLast drives ckpt.Retain after every
// checkpoint event, bounding a run's storage footprint while keeping the
// newest checkpoints resumable — sync and async save paths both.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/recipe"
	"llmtailor/internal/storage"
	"llmtailor/internal/strategy"
	"llmtailor/internal/tailor"
)

func retainConfig(keepLast int, async bool) Config {
	return Config{
		Model: modelcfg.Tiny(), Seed: 51, Task: SFT(),
		TotalSteps: 50, WarmupSteps: 2, BaseLR: 2e-3,
		CkptInterval: 10, WorldSize: 2, RunRoot: "run",
		DedupCkpt: true, KeepLast: keepLast, LazyCapture: async,
	}
}

func TestKeepLastRetiresOldCheckpoints(t *testing.T) {
	b := storage.NewMem()
	tr, err := New(retainConfig(2, false), b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ckpt.List(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 2 || dirs[0] != "run/checkpoint-40" || dirs[1] != "run/checkpoint-50" {
		t.Fatalf("dirs = %v", dirs)
	}
	var retired int
	for _, ev := range res.Ckpts {
		retired += len(ev.Retired)
	}
	if retired != 3 {
		t.Fatalf("events retired %d checkpoints, want 3", retired)
	}
	// The survivors resume; the index and store are coherent (full GC and
	// the audit find nothing wrong).
	if _, err := ResumeLatest(retainConfig(2, false), b, "run"); err != nil {
		t.Fatal(err)
	}
	rep, err := ckpt.GC(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RemovedBlobs) != 0 || len(rep.IndexRepaired) != 0 {
		t.Fatalf("retention left work for full gc: %+v", rep)
	}
	scan, err := ckpt.ScanRun(b, "run", ckpt.ScanViews{Blobs: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scan.Blobs {
		if s.State != ckpt.BlobReferenced {
			t.Fatalf("blob %s is %v after retention", s.Path, s.State)
		}
	}
}

func TestKeepLastComposesWithAsyncSaves(t *testing.T) {
	b := storage.NewMem()
	tr, err := New(retainConfig(2, true), b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	dirs, err := ckpt.List(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	// Async retention is best-effort per event (a save may still be in
	// flight when the policy runs), but after the drain at most
	// KeepLast+workers checkpoints survive and the newest are present.
	if len(dirs) < 2 || len(dirs) > 4 {
		t.Fatalf("dirs = %v", dirs)
	}
	if dirs[len(dirs)-1] != "run/checkpoint-50" {
		t.Fatalf("newest = %s", dirs[len(dirs)-1])
	}
	if _, err := ResumeLatest(retainConfig(2, true), b, "run"); err != nil {
		t.Fatal(err)
	}
	// A final explicit retention converges the population.
	if _, err := ckpt.Retain(b, "run", 2, false); err != nil {
		t.Fatal(err)
	}
	dirs, _ = ckpt.List(b, "run")
	if len(dirs) != 2 {
		t.Fatalf("dirs after explicit retain = %v", dirs)
	}
	if _, err := ResumeLatest(retainConfig(2, true), b, "run"); err != nil {
		t.Fatal(err)
	}
}

func TestKeepLastBoundsStorageOverLongRun(t *testing.T) {
	b := storage.NewMem()
	cfg := retainConfig(3, false)
	cfg.TotalSteps = 120
	tr, err := New(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	dirs, _ := ckpt.List(b, "run")
	if len(dirs) != 3 {
		t.Fatalf("%d checkpoints survived, want 3", len(dirs))
	}
	// The journal stays O(KeepLast), not O(saves): 12 saves happened but
	// only the live generations keep records.
	scan, err := ckpt.ScanRun(b, "run", ckpt.ScanViews{Blobs: true, Refs: true})
	if err != nil {
		t.Fatal(err)
	}
	statuses, blobs := scan.Refs, scan.Blobs
	if len(statuses) != 3 {
		t.Fatalf("index holds %d entries after retention: %+v", len(statuses), statuses)
	}
	for _, s := range statuses {
		if s.State != ckpt.RefOK {
			t.Fatalf("index entry %+v not ok", s)
		}
	}
	// Blob count is bounded by the live set too: every stored blob is
	// referenced by one of the three survivors.
	for _, s := range blobs {
		if s.State != ckpt.BlobReferenced {
			t.Fatalf("long run leaked blob %s (%v)", s.Path, s.State)
		}
	}
	if len(blobs) == 0 {
		t.Fatal("no blobs scanned")
	}
}

// TestRetainKeepsNewestLayerHolders: keep-last retention over a run of
// partial checkpoints keeps the newest holder of every layer, so the
// recovery the partial checkpoints promise — recipe.FromManifests picks the
// newest holder of each layer and the merge rebuilds the state — gives the
// same recipe and the same bytes after retention as before it, for the
// paper's Filter and Parity strategies and the DeltaTopK policy its
// conclusion anticipates, plain and content-addressed. The trainer's KeepLast
// hook ends at the same recipe.
func TestRetainKeepsNewestLayerHolders(t *testing.T) {
	cases := []struct {
		name     string
		strategy func() strategy.Strategy
		keepLast int
	}{
		{"filter", func() strategy.Strategy { return strategy.NewFilter() }, 2},
		{"parity", func() strategy.Strategy { return strategy.Parity{} }, 1},
		{"delta-topk", func() strategy.Strategy { return strategy.NewDeltaTopK(0.25, 6) }, 1},
	}
	for _, tc := range cases {
		for _, dedup := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/dedup=%v", tc.name, dedup), func(t *testing.T) {
				cfg := Config{
					Model: modelcfg.Tiny(), Seed: 52, Task: SFT(),
					TotalSteps: 60, WarmupSteps: 2, BaseLR: 2e-3,
					CkptInterval: 6, WorldSize: 2, RunRoot: "run",
					DedupCkpt: dedup, Strategy: tc.strategy(),
				}
				b := storage.NewMem()
				train := func(b storage.Backend, cfg Config) {
					t.Helper()
					tr, err := New(cfg, b)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := tr.Run(); err != nil {
						t.Fatal(err)
					}
				}
				train(b, cfg)
				merge := func(output string) (*recipe.Recipe, map[string][]byte) {
					t.Helper()
					rec, err := recipe.FromManifests(b, "run", 0, cfg.Model, output)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := tailor.Merge(b, rec, tailor.Options{}); err != nil {
						t.Fatal(err)
					}
					files := map[string][]byte{}
					for _, name := range []string{"model.ltsf", ckpt.ShardFileName(0), ckpt.ShardFileName(1)} {
						data, err := b.ReadFile(output + "/" + name)
						if err != nil {
							t.Fatal(err)
						}
						files[name] = data
					}
					rec.Output = ""
					return rec, files
				}
				before, beforeFiles := merge("before/checkpoint-60")

				rep, err := ckpt.Retain(b, "run", tc.keepLast, false)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Removed) == 0 || len(rep.Holders) == 0 {
					t.Fatalf("retention removed %v and held back %v: the run tests nothing", rep.Removed, rep.Holders)
				}
				after, afterFiles := merge("after/checkpoint-60")
				if !reflect.DeepEqual(before, after) {
					t.Fatalf("retention changed the recipe:\nbefore %+v\nafter  %+v", before, after)
				}
				for name, data := range beforeFiles {
					if !bytes.Equal(data, afterFiles[name]) {
						t.Errorf("%s differs after retention", name)
					}
				}

				hooked := storage.NewMem()
				cfg.Strategy, cfg.KeepLast = tc.strategy(), tc.keepLast
				train(hooked, cfg)
				rec, err := recipe.FromManifests(hooked, "run", 0, cfg.Model, "")
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rec, before) {
					t.Fatalf("KeepLast run recovers another recipe:\nwant %+v\ngot  %+v", before, rec)
				}
			})
		}
	}
}
