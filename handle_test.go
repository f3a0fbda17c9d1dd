package llmtailor_test

import (
	"io"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"llmtailor"
	"llmtailor/internal/ckpt"
	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/strategy"
	"llmtailor/internal/tensor"
	"llmtailor/internal/train"
)

// trainerCfg builds a short dedup trainer config for one run root.
func trainerCfg(t *testing.T, root string, steps int) llmtailor.TrainerConfig {
	t.Helper()
	mc, err := llmtailor.ModelByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	task, err := train.TaskByName("sft")
	if err != nil {
		t.Fatal(err)
	}
	return llmtailor.TrainerConfig{Model: mc, Task: task, Seed: 11,
		TotalSteps: steps, BaseLR: 2e-3, CkptInterval: 2, WorldSize: 2,
		RunRoot: root, DedupCkpt: true}
}

// trainAndSave produces a short dedup run under root using the simulated
// trainer, returning the checkpoint directories.
func trainAndSave(t *testing.T, b llmtailor.Backend, root string, steps int) []string {
	t.Helper()
	tr, err := llmtailor.NewTrainer(trainerCfg(t, root, steps), b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	dirs, err := llmtailor.NewStore(b).Run(root).List()
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no checkpoints: %v, %v", dirs, err)
	}
	return dirs
}

// TestRunHandleDelegation: the run handle's views and maintenance entry
// points over one short dedup run.
func TestRunHandleDelegation(t *testing.T) {
	b := llmtailor.NewMemBackend()
	trainAndSave(t, b, "run", 6)
	run := llmtailor.NewStore(b).Run("run")

	latest, err := run.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if dirs, err := run.List(); err != nil || len(dirs) == 0 || dirs[len(dirs)-1] != latest {
		t.Fatalf("latest %q is not the newest of %v (%v)", latest, dirs, err)
	}

	scan, err := run.Scan(llmtailor.ScanOptions{Blobs: true, Refs: true, Codecs: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Dirs) == 0 || len(scan.Blobs) == 0 || len(scan.Refs) == 0 || len(scan.Codecs) == 0 {
		t.Fatalf("scan views empty: %d dirs %d blobs %d refs %d codecs",
			len(scan.Dirs), len(scan.Blobs), len(scan.Refs), len(scan.Codecs))
	}

	// The scan defaults leave unrequested views nil.
	lean, err := run.Scan(llmtailor.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lean.Blobs != nil || lean.Refs != nil || lean.Codecs != nil {
		t.Fatalf("unrequested views populated: %+v", lean)
	}

	// GC flavours through one entry point.
	dry, err := run.GC(llmtailor.GCOptions{Full: true, DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := run.GC(llmtailor.GCOptions{Full: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.RemovedBlobs) != len(dry.RemovedBlobs) {
		t.Fatalf("dry-run/full disagree: %d vs %d", len(dry.RemovedBlobs), len(full.RemovedBlobs))
	}
	if _, err := run.GC(llmtailor.GCOptions{}); err != nil {
		t.Fatal(err)
	}

	rep, err := run.Retain(llmtailor.RetainOptions{KeepLast: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Removed) == 0 {
		t.Fatalf("retain kept everything: %+v", rep)
	}
	if _, err := run.Repair(); err != nil {
		t.Fatal(err)
	}
}

// supersedeOldest replaces a run's oldest checkpoint in place with new
// content, leaving its first journal record superseded.
func supersedeOldest(t *testing.T, b llmtailor.Backend, dir string) {
	t.Helper()
	cfg := modelcfg.Tiny()
	m, err := model.NewInitialized(cfg, tensor.BF16, 4242)
	if err != nil {
		t.Fatal(err)
	}
	o, err := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Save(b, ckpt.SaveSpec{Dir: dir, Model: m, Optim: o, WorldSize: 2,
		Strategy: "full", Dedup: true, State: ckpt.TrainerState{Step: 2, Seed: 4242}}); err != nil {
		t.Fatal(err)
	}
}

// putBytes stores a byte slice raw under its own digest, over the store's one
// put (the convenience BlobStore.PutBytes used to be).
func putBytes(s *storage.BlobStore, data []byte) (digest string, written bool, err error) {
	digest = storage.DigestBytes(data)
	res, err := s.PutStreamOpts(digest, storage.BlobPutOptions{}, func(w io.Writer) (int64, error) {
		n, err := w.Write(data)
		return int64(n), err
	})
	return digest, res.Written, err
}

// plantStoreFindings leaves, in the store serving objects, what interrupted
// operations leave behind: a garbage blob, blob-put staging residue (at
// stage), and trash of both fates — an unreferenced blob a crashed sweep
// would have purged, and the referenced blob live, which it must restore.
func plantStoreFindings(t *testing.T, b llmtailor.Backend, objects, stage, live string) *storage.BlobStore {
	t.Helper()
	store, err := storage.OpenCAS(b, objects)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := putBytes(store, []byte("plain garbage")); err != nil {
		t.Fatal(err)
	}
	junk, _, err := putBytes(store, []byte("trashed garbage"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{junk, live} {
		if err := store.Trash(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.WriteFile(stage+"/.stage/put-7", []byte("residue")); err != nil {
		t.Fatal(err)
	}
	return store
}

// firstWeightDigest returns a blob a checkpoint's weight manifest references.
func firstWeightDigest(t *testing.T, b llmtailor.Backend, dir string) string {
	t.Helper()
	wm, err := ckpt.ReadWeightManifest(b, dir+"/"+ckpt.WeightManifestName)
	if err != nil {
		t.Fatal(err)
	}
	return wm.Tensors[0].Digest
}

// normalizeReport copies a *GCReport with DryRun cleared and every string
// list sorted, the embedded sweep report's included, so a dry run and a real
// run compare field for field; work counts the removals and index fixes
// listed.
func normalizeReport(rep any) (norm any, work int) {
	out := reflect.New(reflect.TypeOf(rep).Elem()).Elem()
	out.Set(reflect.ValueOf(rep).Elem())
	work = normalizeFields(out)
	return out.Interface(), work
}

func normalizeFields(v reflect.Value) (work int) {
	for i := 0; i < v.NumField(); i++ {
		f, field := v.Field(i), v.Type().Field(i)
		switch l, ok := f.Interface().([]string); {
		case field.Anonymous:
			work += normalizeFields(f)
		case field.Name == "DryRun":
			f.SetBool(false)
		case ok:
			l = append([]string(nil), l...)
			sort.Strings(l)
			f.Set(reflect.ValueOf(l))
			if field.Name != "Retained" && field.Name != "Holders" && field.Name != "Runs" {
				work += len(l)
			}
		}
	}
	return work
}

// TestDryRunMatchesRealRun: every collecting policy computes its dry run
// and its real run through the same pin query and the same sweep driver,
// so on a root holding garbage, staging residue and trash of both fates
// the report a dry run returns must equal, field for field, what the real
// run then does; the dry run itself must change nothing, the real run must
// leave nothing for a second pass, and a policy that disposes of trash must
// have put the trashed referenced blob back.
func TestDryRunMatchesRealRun(t *testing.T) {
	type scenario struct {
		store    *storage.BlobStore
		live     string
		collect  func(dryRun bool) (any, error)
		trash    bool // the policy disposes of crashed-sweep trash
		spotless bool // afterwards every blob is referenced and every record OK
	}
	runRoot := func(t *testing.T, b llmtailor.Backend) (*llmtailor.Run, []string, *scenario) {
		dirs := trainAndSave(t, b, "run", 6)
		if len(dirs) < 3 {
			t.Fatalf("want >= 3 checkpoints, got %v", dirs)
		}
		supersedeOldest(t, b, dirs[0])
		live := firstWeightDigest(t, b, dirs[2])
		sc := &scenario{live: live, store: plantStoreFindings(t, b, "run/objects", "run/objects", live)}
		return llmtailor.NewStore(b).Run("run"), dirs, sc
	}
	rows := map[string]func(t *testing.T, b llmtailor.Backend) *scenario{
		// The full GC additionally finds a divergent and a missing record.
		"full gc": func(t *testing.T, b llmtailor.Backend) *scenario {
			run, dirs, sc := runRoot(t, b)
			ix := storage.NewRefIndex(b, "run/objects")
			entries, _, _, err := ix.Entries()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				switch e.Key {
				case ckpt.RefKey(dirs[1]):
					rec, err := ix.Read(e)
					if err != nil {
						t.Fatal(err)
					}
					rec.Digests = rec.Digests[:1]
					if err := ix.Append(rec); err != nil {
						t.Fatal(err)
					}
				case ckpt.RefKey(dirs[2]):
					if err := ix.Remove(e); err != nil {
						t.Fatal(err)
					}
				}
			}
			sc.trash, sc.spotless = true, true
			sc.collect = func(dryRun bool) (any, error) {
				return run.GC(llmtailor.GCOptions{Full: true, DryRun: dryRun})
			}
			return sc
		},
		// The generational GC retires the superseded record; a crashed
		// record append left residue in the journal too.
		"generational gc": func(t *testing.T, b llmtailor.Backend) *scenario {
			run, _, sc := runRoot(t, b)
			if err := b.WriteFile("run/objects/refs/gen-000000000099-checkpoint-9.ref.tmp", []byte("torn")); err != nil {
				t.Fatal(err)
			}
			sc.trash = true
			sc.collect = func(dryRun bool) (any, error) { return run.GC(llmtailor.GCOptions{DryRun: dryRun}) }
			return sc
		},
		// Retention sweeps its victims' blobs only: garbage, residue and
		// trash are not its to touch, in either mode.
		"retain": func(t *testing.T, b llmtailor.Backend) *scenario {
			run, _, sc := runRoot(t, b)
			sc.collect = func(dryRun bool) (any, error) {
				return run.Retain(llmtailor.RetainOptions{KeepLast: 1, DryRun: dryRun})
			}
			return sc
		},
		// Retention over partial checkpoints holds back the newest holder
		// of each layer in either mode.
		"retain partial": func(t *testing.T, b llmtailor.Backend) *scenario {
			cfg := trainerCfg(t, "run", 8)
			cfg.Strategy = strategy.Parity{}
			tr, err := llmtailor.NewTrainer(cfg, b)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Run(); err != nil {
				t.Fatal(err)
			}
			run := llmtailor.NewStore(b).Run("run")
			dirs, err := run.List()
			if err != nil || len(dirs) != 4 {
				t.Fatalf("want 4 checkpoints, got %v (%v)", dirs, err)
			}
			live := firstWeightDigest(t, b, dirs[3])
			sc := &scenario{live: live, store: plantStoreFindings(t, b, "run/objects", "run/objects", live)}
			sc.collect = func(dryRun bool) (any, error) {
				rep, err := run.Retain(llmtailor.RetainOptions{KeepLast: 1, DryRun: dryRun})
				if err == nil && !reflect.DeepEqual(rep.Holders, dirs[2:3]) {
					t.Fatalf("retention held back %v, want %v", rep.Holders, dirs[2:3])
				}
				return rep, err
			}
			return sc
		},
		"hub gc": func(t *testing.T, b llmtailor.Backend) *scenario {
			hub := llmtailor.NewStore(b).Hub("hub")
			if err := hub.Init(llmtailor.HubOptions{Shards: 2}); err != nil {
				t.Fatal(err)
			}
			for _, r := range []string{"runs/a", "runs/b"} {
				if err := hub.Attach(r, ""); err != nil {
					t.Fatal(err)
				}
			}
			trainAndSave(t, b, "runs/a", 4)
			dirs := trainAndSave(t, b, "runs/b", 6)
			live := firstWeightDigest(t, b, dirs[len(dirs)-1])
			return &scenario{live: live, trash: true,
				store:   plantStoreFindings(t, b, "hub/objects", "hub/objects/shard-0", live),
				collect: func(dryRun bool) (any, error) { return hub.GC(dryRun) }}
		},
	}
	for name, build := range rows {
		t.Run(name, func(t *testing.T) {
			b := llmtailor.NewMemBackend()
			sc := build(t, b)
			collect := func(dryRun bool) (any, int) {
				t.Helper()
				rep, err := sc.collect(dryRun)
				if err != nil {
					t.Fatal(err)
				}
				return normalizeReport(rep)
			}
			dry, work := collect(true)
			if work == 0 {
				t.Fatalf("dry run finds nothing to do: %+v", dry)
			}
			if again, _ := collect(true); !reflect.DeepEqual(dry, again) {
				t.Fatalf("dry run mutated the root:\nfirst  %+v\nsecond %+v", dry, again)
			}
			if real, _ := collect(false); !reflect.DeepEqual(dry, real) {
				t.Fatalf("dry run disagrees with the real run:\ndry  %+v\nreal %+v", dry, real)
			}
			if after, work := collect(true); work != 0 {
				t.Fatalf("second pass still finds work: %+v", after)
			}
			trash, err := sc.store.ListTrash()
			if err != nil {
				t.Fatal(err)
			}
			if sc.trash && (len(trash) != 0 || !sc.store.Has(sc.live)) {
				t.Fatalf("trash not settled: %v left, referenced blob restored: %v", trash, sc.store.Has(sc.live))
			}
			if !sc.trash && len(trash) != 2 {
				t.Fatalf("policy touched trash that is not its to settle: %v", trash)
			}
			if !sc.spotless {
				return
			}
			scan, err := llmtailor.NewStore(b).Run("run").Scan(llmtailor.ScanOptions{Blobs: true, Refs: true, Codecs: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, bs := range scan.Blobs {
				if bs.State != llmtailor.BlobReferenced {
					t.Fatalf("blob %s is %v after gc", bs.Path, bs.State)
				}
			}
			for _, rs := range scan.Refs {
				if rs.State != llmtailor.RefOK {
					t.Fatalf("record %s is %v after gc", rs.Path, rs.State)
				}
			}
		})
	}
}

// TestReshardDedupInsideXorRunSurvivesRetention drives the Dedupify-on-xor
// scenario through the product path: a resharded output converted inside an
// xor-coded run root dedup-hits the run's delta-coded weight blobs, so its
// journal record and manifests must carry their ancestor chains — after
// retention drops every native generation the output still restores bit for
// bit and every doctor view is clean.
func TestReshardDedupInsideXorRunSurvivesRetention(t *testing.T) {
	b := llmtailor.NewMemBackend()
	cfg := modelcfg.Tiny()
	m, err := model.NewInitialized(cfg, tensor.BF16, 77)
	if err != nil {
		t.Fatal(err)
	}
	o, err := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	save := func(step int) {
		t.Helper()
		if err := ckpt.Save(b, ckpt.SaveSpec{Dir: "run/" + ckpt.DirName(step), Model: m, Optim: o,
			WorldSize: 3, Strategy: "full", Dedup: true, Codec: "xor",
			State: ckpt.TrainerState{Step: step, Seed: 77}}); err != nil {
			t.Fatal(err)
		}
	}
	save(100)
	// A small training step on one layer: its payloads land as xor deltas
	// against the step-100 blobs.
	for gi, g := range o.Layout.Groups {
		if g.HasLayer && g.Layer == modelcfg.Block(1) {
			for k := 0; k < len(o.States[gi].Master); k += 97 {
				o.States[gi].Master[k] += 1e-2
			}
		}
	}
	if err := o.SyncModelFromMaster(); err != nil {
		t.Fatal(err)
	}
	save(200)

	run := llmtailor.NewStore(b).Run("run")
	stats, err := run.Reshard(ckpt.DirName(200), ckpt.DirName(300), 2, llmtailor.ReshardOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlobsReused == 0 {
		t.Fatalf("resharded output deduplicated nothing: %+v", stats)
	}
	cs, err := ckpt.ReadCodecStats(b, "run/"+ckpt.DirName(300))
	if err != nil {
		t.Fatal(err)
	}
	if cs.Entries["xor-parent"] == 0 {
		t.Fatalf("output manifests do not record the xor blobs they reference: %+v", cs)
	}
	ret, err := run.Retain(llmtailor.RetainOptions{KeepLast: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ret.Removed) != 2 {
		t.Fatalf("retain removed %v, want both native generations", ret.Removed)
	}
	rm, ro, c, err := ckpt.Restore(b, "run/"+ckpt.DirName(300), tensor.BF16)
	if err != nil {
		t.Fatalf("restore of the kept output: %v", err)
	}
	if c.State.WorldSize != 2 || !model.Equal(rm, m) {
		t.Fatal("kept output does not restore to the source weights")
	}
	for gi := range o.States {
		if !reflect.DeepEqual(ro.States[gi].Master, o.States[gi].Master) ||
			!reflect.DeepEqual(ro.States[gi].ExpAvg, o.States[gi].ExpAvg) ||
			!reflect.DeepEqual(ro.States[gi].ExpAvgSq, o.States[gi].ExpAvgSq) {
			t.Fatalf("kept output's optimizer group %d differs from the source state", gi)
		}
	}
	scan, err := run.Scan(llmtailor.ScanOptions{Blobs: true, Refs: true, Codecs: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range scan.Dirs {
		if ds.State != llmtailor.StateCommitted {
			t.Fatalf("%s is %v", ds.Path, ds.State)
		}
	}
	for _, bs := range scan.Blobs {
		if bs.State != llmtailor.BlobReferenced {
			t.Fatalf("blob %s is %v after retention", bs.Path, bs.State)
		}
	}
	for _, rs := range scan.Refs {
		if rs.State != llmtailor.RefOK {
			t.Fatalf("record %s is %v after retention", rs.Path, rs.State)
		}
	}
	for _, h := range scan.Codecs {
		if len(h.MissingParents) != 0 {
			t.Fatalf("%s reports missing parents: %v", h.Dir, h.MissingParents)
		}
	}
}

// TestRunShardsErrorSurfaced: the Shards method distinguishes a flat
// layout (0, nil) from a store that cannot open.
func TestRunShardsErrorSurfaced(t *testing.T) {
	b := llmtailor.NewMemBackend()
	run := llmtailor.NewStore(b).Run("run")
	if n, err := run.Shards(); n != 0 || err != nil {
		t.Fatalf("flat layout: %d, %v", n, err)
	}
	if err := storage.InitShards(b, "run/objects", 8); err != nil {
		t.Fatal(err)
	}
	if n, err := run.Shards(); n != 8 || err != nil {
		t.Fatalf("sharded layout: %d, %v", n, err)
	}
	// Corrupt shards.json is a configuration problem, not a flat layout.
	if err := b.WriteFile("run/objects/"+storage.ShardConfigName, []byte("not json")); err != nil {
		t.Fatal(err)
	}
	if _, err := run.Shards(); err == nil {
		t.Fatal("Shards swallowed the corrupt shards.json")
	}
}

// TestHubHandleEndToEnd drives the public hub surface: init, attach two
// trainer runs, cross-run dedup, stat, GC, detach.
func TestHubHandleEndToEnd(t *testing.T) {
	b := llmtailor.NewMemBackend()
	st := llmtailor.NewStore(b)
	hub := st.Hub("hub")
	if err := hub.Init(llmtailor.HubOptions{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"runs/a", "runs/b"} {
		if err := hub.Attach(r, ""); err != nil {
			t.Fatal(err)
		}
	}
	trainAndSave(t, b, "runs/a", 4)
	trainAndSave(t, b, "runs/b", 4)

	hubRoot, id, err := st.Run("runs/a").HubAttachment()
	if err != nil || hubRoot != "hub" || id != "a" {
		t.Fatalf("attachment = %q %q %v", hubRoot, id, err)
	}

	info, err := hub.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Runs) != 2 || info.Shards != 4 || info.Blobs == 0 {
		t.Fatalf("stat = %+v", info)
	}

	// Identical seeds: run B's saves dedup against run A's blobs, so the
	// store holds far less than two runs' worth.
	var runPins int
	for _, r := range info.Runs {
		if r.Referenced > runPins {
			runPins = r.Referenced
		}
	}
	if info.Blobs >= 2*runPins {
		t.Fatalf("no cross-run dedup: %d blobs for max %d per-run refs", info.Blobs, runPins)
	}

	if _, err := hub.GC(false); err != nil {
		t.Fatal(err)
	}
	// Both runs still resume from the shared store after the sweep.
	for _, r := range []string{"runs/a", "runs/b"} {
		if _, err := st.Run(r).Resume(trainerCfg(t, r, 6)); err != nil {
			t.Fatalf("resume %s: %v", r, err)
		}
	}

	if err := hub.Detach("runs/b", false); err == nil ||
		!strings.Contains(err.Error(), "force") {
		t.Fatalf("detach with live refs: %v", err)
	}
	if err := hub.Detach("runs/b", true); err != nil {
		t.Fatal(err)
	}
	if hubRoot, _, err := st.Run("runs/b").HubAttachment(); err != nil || hubRoot != "" {
		t.Fatalf("still attached after detach: %q, %v", hubRoot, err)
	}
}

// TestMaterializeOptionsDelegation: content-addressing an existing plain
// checkpoint (a same-world reshard with Dedup, the sanctioned route) and
// materialization through the run handle round-trip the plain containers bit
// for bit.
func TestMaterializeOptionsDelegation(t *testing.T) {
	b := llmtailor.NewMemBackend()
	cfg := trainerCfg(t, "run", 2)
	cfg.DedupCkpt = false
	tr, err := llmtailor.NewTrainer(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	run := llmtailor.NewStore(b).Run("run")
	dirs, err := run.List()
	if err != nil || len(dirs) == 0 {
		t.Fatal(err)
	}
	name := dirs[len(dirs)-1][len("run/"):]
	origWeights, _ := b.ReadFile("run/" + name + "/model.ltsf")
	origShard0, _ := b.ReadFile("run/" + name + "/zero/rank_00_optim_states.ltos")
	rep, err := run.Reshard(name, name+"-cas", cfg.WorldSize, llmtailor.ReshardOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlobsPut == 0 || b.Exists("run/"+name+"-cas/model.ltsf") {
		t.Fatalf("the reshard output is not content-addressed: %+v", rep)
	}
	name += "-cas"
	// Materialize through the handle round-trips the container.
	if err := run.MaterializeWeights(name, "out/model.ltsf", llmtailor.MaterializeOptions{}); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.ReadFile("out/model.ltsf"); len(got) == 0 || string(got) != string(origWeights) {
		t.Fatal("materialized weights differ from the original container")
	}
	if err := run.MaterializeOptimShard(name, 0, "out/shard0.ltos", llmtailor.MaterializeOptions{}); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.ReadFile("out/shard0.ltos"); len(got) == 0 || string(got) != string(origShard0) {
		t.Fatal("materialized shard differs from the original container")
	}
}

// requestCounter counts the three requests the run catalog exists to share:
// listings of one run root, commit-marker reads and manifest reads.
type requestCounter struct {
	llmtailor.Backend
	root                      string
	lists, markers, manifests atomic.Int64 // manifests are fetched side by side
}

func (c *requestCounter) get(name string) {
	switch {
	case strings.HasSuffix(name, "/"+ckpt.CommitMarkerName):
		c.markers.Add(1)
	case strings.HasSuffix(name, ".ltmf"), strings.HasSuffix(name, ".ltom"):
		c.manifests.Add(1)
	}
}

func (c *requestCounter) List(dir string) ([]string, error) {
	if dir == c.root {
		c.lists.Add(1)
	}
	return c.Backend.List(dir)
}

func (c *requestCounter) ReadFile(name string) ([]byte, error) {
	c.get(name)
	return c.Backend.ReadFile(name)
}

func (c *requestCounter) Open(name string) (io.ReadCloser, error) {
	c.get(name)
	return c.Backend.Open(name)
}

func (c *requestCounter) OpenRange(name string, off, n int64) (io.ReadCloser, error) {
	c.get(name)
	return c.Backend.OpenRange(name, off, n)
}

func (c *requestCounter) ReadAt(name string, off int64, p []byte) error {
	c.get(name)
	return c.Backend.ReadAt(name, off, p)
}

// TestCatalogRequestFloor: over a healthy 6-checkpoint, 2-rank dedup run (18
// manifest files) every maintenance view reads the run root through one
// catalog — one listing, each marker and each manifest once.
func TestCatalogRequestFloor(t *testing.T) {
	b := llmtailor.NewMemBackend()
	if dirs := trainAndSave(t, b, "run", 12); len(dirs) != 6 {
		t.Fatalf("fixture: %d checkpoints, want 6", len(dirs))
	}
	count := func(op func(run *llmtailor.Run) error) [3]int {
		t.Helper()
		c := &requestCounter{Backend: b, root: "run"}
		if err := op(llmtailor.NewStore(c).Run("run")); err != nil {
			t.Fatal(err)
		}
		return [3]int{int(c.lists.Load()), int(c.markers.Load()), int(c.manifests.Load())}
	}

	// The four-view doctor sits on the floor exactly (parent: 4 / 31 / 108).
	doctor := count(func(run *llmtailor.Run) error {
		_, err := run.Scan(llmtailor.ScanOptions{Blobs: true, Refs: true, Codecs: true})
		return err
	})
	if doctor != [3]int{1, 6, 18} {
		t.Errorf("doctor: %v run-root lists / marker reads / manifest reads, want [1 6 18]", doctor)
	}
	// Upper bounds for the rest: lists, marker reads, manifest reads.
	for _, tc := range []struct {
		name string
		most [3]int
		op   func(run *llmtailor.Run) error
	}{
		{"repair of a healthy root", [3]int{1, 6, 18}, // parent: 2 / 19 / 54
			func(run *llmtailor.Run) error { _, err := run.Repair(); return err }},
		{"dry retain keep-last 3", [3]int{1, 6, 0}, // parent: 2 / 7 / 0
			func(run *llmtailor.Run) error {
				rep, err := run.Retain(llmtailor.RetainOptions{KeepLast: 3, DryRun: true})
				if err == nil && len(rep.Removed) != 3 {
					t.Errorf("dry retain would remove %v, want 3 victims", rep.Removed)
				}
				return err
			}},
		{"latest through a good pointer", [3]int{0, 1, 0},
			func(run *llmtailor.Run) error { _, err := run.Latest(); return err }},
	} {
		got := count(tc.op)
		for i, what := range []string{"run-root lists", "marker reads", "manifest reads"} {
			if got[i] > tc.most[i] {
				t.Errorf("%s: %d %s, at most %d", tc.name, got[i], what, tc.most[i])
			}
		}
	}
}
