// Command trainsim runs the simulated LLM post-training substrate: a real
// AdamW optimization of a synthetic layered objective, producing checkpoint
// directories with the same anatomy as DeepSpeed ZeRO-3 runs (consolidated
// weights + per-rank optimizer shards + config/trainer-state/manifest).
//
// Example (train, crash at step 52, leaving parity partial checkpoints):
//
//	trainsim -root /tmp/runs -run sft -model qwen2.5-7b -task sft \
//	         -steps 96 -interval 6 -strategy parity -fail-at 52
//
// Then merge with:
//
//	llmtailor gen-recipe -root /tmp/runs -run sft -model qwen2.5-7b \
//	          -fail-step 48 -output sft/merged -write recipe.yaml
//	llmtailor merge -root /tmp/runs -recipe recipe.yaml
//
// And resume by re-running trainsim with -resume sft/merged.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"llmtailor"
	"llmtailor/internal/ckpt"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/storage"
	"llmtailor/internal/train"
)

func main() {
	root := flag.String("root", "", "storage root directory")
	runRoot := flag.String("run", "run", "run root under the storage root")
	modelName := flag.String("model", "llama3.2-1b", "model preset")
	sim := flag.Bool("sim", true, "train the scaled simulation geometry")
	taskName := flag.String("task", "sft", "task profile: sft or cpt")
	steps := flag.Int("steps", 96, "total optimizer steps")
	warmup := flag.Int("warmup", 5, "warmup steps")
	lr := flag.Float64("lr", 2e-3, "base learning rate")
	interval := flag.Int("interval", 6, "checkpoint interval in steps")
	strategyName := flag.String("strategy", "full", "checkpoint strategy: full, parity, filter, delta-topk")
	worldSize := flag.Int("world-size", 2, "simulated rank count for optimizer sharding")
	seed := flag.Uint64("seed", 42, "run seed")
	failAt := flag.Int("fail-at", 0, "simulate a crash right after this step (0 = none)")
	resume := flag.String("resume", "", "resume from this complete checkpoint directory")
	dedup := flag.Bool("dedup", false, "save checkpoints content-addressed: payloads dedup against the run root's objects/ store, so unchanged layers cost zero bytes")
	keepLast := flag.Int("keep-last", 0, "retain only the newest N committed checkpoints, retiring older generations (and their blobs) after each save (0 = keep all)")
	lazy := flag.Bool("lazy-capture", false, "capture checkpoints lazily layer by layer, overlapped with the next step; with -dedup, unchanged layers are recognized before any byte moves (implies async saving)")
	objstore := flag.Bool("objstore", false, "run against an ephemeral in-process object store (flat namespace, no-rename commit protocol, retrying PUTs) instead of -root")
	objLatency := flag.Duration("objstore-latency", 0, "with -objstore: per-operation request latency injected into the object store")
	shards := flag.Int("shards", 0, "with -dedup: digest-shard the run's blob store across N prefix shards (0 = flat layout)")
	hubRoot := flag.String("hub", "", "with -dedup: attach the run to this checkpoint hub before training — payloads dedup against every run sharing the hub, not just this run's history (the hub is created if absent; -shards lays out ITS store)")
	codec := flag.String("codec", "", "with -dedup: blob compression codec — raw, plane (byte-plane split + RLE), or xor (delta changed layers against the previous checkpoint)")
	codecRebase := flag.Int("codec-rebase", 0, "with -codec xor: re-base a slot to a full plane blob when its parent chain would exceed this depth (0 = default)")
	reshardEvery := flag.Int("reshard-every", 0, "elastic-resume scenario: every N steps (a multiple of -interval), stop, reshard the latest committed checkpoint to the next world size from -reshard-worlds and resume from it (0 = off)")
	reshardWorlds := flag.String("reshard-worlds", "", "with -reshard-every: comma-separated world-size schedule cycled through at each resize (e.g. \"3,2,4\")")
	flag.Parse()

	if err := run(*root, *runRoot, *modelName, *sim, *taskName, *steps, *warmup, *lr,
		*interval, *strategyName, *worldSize, *seed, *failAt, *resume, *dedup, *keepLast, *lazy,
		*objstore, *objLatency, *shards, *hubRoot, *codec, *codecRebase, *reshardEvery, *reshardWorlds); err != nil {
		fmt.Fprintln(os.Stderr, "trainsim:", err)
		os.Exit(1)
	}
}

func run(root, runRoot, modelName string, sim bool, taskName string,
	steps, warmup int, lr float64, interval int, strategyName string,
	worldSize int, seed uint64, failAt int, resume string, dedup bool, keepLast int,
	lazy bool, objstore bool, objLatency time.Duration, shards int, hubRoot string,
	codec string, codecRebase int, reshardEvery int, reshardWorlds string) error {

	var b llmtailor.Backend
	var retry *storage.Retry
	if objstore {
		// Ephemeral remote-store simulation: every write is an object PUT,
		// commits publish by marker appearance, and transient request
		// failures are absorbed by the retry wrapper.
		obj := storage.NewObjStore()
		obj.SetLatency(objLatency, 0)
		retry = storage.NewRetry(obj, int64(seed))
		b = retry
	} else {
		if root == "" {
			return fmt.Errorf("missing -root (or use -objstore)")
		}
		var err error
		b, err = llmtailor.OpenDir(root)
		if err != nil {
			return err
		}
	}
	if shards > 0 && !dedup {
		return fmt.Errorf("-shards requires -dedup (it lays out the blob store)")
	}
	if hubRoot != "" {
		// Hub-attached run: the shared store is laid out at the hub, and the
		// run's objects/ becomes a redirect into it. Init is idempotent, so
		// a fleet of trainsims pointed at one hub all converge on it.
		if !dedup {
			return fmt.Errorf("-hub requires -dedup (only content-addressed saves share a hub store)")
		}
		h := llmtailor.NewStore(b).Hub(hubRoot)
		if err := h.Init(llmtailor.HubOptions{Shards: shards}); err != nil {
			return err
		}
		if err := h.Attach(runRoot, ""); err != nil {
			return err
		}
	} else if shards > 0 {
		if err := storage.InitShards(b, runRoot+"/"+ckpt.ObjectsDirName, shards); err != nil {
			return err
		}
	}
	cfg, err := modelcfg.ByName(modelName)
	if err != nil {
		return err
	}
	trueCfg := cfg
	if sim {
		cfg = cfg.DefaultSimScale()
	}
	task, err := train.TaskByName(taskName)
	if err != nil {
		return err
	}
	strat, err := llmtailor.StrategyByName(strategyName)
	if err != nil {
		return err
	}

	tc := train.Config{
		Model: cfg, Seed: seed, Task: task,
		TotalSteps: steps, WarmupSteps: warmup, BaseLR: lr,
		CkptInterval: interval, Strategy: strat,
		WorldSize: worldSize, RunRoot: runRoot, FailAt: failAt,
		DedupCkpt: dedup, KeepLast: keepLast, LazyCapture: lazy,
		CkptCodec: codec, CkptCodecRebase: codecRebase,
	}

	var tr *train.Trainer
	var res *train.Result
	if reshardEvery > 0 {
		if resume != "" {
			return fmt.Errorf("-reshard-every cannot be combined with -resume")
		}
		tr, res, err = runElastic(tc, b, trueCfg, reshardEvery, reshardWorlds)
		if err != nil {
			return err
		}
	} else {
		if resume != "" {
			tr, err = resumeFrom(tc, b, resume)
			if err != nil {
				return err
			}
			fmt.Printf("resumed from %s at step %d\n", resume, tr.Step())
		} else {
			tr, err = llmtailor.NewTrainer(tc, b)
			if err != nil {
				return err
			}
		}
		tr.SetTrueConfig(trueCfg)
		res, err = tr.Run()
		if err != nil {
			return err
		}
	}
	fmt.Printf("model %s (%s geometry), task %s, strategy %s\n", cfg.Name, geom(sim), task.Name, strat.Name())
	fmt.Printf("steps: %d  final loss: %.4f  final eval loss: %.4f\n",
		res.FinalStep, res.FinalLoss, res.FinalEvalLoss)
	if res.Failed {
		fmt.Printf("CRASHED at step %d (simulated failure)\n", res.FinalStep)
	}
	var bytes int64
	for _, ev := range res.Ckpts {
		bytes += ev.TrueBytes
	}
	fmt.Printf("checkpoints: %d (%.2f GB at true %s geometry)\n",
		len(res.Ckpts), modelcfg.GB(bytes), trueCfg.Name)
	var retired int
	var freed int64
	for _, ev := range res.Ckpts {
		kind := "full"
		if ev.Partial {
			kind = fmt.Sprintf("partial:%d layers", len(ev.Layers))
		}
		fmt.Printf("  %-28s %-18s %8.2f GB\n", ev.Dir, kind, modelcfg.GB(ev.TrueBytes))
		retired += len(ev.Retired)
		freed += ev.BlobBytesFreed
	}
	if keepLast > 0 {
		fmt.Printf("retention: kept newest %d, retired %d checkpoints (%d blob bytes freed)\n",
			keepLast, retired, freed)
	}
	if objstore {
		fmt.Printf("object store: %d transient PUTs retried\n", retry.Retries())
	}
	if shards > 0 {
		fmt.Printf("blob store layout: %d digest-prefix shards\n", shards)
	}
	if hubRoot != "" {
		if _, id, err := llmtailor.NewStore(b).Run(runRoot).HubAttachment(); err == nil {
			fmt.Printf("hub: saves deduped into %s as %q\n", hubRoot, id)
		}
	}
	if codec != "" && codec != "raw" {
		fmt.Printf("blob codec: %s\n", codec)
	}
	if lazy {
		cs := res.Capture
		fmt.Printf("lazy capture: %d saves, %d layers gen-reused, %d payloads spooled / %d referenced\n",
			cs.Saves, cs.LayersReused, cs.PayloadsSpooled, cs.PayloadsReferenced)
		fmt.Printf("  bytes hashed %d, spooled %d, referenced %d; stall %.2fms; spool peak %d\n",
			cs.BytesHashed, cs.BytesSpooled, cs.BytesReferenced,
			float64(cs.StallNs)/1e6, cs.SpoolPeakBytes)
	}
	return nil
}

func geom(sim bool) string {
	if sim {
		return "scaled-sim"
	}
	return "true"
}

// resumeFrom continues training from a checkpoint directory given as a
// path under the storage root (its parent is the run handle's root).
func resumeFrom(tc train.Config, b llmtailor.Backend, dir string) (*train.Trainer, error) {
	dir = strings.TrimSuffix(dir, "/")
	root, name := "", dir
	if i := strings.LastIndexByte(dir, '/'); i >= 0 {
		root, name = dir[:i], dir[i+1:]
	}
	return llmtailor.NewStore(b).Run(root).ResumeFrom(tc, name)
}

// runElastic drives the elastic-resume scenario: train in segments of
// `every` steps, and between segments repartition the latest committed
// checkpoint to the next world size from the schedule (via the same
// transform `llmtailor reshard` exposes) and resume from the resharded
// output. The aggregated result spans all segments.
func runElastic(tc train.Config, b llmtailor.Backend, trueCfg *modelcfg.Config,
	every int, worldsSpec string) (*train.Trainer, *train.Result, error) {

	if every%tc.CkptInterval != 0 {
		return nil, nil, fmt.Errorf("-reshard-every %d must be a multiple of -interval %d (segments end on a committed checkpoint)", every, tc.CkptInterval)
	}
	var worlds []int
	for _, s := range strings.Split(worldsSpec, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		w, err := strconv.Atoi(s)
		if err != nil || w < 1 {
			return nil, nil, fmt.Errorf("-reshard-worlds: bad world size %q", s)
		}
		worlds = append(worlds, w)
	}
	if len(worlds) == 0 {
		return nil, nil, fmt.Errorf("-reshard-every requires -reshard-worlds (e.g. \"3,2,4\")")
	}

	total := tc.TotalSteps
	tc.FailAt = every
	if tc.FailAt >= total {
		tc.FailAt = 0
	}
	tr, err := llmtailor.NewTrainer(tc, b)
	if err != nil {
		return nil, nil, err
	}
	tr.SetTrueConfig(trueCfg)

	agg := &train.Result{}
	for seg := 0; ; seg++ {
		res, err := tr.Run()
		if err != nil {
			return nil, nil, err
		}
		agg.History = append(agg.History, res.History...)
		agg.Ckpts = append(agg.Ckpts, res.Ckpts...)
		agg.FinalStep, agg.FinalLoss = res.FinalStep, res.FinalLoss
		agg.FinalEvalLoss, agg.Capture = res.FinalEvalLoss, res.Capture
		if !res.Failed {
			return tr, agg, nil
		}

		latest, err := ckpt.Latest(b, tc.RunRoot)
		if err != nil {
			return nil, nil, fmt.Errorf("elastic: no committed checkpoint to reshard: %w", err)
		}
		next := worlds[seg%len(worlds)]
		out := fmt.Sprintf("%s-w%d", latest, next)
		stats, err := llmtailor.NewStore(b).Reshard(latest, out, next, llmtailor.ReshardOptions{
			Workers: 2, Dedup: tc.DedupCkpt,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("elastic: reshard %s to world %d: %w", latest, next, err)
		}
		fmt.Printf("elastic: resharded %s (world %d -> %d, %d/%d groups raw-copied) -> %s\n",
			latest, stats.WorldFrom, stats.WorldTo, stats.GroupsRawCopied, stats.Groups, out)

		tc.WorldSize = next
		tc.FailAt += every
		if tc.FailAt >= total {
			tc.FailAt = 0
		}
		tr, err = resumeFrom(tc, b, out)
		if err != nil {
			return nil, nil, fmt.Errorf("elastic: resume from %s: %w", out, err)
		}
		tr.SetTrueConfig(trueCfg)
		fmt.Printf("elastic: resumed at step %d with world size %d\n", tr.Step(), next)
	}
}
