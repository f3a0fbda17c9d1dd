// Filter strategy (paper use case 2, §5.3) at simulation scale: the
// Llama-3.1-8B CPT arm. The filter policy saves the first 2 and last 2
// transformer layers every checkpoint and an alternating half of the middle
// layers (plus embeddings/head) every 5th checkpoint — cutting storage about
// 4.3× at the cost of a slightly larger recovery transient.
//
// Run with: go run ./examples/filter_strategy
package main

import (
	"fmt"
	"log"

	"llmtailor"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/train"
)

func main() {
	trueCfg, err := llmtailor.ModelByName("llama3.1-8b")
	if err != nil {
		log.Fatal(err)
	}
	cfg := trueCfg.DefaultSimScale()
	task, _ := train.TaskByName("cpt")

	base := llmtailor.TrainerConfig{
		Model: cfg, Seed: 21, Task: task,
		TotalSteps: 128, WarmupSteps: 4, BaseLR: 2e-3,
		CkptInterval: 8, WorldSize: 2, RunRoot: "run",
	}

	// Baseline.
	bA := llmtailor.NewMemBackend()
	trA, err := llmtailor.NewTrainer(base, bA)
	if err != nil {
		log.Fatal(err)
	}
	resA, err := trA.Run()
	if err != nil {
		log.Fatal(err)
	}

	// Filter arm: crash after step 85.
	bB := llmtailor.NewMemBackend()
	cfgB := base
	cfgB.Strategy, _ = llmtailor.StrategyByName("filter")
	cfgB.FailAt = 85
	trB, err := llmtailor.NewTrainer(cfgB, bB)
	if err != nil {
		log.Fatal(err)
	}
	trB.SetTrueConfig(trueCfg)
	resB, err := trB.Run()
	if err != nil {
		log.Fatal(err)
	}
	var partialBytes int64
	for _, ev := range resB.Ckpts {
		partialBytes += ev.TrueBytes
		fmt.Printf("  %s: %d layers (%.2f GB true geometry)\n",
			ev.Dir, len(ev.Layers), modelcfg.GB(ev.TrueBytes))
	}

	// The filter run's manifests are scattered across many checkpoints;
	// the auto-generated recipe stitches the newest copy of every layer.
	rec, err := llmtailor.RecipeFromManifests(bB, "run", 80, cfg, "run/merged")
	if err != nil {
		log.Fatal(err)
	}
	stats, err := llmtailor.Merge(bB, rec, llmtailor.MergeOptions{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmerged from %d source checkpoints (%d shard loads)\n",
		stats.CheckpointsUsed, stats.ShardFileLoads)

	trC, err := llmtailor.NewStore(bB).Run("run").ResumeFrom(base, "merged")
	if err != nil {
		log.Fatal(err)
	}
	resC, err := trC.Run()
	if err != nil {
		log.Fatal(err)
	}

	fullBytes := int64(len(resB.Ckpts)) * trueCfg.FullCkptBytes()
	fmt.Println("\nUse case 2 (filter), Llama-3.1-8B CPT profile at sim scale")
	fmt.Printf("%-36s final loss %.4f  eval %.4f\n", "original (no failure):", resA.FinalLoss, resA.FinalEvalLoss)
	fmt.Printf("%-36s final loss %.4f  eval %.4f\n", "filtered merge (crash at 85):", resC.FinalLoss, resC.FinalEvalLoss)
	fmt.Printf("storage reduction: %.1fx (%.2f GB vs %.2f GB)\n",
		float64(fullBytes)/float64(partialBytes),
		modelcfg.GB(partialBytes), modelcfg.GB(fullBytes))
}
