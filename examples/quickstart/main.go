// Quickstart: the complete LLMTailor loop in one file.
//
//  1. Train a tiny model, saving alternating partial checkpoints (parity).
//  2. Crash mid-run.
//  3. Auto-generate a merge recipe from the partial-checkpoint manifests.
//  4. Merge weights + optimizer state into a complete "Frankenstein"
//     checkpoint.
//  5. Resume training from it and finish the run.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"llmtailor"
	"llmtailor/internal/train"
)

func main() {
	back := llmtailor.NewMemBackend() // swap for llmtailor.OpenDir("...") on disk

	cfg, err := llmtailor.ModelByName("tiny")
	if err != nil {
		log.Fatal(err)
	}
	parity, err := llmtailor.StrategyByName("parity")
	if err != nil {
		log.Fatal(err)
	}

	// 1-2. Train with parity partial checkpoints; crash after step 34.
	task, _ := train.TaskByName("sft")
	tc := llmtailor.TrainerConfig{
		Model: cfg, Seed: 7, Task: task,
		TotalSteps: 60, WarmupSteps: 4, BaseLR: 2e-3,
		CkptInterval: 10, Strategy: parity, WorldSize: 2,
		RunRoot: "run", FailAt: 34,
	}
	tr, err := llmtailor.NewTrainer(tc, back)
	if err != nil {
		log.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crashed at step %d with loss %.4f\n", res.FinalStep, res.FinalLoss)
	for _, ev := range res.Ckpts {
		fmt.Printf("  saved %s (%d layers)\n", ev.Dir, len(ev.Layers))
	}

	// 3. Reconstruct the newest complete state from the partial manifests.
	rec, err := llmtailor.RecipeFromManifests(back, "run", 0, cfg, "run/merged")
	if err != nil {
		log.Fatal(err)
	}
	yaml, _ := rec.Marshal()
	fmt.Printf("\nauto-generated recipe:\n%s\n", yaml)

	// 4. Merge weights + optimizer shards + configs.
	stats, err := llmtailor.Merge(back, rec, llmtailor.MergeOptions{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merged %d checkpoints (%d shard loads) -> run/merged\n",
		stats.CheckpointsUsed, stats.ShardFileLoads)

	// 5. Resume and finish.
	tc.FailAt = 0
	tc.Strategy = nil // full checkpoints from here on
	tr2, err := llmtailor.NewStore(back).Run("run").ResumeFrom(tc, "merged")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nresumed at step %d\n", tr2.Step())
	res2, err := tr2.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("finished at step %d: loss %.4f, eval loss %.4f\n",
		res2.FinalStep, res2.FinalLoss, res2.FinalEvalLoss)
}
