// Dynamic partial checkpointing — the paper's anticipated future work
// ("future systems employing more dynamic strategies in deciding which
// components to checkpoint"). The DeltaTopK policy watches per-layer update
// magnitudes between checkpoint events and saves only the layers that moved
// most, with a staleness bound guaranteeing every layer is checkpointed
// periodically so recovery is always possible.
//
// Run with: go run ./examples/dynamic_topk
package main

import (
	"fmt"
	"log"

	"llmtailor"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/strategy"
	"llmtailor/internal/train"
)

func main() {
	trueCfg, err := llmtailor.ModelByName("llama3.1-8b")
	if err != nil {
		log.Fatal(err)
	}
	cfg := trueCfg.DefaultSimScale()
	task, _ := train.TaskByName("cpt")

	// Save the top 40% of movers each event, forcing a save of any layer
	// older than 4 events.
	dynamic := strategy.NewDeltaTopK(0.4, 4)

	back := llmtailor.NewMemBackend()
	tc := llmtailor.TrainerConfig{
		Model: cfg, Seed: 33, Task: task,
		TotalSteps: 96, WarmupSteps: 4, BaseLR: 2e-3,
		CkptInterval: 8, Strategy: dynamic, WorldSize: 2,
		RunRoot: "run", FailAt: 68,
	}
	tr, err := llmtailor.NewTrainer(tc, back)
	if err != nil {
		log.Fatal(err)
	}
	tr.SetTrueConfig(trueCfg)
	res, err := tr.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("DeltaTopK checkpoint events (layers chosen by update magnitude):")
	var partialBytes int64
	for _, ev := range res.Ckpts {
		partialBytes += ev.TrueBytes
		fmt.Printf("  step %3d: %2d layers  %7.2f GB (true geometry)  %v\n",
			ev.Step, len(ev.Layers), modelcfg.GB(ev.TrueBytes), ev.Layers)
	}
	fullBytes := int64(len(res.Ckpts)) * trueCfg.FullCkptBytes()
	fmt.Printf("\nstorage: %.2f GB vs %.2f GB full (%.1fx reduction)\n",
		modelcfg.GB(partialBytes), modelcfg.GB(fullBytes),
		float64(fullBytes)/float64(partialBytes))

	// Recover after the crash at step 68 and finish the run.
	rec, err := llmtailor.RecipeFromManifests(back, "run", 64, cfg, "run/merged")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := llmtailor.Merge(back, rec, llmtailor.MergeOptions{Workers: 4}); err != nil {
		log.Fatal(err)
	}
	tc.FailAt = 0
	tc.Strategy = nil
	tr2, err := llmtailor.NewStore(back).Run("run").ResumeFrom(tc, "merged")
	if err != nil {
		log.Fatal(err)
	}
	res2, err := tr2.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered from step 64 and finished: final loss %.4f, eval %.4f\n",
		res2.FinalLoss, res2.FinalEvalLoss)
}
