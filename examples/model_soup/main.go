// Model soup: the weights-only blend methods (merge_method: linear / slerp)
// that MergeKit popularised and the paper's §3 contrasts against. A blend
// averages whole models — useful for capability fusion — but produces no
// optimizer state, so the output can be served yet *not* resumed, which is
// precisely why LLMTailor's passthrough+tailor path exists.
//
// Run with: go run ./examples/model_soup
package main

import (
	"fmt"
	"log"

	"llmtailor"
	"llmtailor/internal/train"
)

func main() {
	back := llmtailor.NewMemBackend()
	cfg, err := llmtailor.ModelByName("tiny")
	if err != nil {
		log.Fatal(err)
	}
	task, _ := train.TaskByName("sft")

	// Two fine-tuning runs from different seeds -> two checkpoints.
	for i, seed := range []uint64{100, 200} {
		tc := llmtailor.TrainerConfig{
			Model: cfg, Seed: seed, Task: task,
			TotalSteps: 40, WarmupSteps: 3, BaseLR: 2e-3,
			CkptInterval: 40, WorldSize: 1,
			RunRoot: fmt.Sprintf("run%d", i+1),
		}
		tr, err := llmtailor.NewTrainer(tc, back)
		if err != nil {
			log.Fatal(err)
		}
		res, err := tr.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("run%d (seed %d): final loss %.4f\n", i+1, seed, res.FinalLoss)
	}

	// Linear soup at 70/30.
	soup, err := llmtailor.ParseRecipe([]byte(`
merge_method: linear
models:
  - checkpoint: run1/checkpoint-40
    weight: 0.7
  - checkpoint: run2/checkpoint-40
    weight: 0.3
output: soups/linear
`))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := llmtailor.Merge(back, soup, llmtailor.MergeOptions{}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("linear soup written to soups/linear (weights only)")

	// SLERP at t = 0.5.
	slerp, err := llmtailor.ParseRecipe([]byte(`
merge_method: slerp
t: 0.5
models:
  - checkpoint: run1/checkpoint-40
  - checkpoint: run2/checkpoint-40
output: soups/slerp
`))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := llmtailor.Merge(back, slerp, llmtailor.MergeOptions{}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("slerp soup written to soups/slerp (weights only)")

	// The soup can be inspected but NOT resumed — the MergeKit limitation
	// the paper's tailoring removes.
	c, err := llmtailor.OpenCheckpoint(back, "soups/linear")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("soup manifest strategy: %s\n", c.Manifest.Strategy)
	tc := llmtailor.TrainerConfig{
		Model: cfg, Seed: 100, Task: task,
		TotalSteps: 50, WarmupSteps: 3, BaseLR: 2e-3,
		CkptInterval: 10, WorldSize: 1, RunRoot: "resume",
	}
	if _, err := llmtailor.NewStore(back).Run("soups").ResumeFrom(tc, "linear"); err != nil {
		fmt.Printf("resuming the soup fails as expected: %v\n", err)
	} else {
		log.Fatal("weights-only soup unexpectedly resumed")
	}
}
