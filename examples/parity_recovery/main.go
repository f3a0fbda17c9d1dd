// Parity recovery (paper use case 1, §5.2) at simulation scale: the Qwen-2.5
// SFT arm. Two runs are compared:
//
//   - an uninterrupted baseline with full checkpoints; and
//   - a parity partial-checkpointing run that crashes, merges the last two
//     half-checkpoints with an explicit hand-written YAML recipe, and
//     resumes.
//
// The final losses match (the paper's Table 1), while the partial run wrote
// about half the checkpoint bytes (Table 3).
//
// Run with: go run ./examples/parity_recovery
package main

import (
	"fmt"
	"log"

	"llmtailor"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/train"
)

func main() {
	trueCfg, err := llmtailor.ModelByName("qwen2.5-7b")
	if err != nil {
		log.Fatal(err)
	}
	cfg := trueCfg.DefaultSimScale()
	task, _ := train.TaskByName("sft")

	base := llmtailor.TrainerConfig{
		Model: cfg, Seed: 11, Task: task,
		TotalSteps: 96, WarmupSteps: 3, BaseLR: 2e-3,
		CkptInterval: 6, WorldSize: 2, RunRoot: "run",
	}

	// Baseline: never fails.
	bA := llmtailor.NewMemBackend()
	trA, err := llmtailor.NewTrainer(base, bA)
	if err != nil {
		log.Fatal(err)
	}
	resA, err := trA.Run()
	if err != nil {
		log.Fatal(err)
	}

	// Parity arm: crash after step 52; checkpoints 48 and 42 are the last
	// two halves.
	bB := llmtailor.NewMemBackend()
	cfgB := base
	cfgB.Strategy, _ = llmtailor.StrategyByName("parity")
	cfgB.FailAt = 52
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
	}

	// Hand-written parity recipe, exactly like the paper's YAML workflow.
	// The parity strategy saved odd layers + embed_tokens at step 48 and
	// even layers + lm_head + final norm at step 42, so the merge takes
	// each half from the checkpoint that has it (configs from the newest).
	recipeYAML := fmt.Sprintf(`
merge_method: passthrough
dtype: bfloat16
base_checkpoint: run/checkpoint-48
slices:
  - sources:
      - checkpoint: run/checkpoint-42
        layer_range: [0, %d]
        stride: 2     # even layers
tailor:
  embed_tokens: run/checkpoint-48
  lm_head: run/checkpoint-42
  final_norm: run/checkpoint-42
  optimizer: true
  configs_from: run/checkpoint-48
output: run/merged
`, cfg.NumLayers)
	rec, err := llmtailor.ParseRecipe([]byte(recipeYAML))
	if err != nil {
		log.Fatal(err)
	}
	plan, err := llmtailor.NewPlan(bB, rec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(plan.Describe())
	if _, err := llmtailor.Merge(bB, rec, llmtailor.MergeOptions{Workers: 4}); err != nil {
		log.Fatal(err)
	}

	cfgC := base
	trC, err := llmtailor.NewStore(bB).Run("run").ResumeFrom(cfgC, "merged")
	if err != nil {
		log.Fatal(err)
	}
	resC, err := trC.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Use case 1 (parity), Qwen-2.5-7B SFT profile at sim scale")
	fmt.Printf("%-34s final loss %.4f  eval %.4f\n", "original (no failure):", resA.FinalLoss, resA.FinalEvalLoss)
	fmt.Printf("%-34s final loss %.4f  eval %.4f\n", "parity merge (crash at 52):", resC.FinalLoss, resC.FinalEvalLoss)
	fullBytes := int64(len(resB.Ckpts)) * trueCfg.FullCkptBytes()
	fmt.Printf("checkpoint bytes (true geometry): %.2f GB vs %.2f GB full (%.1f%%)\n",
		modelcfg.GB(partialBytes), modelcfg.GB(fullBytes),
		100*float64(partialBytes)/float64(fullBytes))
}
