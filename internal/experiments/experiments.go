// Package experiments regenerates every table and figure of the paper's
// evaluation section (§5) on the simulated substrate. Each generator returns
// a report.Table whose rows mirror the paper's layout; EXPERIMENTS.md
// records paper-vs-measured values.
//
// Two scales are provided: Quick (default; paper run shapes divided ~8×,
// same checkpoint counts) and paperShape (the paper's step counts on the
// scaled model geometry). Checkpoint *sizes* always use the true model
// geometries via the analytic cost model, so size columns match the paper
// exactly regardless of scale.
package experiments

import (
	"fmt"

	"llmtailor/internal/evalbench"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/recipe"
	"llmtailor/internal/storage"
	"llmtailor/internal/strategy"
	"llmtailor/internal/tailor"
	"llmtailor/internal/train"
)

// RunShape sets the step geometry of one simulated run.
type RunShape struct {
	// Total steps, checkpoint Interval, the step whose checkpoint the
	// merge reconstructs (MergeAt) and the simulated crash step (FailAt,
	// shortly after MergeAt).
	Total, Interval, MergeAt, FailAt int
}

// Ckpts returns the number of checkpoint events in the run.
func (s RunShape) Ckpts() int { return s.Total / s.Interval }

// Scale selects run shapes and world size for the live simulations.
type Scale struct {
	Name      string
	SFT       RunShape
	CPT       RunShape
	WorldSize int
}

// Quick is the default scale: 16 checkpoints per run like the paper, with
// ~8× fewer steps; runs in seconds.
func Quick() Scale {
	return Scale{
		Name:      "quick",
		SFT:       RunShape{Total: 96, Interval: 6, MergeAt: 48, FailAt: 52},
		CPT:       RunShape{Total: 128, Interval: 8, MergeAt: 80, FailAt: 85},
		WorldSize: 2,
	}
}

// paperShape replays the paper's exact step counts (SFT: 800 steps at
// interval 50, merge at 400; CPT: 1600 at 100, merge at 1000) on the scaled
// model geometry with the paper's 8-rank sharding.
func paperShape() Scale {
	return Scale{
		Name:      "paper-shape",
		SFT:       RunShape{Total: 800, Interval: 50, MergeAt: 400, FailAt: 420},
		CPT:       RunShape{Total: 1600, Interval: 100, MergeAt: 1000, FailAt: 1040},
		WorldSize: 8,
	}
}

// ScaleByName resolves "quick" or "paper-shape".
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "", "quick":
		return Quick(), nil
	case "paper-shape", "paper":
		return paperShape(), nil
	default:
		return Scale{}, fmt.Errorf("experiments: unknown scale %q", name)
	}
}

// UseCaseResult captures one model/task arm of a use case.
type UseCaseResult struct {
	TaskName  string
	ModelName string
	TrueModel *modelcfg.Config
	MergeAt   int

	// Original (never-failing) run.
	OrigLoss, OrigEval float64
	OrigCard           evalbench.Scorecard

	// Partial-checkpointing run: crash, merge, resume.
	MergedLoss, MergedEval float64
	MergedCard             evalbench.Scorecard
	MergeStats             *tailor.Stats
	// PartialBytes / FullBytes are true-geometry totals over the run's
	// checkpoint events.
	PartialBytes, FullBytes int64
}

// runArm trains the original and the crash-merge-resume arm for one model.
func runArm(scale Scale, shape RunShape, task train.Task, trueCfg *modelcfg.Config,
	strat strategy.Strategy, seed uint64) (*UseCaseResult, error) {

	simCfg := trueCfg.DefaultSimScale()
	base := train.Config{
		Model: simCfg, Seed: seed, Task: task,
		TotalSteps: shape.Total, WarmupSteps: shape.Interval / 2, BaseLR: 2e-3,
		CkptInterval: shape.Interval, WorldSize: scale.WorldSize, RunRoot: "orig",
	}

	// Arm 1: uninterrupted full-checkpoint run.
	bOrig := storage.NewMem()
	trOrig, err := train.New(base, bOrig)
	if err != nil {
		return nil, err
	}
	trOrig.SetTrueConfig(trueCfg)
	resOrig, err := trOrig.Run()
	if err != nil {
		return nil, err
	}

	// Arm 2: partial strategy, crash, merge, resume.
	bPart := storage.NewMem()
	cfgPart := base
	cfgPart.RunRoot = "run"
	cfgPart.Strategy = strat
	cfgPart.FailAt = shape.FailAt
	trPart, err := train.New(cfgPart, bPart)
	if err != nil {
		return nil, err
	}
	trPart.SetTrueConfig(trueCfg)
	resPart, err := trPart.Run()
	if err != nil {
		return nil, err
	}
	if !resPart.Failed {
		return nil, fmt.Errorf("experiments: crash at %d did not trigger", shape.FailAt)
	}

	rec, err := recipe.FromManifests(bPart, "run", shape.MergeAt, simCfg, "run/merged")
	if err != nil {
		return nil, err
	}
	stats, err := tailor.Merge(bPart, rec, tailor.Options{Workers: scale.WorldSize})
	if err != nil {
		return nil, err
	}

	cfgResume := base
	cfgResume.RunRoot = "run"
	trResume, err := train.Resume(cfgResume, bPart, "run/merged")
	if err != nil {
		return nil, err
	}
	trResume.SetTrueConfig(trueCfg)
	resResume, err := trResume.Run()
	if err != nil {
		return nil, err
	}

	var partialBytes int64
	for _, ev := range resPart.Ckpts {
		partialBytes += ev.TrueBytes
	}

	return &UseCaseResult{
		TaskName:  task.Name,
		ModelName: trueCfg.Name,
		TrueModel: trueCfg,
		MergeAt:   shape.MergeAt,
		OrigLoss:  resOrig.FinalLoss, OrigEval: resOrig.FinalEvalLoss,
		OrigCard:   evalbench.Evaluate(trOrig.Model, trOrig.TaskProgress()),
		MergedLoss: resResume.FinalLoss, MergedEval: resResume.FinalEvalLoss,
		MergedCard:   evalbench.Evaluate(trResume.Model, trResume.TaskProgress()),
		MergeStats:   stats,
		PartialBytes: partialBytes,
		FullBytes:    int64(len(resPart.Ckpts)) * trueCfg.FullCkptBytes(),
	}, nil
}

// UseCase bundles the paper's two arms: Qwen-2.5-7B SFT and Llama-3.1-8B CPT.
type UseCase struct {
	Qwen  *UseCaseResult
	Llama *UseCaseResult
	// StrategyName is "parity" (use case 1) or "filter" (use case 2).
	StrategyName string
}

// RunUseCase1 executes §5.2 (merge by parity) on both models.
func RunUseCase1(scale Scale) (*UseCase, error) {
	qwen, err := runArm(scale, scale.SFT, train.SFT(), modelcfg.Qwen25_7B(), strategy.Parity{}, 101)
	if err != nil {
		return nil, fmt.Errorf("experiments: use case 1 qwen: %w", err)
	}
	llama, err := runArm(scale, scale.CPT, train.CPT(), modelcfg.Llama31_8B(), strategy.Parity{}, 202)
	if err != nil {
		return nil, fmt.Errorf("experiments: use case 1 llama: %w", err)
	}
	return &UseCase{Qwen: qwen, Llama: llama, StrategyName: "parity"}, nil
}

// RunUseCase2 executes §5.3 (merge by filtering) on both models.
func RunUseCase2(scale Scale) (*UseCase, error) {
	qwen, err := runArm(scale, scale.SFT, train.SFT(), modelcfg.Qwen25_7B(), strategy.NewFilter(), 103)
	if err != nil {
		return nil, fmt.Errorf("experiments: use case 2 qwen: %w", err)
	}
	llama, err := runArm(scale, scale.CPT, train.CPT(), modelcfg.Llama31_8B(), strategy.NewFilter(), 204)
	if err != nil {
		return nil, fmt.Errorf("experiments: use case 2 llama: %w", err)
	}
	return &UseCase{Qwen: qwen, Llama: llama, StrategyName: "filter"}, nil
}
