// Benchmark harness: one testing.B benchmark per paper table/figure, plus
// ablations for the design choices DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem .
//
// Table/figure benches regenerate the corresponding experiment (at Quick
// scale for the live pipelines) once per iteration; micro-ablations measure
// the engine pieces the paper discusses (§4.1 regrouping, §4.2 parallel
// shard loading, §5.4 load orders).
package llmtailor_test

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"llmtailor"
	"llmtailor/internal/ckpt"
	"llmtailor/internal/costmodel"
	"llmtailor/internal/experiments"
	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/recipe"
	"llmtailor/internal/storage"
	"llmtailor/internal/strategy"
	"llmtailor/internal/tailor"
	"llmtailor/internal/tensor"
	"llmtailor/internal/train"
)

// --- Figures -------------------------------------------------------------

// BenchmarkFigure1ModelAnatomy enumerates the Llama-3.1-8B tensor inventory
// (the structure Figure 1 draws).
func BenchmarkFigure1ModelAnatomy(b *testing.B) {
	cfg := modelcfg.Llama31_8B()
	for i := 0; i < b.N; i++ {
		if n := len(cfg.Tensors()); n == 0 {
			b.Fatal("empty inventory")
		}
	}
}

// BenchmarkFigure2OptimizerAnatomy builds the classic 2-group AdamW layout
// (Figure 2).
func BenchmarkFigure2OptimizerAnatomy(b *testing.B) {
	cfg := modelcfg.Llama31_8B()
	for i := 0; i < b.N; i++ {
		if l := optim.NewTwoGroupLayout(cfg); l.NumGroups() != 2 {
			b.Fatal("bad layout")
		}
	}
}

// BenchmarkFigure3Regroup performs the 2-group -> 2L+x optimizer state
// regrouping on a live optimizer (Figure 3).
func BenchmarkFigure3Regroup(b *testing.B) {
	cfg := modelcfg.Llama32_1B().DefaultSimScale()
	m, err := model.NewInitialized(cfg, tensor.BF16, 1)
	if err != nil {
		b.Fatal(err)
	}
	o, err := optim.NewAdamW(m, optim.NewTwoGroupLayout(cfg), optim.DefaultHyper())
	if err != nil {
		b.Fatal(err)
	}
	target := optim.NewLayerwiseLayout(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optim.Regroup(o, target); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tables 1/2: use case 1 (parity) -------------------------------------

// BenchmarkTable1ParityLoss runs the full use-case-1 pipeline (train, crash,
// parity merge, resume) and checks the Table 1 property: final losses match.
func BenchmarkTable1ParityLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		u, err := experiments.RunUseCase1(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		if d := u.Qwen.OrigLoss - u.Qwen.MergedLoss; d > 0.05 || d < -0.05 {
			b.Fatalf("table 1 violated: delta %v", d)
		}
	}
}

// BenchmarkTable2ParityEval scores the use-case-1 models on the synthetic
// five-benchmark suite (Table 2).
func BenchmarkTable2ParityEval(b *testing.B) {
	u, err := experiments.RunUseCase1(experiments.Quick())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := experiments.Table2(u)
		if len(t.Rows) != 4 {
			b.Fatal("bad table 2")
		}
	}
}

// --- Table 3: parity overhead ---------------------------------------------

// BenchmarkTable3ParityOverhead evaluates the analytic cost model for the
// full-vs-parity storage and checkpoint-time comparison (Table 3).
func BenchmarkTable3ParityOverhead(b *testing.B) {
	tb := costmodel.Paper()
	for i := 0; i < b.N; i++ {
		full := tb.Overhead(modelcfg.Llama31_8B(), train.CPT(), strategy.Full{}, 16, 100)
		parity := tb.Overhead(modelcfg.Llama31_8B(), train.CPT(), strategy.Parity{}, 16, 100)
		if parity.TotalGB*2 > full.TotalGB*1.01 {
			b.Fatal("parity not half")
		}
	}
}

// --- Tables 4/5: use case 2 (filter) --------------------------------------

// BenchmarkTable4FilterLoss runs the use-case-2 pipeline (Table 4).
func BenchmarkTable4FilterLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		u, err := experiments.RunUseCase2(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		if u.Llama.MergedLoss < u.Llama.OrigLoss-0.05 {
			b.Fatal("filter merge implausibly better than original")
		}
	}
}

// BenchmarkTable5FilterEval renders the use-case-2 benchmark grid (Table 5).
func BenchmarkTable5FilterEval(b *testing.B) {
	u, err := experiments.RunUseCase2(experiments.Quick())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := experiments.Table5(u)
		if len(t.Rows) != 4 {
			b.Fatal("bad table 5")
		}
	}
}

// --- Table 6: filtered overhead --------------------------------------------

// BenchmarkTable6FilterOverhead evaluates the filtered-checkpoint size model
// (Table 6; paper: 4.3x reduction on Llama-3.1-8B).
func BenchmarkTable6FilterOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		filtered := costmodel.StrategyRunBytes(modelcfg.Llama31_8B(), strategy.NewFilter(), 16)
		full := costmodel.StrategyRunBytes(modelcfg.Llama31_8B(), strategy.Full{}, 16)
		if r := float64(full) / float64(filtered); r < 3.5 {
			b.Fatalf("reduction %v", r)
		}
	}
}

// --- Table 7: loading strategies -------------------------------------------

// BenchmarkTable7LoadStrategies measures the live merge engine under the
// paper's four load scenarios on the scaled substrate (Table 7's shape).
func BenchmarkTable7LoadStrategies(b *testing.B) {
	cfg := modelcfg.Llama32_1B().DefaultSimScale()
	back := storage.NewMem()
	m, _ := model.NewInitialized(cfg, tensor.BF16, 42)
	o, _ := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
	for _, step := range []int{100, 200} {
		if err := ckpt.Save(back, ckpt.SaveSpec{
			Dir: ckpt.DirName(step), Model: m, Optim: o, WorldSize: 2,
			State: ckpt.TrainerState{Step: step, Seed: 42},
		}); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("baseline-restore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := ckpt.Restore(back, "checkpoint-200", tensor.BF16); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("merge-2-straightforward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec := recipe.Parity("checkpoint-100", "checkpoint-200", cfg, "out")
			if _, err := tailor.Merge(back, rec, tailor.Options{Workers: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("merge-2-interleaved-parity", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec := recipe.Parity("checkpoint-100", "checkpoint-200", cfg, "out")
			if _, err := tailor.Merge(back, rec, tailor.Options{Workers: 2, LoadOrder: tailor.Interleaved}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Streaming merge: before/after -----------------------------------------

// setupMergeBench saves two full checkpoints of the scaled 1B geometry and
// returns the backend plus a parity recipe factory.
func setupMergeBench(b *testing.B) (*modelcfg.Config, *storage.Mem) {
	b.Helper()
	cfg := modelcfg.Llama32_1B().DefaultSimScale()
	back := storage.NewMem()
	m, _ := model.NewInitialized(cfg, tensor.BF16, 42)
	o, _ := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
	for _, step := range []int{100, 200} {
		if err := ckpt.Save(back, ckpt.SaveSpec{
			Dir: ckpt.DirName(step), Model: m, Optim: o, WorldSize: 2,
			State: ckpt.TrainerState{Step: step, Seed: 42},
		}); err != nil {
			b.Fatal(err)
		}
	}
	return cfg, back
}

// bufferedMergeWeights replays the seed's pre-streaming behaviour: every
// tensor of the output model is accumulated in memory and written as one
// in-memory container — the "before" of the streaming refactor.
func bufferedMergeWeights(back storage.Backend, plan *tailor.Plan) error {
	var tensors []*tensor.Tensor
	for _, spec := range plan.Config.Tensors() {
		src := plan.Sources[plan.Assign[spec.Layer]]
		t, err := src.Weights().ReadTensor(spec.Name)
		if err != nil {
			return err
		}
		tensors = append(tensors, t)
	}
	return ckpt.WriteLTSF(back, plan.Recipe.Output+"/model.ltsf", plan.Config.Name, tensors)
}

// BenchmarkMergeWeightsStreamedVsBuffered compares the streamed pipeline
// (bounded in-flight bytes, overlapped read/convert/write) against the
// seed's accumulate-everything approach on the weights hot path. -benchmem
// makes the peak-memory difference visible as B/op.
func BenchmarkMergeWeightsStreamedVsBuffered(b *testing.B) {
	cfg, back := setupMergeBench(b)

	b.Run("buffered-seed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec := recipe.Parity(ckpt.DirName(100), ckpt.DirName(200), cfg, "out")
			rec.Optimizer = false
			plan, err := tailor.NewPlan(back, rec)
			if err != nil {
				b.Fatal(err)
			}
			if err := bufferedMergeWeights(back, plan); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{1, 4} {
		b.Run(benchName("streamed-workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rec := recipe.Parity(ckpt.DirName(100), ckpt.DirName(200), cfg, "out")
				rec.Optimizer = false
				if _, err := tailor.Merge(back, rec, tailor.Options{
					Workers: workers, MaxInFlight: 8 << 20,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMergeFullStreamed runs the complete streamed merge (weights +
// optimizer + configs) and emits BENCH_merge.json, the perf record future
// PRs diff against. The parity recipe alternates layers between two
// sources, so every weight tensor rides the zero-decode raw path while the
// optimizer keeps the group-decode path (whole-shard copies need a single
// source) — the reported raw counters make that split visible.
func BenchmarkMergeFullStreamed(b *testing.B) {
	cfg, back := setupMergeBench(b)
	var last *tailor.Stats
	for i := 0; i < b.N; i++ {
		rec := recipe.Parity(ckpt.DirName(100), ckpt.DirName(200), cfg, "out")
		stats, err := tailor.Merge(back, rec, tailor.Options{Workers: 4, MaxInFlight: 8 << 20})
		if err != nil {
			b.Fatal(err)
		}
		last = stats
	}
	b.ReportMetric(float64(last.PeakInFlightBytes), "peak-inflight-bytes")
	b.ReportMetric(float64(last.BytesRead), "bytes-read/op")
	b.ReportMetric(float64(last.BytesWritten), "bytes-written/op")
	b.ReportMetric(float64(last.TensorsRawCopied), "tensors-raw-copied")
	b.ReportMetric(float64(last.BytesRawCopied), "bytes-raw-copied/op")
	writeBenchJSON(b, "BENCH_merge.json", mergeBenchRecord{
		Bench:   "merge-full-streamed",
		Model:   cfg.Name,
		NsPerOp: float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		Stats:   statsFields(last), MaxInFlight: 8 << 20, Workers: 4,
	})
}

// BenchmarkMergeRawVsDecode runs the passthrough-heavy shape the fast path
// exists for — every layer from one source, optimizer included, so both
// the tensor-extent and the whole-shard raw copies arm — against the same
// recipe with the fast path disabled, and emits BENCH_merge_raw.json
// recording both sides.
func BenchmarkMergeRawVsDecode(b *testing.B) {
	cfg, back := setupMergeBench(b)
	mkRec := func() *recipe.Recipe {
		return &recipe.Recipe{
			MergeMethod: "passthrough",
			Base:        ckpt.DirName(200),
			Optimizer:   true,
			Output:      "out-raw",
		}
	}
	run := func(b *testing.B, noRaw bool) (*tailor.Stats, float64) {
		var last *tailor.Stats
		for i := 0; i < b.N; i++ {
			stats, err := tailor.Merge(back, mkRec(), tailor.Options{
				Workers: 4, MaxInFlight: 8 << 20, NoRawCopy: noRaw,
			})
			if err != nil {
				b.Fatal(err)
			}
			last = stats
		}
		return last, float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	}

	var record rawBenchRecord
	record.Bench = "merge-raw-vs-decode"
	record.Model = cfg.Name
	record.MaxInFlight = 8 << 20
	record.Workers = 4
	b.Run("raw", func(b *testing.B) {
		stats, ns := run(b, false)
		if stats.TensorsRawCopied == 0 || stats.ShardFileLoads != 0 {
			b.Fatalf("raw paths did not arm: %+v", stats)
		}
		b.ReportMetric(float64(stats.BytesRawCopied), "bytes-raw-copied/op")
		record.Raw = mergeBenchRecord{NsPerOp: ns, Stats: statsFields(stats)}
	})
	b.Run("decode", func(b *testing.B) {
		stats, ns := run(b, true)
		if stats.TensorsRawCopied != 0 || stats.ShardFileLoads == 0 {
			b.Fatalf("NoRawCopy run raw-copied: %+v", stats)
		}
		record.Decode = mergeBenchRecord{NsPerOp: ns, Stats: statsFields(stats)}
	})
	if record.Raw.NsPerOp > 0 && record.Decode.NsPerOp > 0 {
		record.Speedup = record.Decode.NsPerOp / record.Raw.NsPerOp
		writeBenchJSON(b, "BENCH_merge_raw.json", record)
	}
}

// statsFields extracts the Stats counters shared by the bench records.
func statsFields(s *tailor.Stats) mergeStatsRecord {
	return mergeStatsRecord{
		TensorsRead:       s.TensorsRead,
		TensorsRawCopied:  s.TensorsRawCopied,
		ShardFileLoads:    s.ShardFileLoads,
		BytesRead:         s.BytesRead,
		BytesWritten:      s.BytesWritten,
		BytesRawCopied:    s.BytesRawCopied,
		PeakInFlightBytes: s.PeakInFlightBytes,
	}
}

// mergeStatsRecord mirrors tailor.Stats in the bench JSON records.
type mergeStatsRecord struct {
	TensorsRead       int   `json:"tensors_read"`
	TensorsRawCopied  int   `json:"tensors_raw_copied"`
	ShardFileLoads    int64 `json:"shard_file_loads"`
	BytesRead         int64 `json:"bytes_read"`
	BytesWritten      int64 `json:"bytes_written"`
	BytesRawCopied    int64 `json:"bytes_raw_copied"`
	PeakInFlightBytes int64 `json:"peak_inflight_bytes"`
}

// mergeBenchRecord is the schema of BENCH_merge.json (and of each side of
// BENCH_merge_raw.json).
type mergeBenchRecord struct {
	Bench       string           `json:"bench,omitempty"`
	Model       string           `json:"model,omitempty"`
	NsPerOp     float64          `json:"ns_per_op"`
	Stats       mergeStatsRecord `json:"stats"`
	MaxInFlight int64            `json:"max_inflight,omitempty"`
	Workers     int              `json:"workers,omitempty"`
}

// rawBenchRecord is the schema of BENCH_merge_raw.json: the same recipe
// measured with the zero-decode fast path on and off.
type rawBenchRecord struct {
	Bench       string           `json:"bench"`
	Model       string           `json:"model"`
	MaxInFlight int64            `json:"max_inflight"`
	Workers     int              `json:"workers"`
	Raw         mergeBenchRecord `json:"raw"`
	Decode      mergeBenchRecord `json:"decode"`
	// Speedup is decode ns/op over raw ns/op (>1 means the fast path won).
	Speedup float64 `json:"speedup"`
}

// writeBenchJSON refreshes a perf-record file. Records are only written
// when BENCH_RECORD is set (the bench-record make target sets it), so CI's
// bench-smoke pass — one noisy iteration of everything — never clobbers
// the committed records.
func writeBenchJSON(b *testing.B, name string, v any) {
	b.Helper()
	if os.Getenv("BENCH_RECORD") == "" {
		b.Logf("%s not refreshed (set BENCH_RECORD=1 to write perf records)", name)
		return
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
		b.Logf("bench record not written: %v", err)
	}
}

// --- Motivation and ablations ----------------------------------------------

// BenchmarkLayerUpdateNonuniformity runs the telemetry experiment behind the
// paper's motivation (non-uniform per-layer updates).
func BenchmarkLayerUpdateNonuniformity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LayerDrift(experiments.Quick()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationParallelLoadWorkers measures merge wall time vs worker
// count — the §4.2 claim that parallel shard loading cuts merge latency.
func BenchmarkAblationParallelLoadWorkers(b *testing.B) {
	cfg := modelcfg.Llama31_8B().DefaultSimScale()
	back := storage.NewMem()
	m, _ := model.NewInitialized(cfg, tensor.BF16, 42)
	o, _ := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
	for _, step := range []int{100, 200} {
		if err := ckpt.Save(back, ckpt.SaveSpec{
			Dir: ckpt.DirName(step), Model: m, Optim: o, WorldSize: 8,
			State: ckpt.TrainerState{Step: step, Seed: 42},
		}); err != nil {
			b.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rec := recipe.Parity("checkpoint-100", "checkpoint-200", cfg, "out")
				if _, err := tailor.Merge(back, rec, tailor.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRegroupOverhead quantifies §4.1's "small amount of
// computational overhead": an optimizer step under the 2-group vs the
// layerwise (2L+x) layout.
func BenchmarkAblationRegroupOverhead(b *testing.B) {
	cfg := modelcfg.Llama32_1B().DefaultSimScale()
	for _, kind := range []optim.LayoutKind{optim.TwoGroup, optim.Layerwise} {
		b.Run(kind.String(), func(b *testing.B) {
			m, _ := model.NewInitialized(cfg, tensor.BF16, 1)
			var layout *optim.Layout
			if kind == optim.TwoGroup {
				layout = optim.NewTwoGroupLayout(cfg)
			} else {
				layout = optim.NewLayerwiseLayout(cfg)
			}
			o, _ := optim.NewAdamW(m, layout, optim.DefaultHyper())
			grads := optim.GradMap{}
			for _, ts := range m.Tensors() {
				grads[ts.Name] = make([]float32, ts.Len())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := o.Step(1e-3, grads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPublicAPIMergeRoundtrip exercises the facade end to end on a tiny
// model: save two checkpoints, merge via the public API, restore.
func BenchmarkPublicAPIMergeRoundtrip(b *testing.B) {
	back := llmtailor.NewMemBackend()
	cfg, err := llmtailor.ModelByName("tiny")
	if err != nil {
		b.Fatal(err)
	}
	m, _ := model.NewInitialized(cfg, tensor.BF16, 9)
	o, _ := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
	for _, step := range []int{10, 20} {
		if err := ckpt.Save(back, ckpt.SaveSpec{
			Dir: "run/" + ckpt.DirName(step), Model: m, Optim: o, WorldSize: 2,
			State: ckpt.TrainerState{Step: step, Seed: 9},
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := llmtailor.ParityRecipe("run/checkpoint-10", "run/checkpoint-20", cfg, "run/merged")
		if _, err := llmtailor.Merge(back, rec, llmtailor.MergeOptions{Workers: 2}); err != nil {
			b.Fatal(err)
		}
		if _, _, _, err := ckpt.Restore(back, "run/merged", tensor.BF16); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, n int) string {
	return fmt.Sprintf("%s-%d", prefix, n)
}
