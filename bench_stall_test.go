// BenchmarkCaptureStall measures what the trainer actually pays to take a
// checkpoint: the bytes that must be touched while the live state is
// frozen. A snapshot-style async save deep-copies the whole model and
// optimizer before training may continue — a stall of O(model size) no
// matter how little changed. Lazy capture only hashes and spools the
// layers whose generation moved since the last save, so on the paper's
// incremental workload (1 of ~18 layers changing per step) the steady-
// state stall is bounded by the changed-layer set. It emits
// BENCH_stall.json and asserts the acceptance floor (≥5× fewer stall
// bytes over saves 2..10), plus bit-identical materialization against the
// plain synchronous save path, so the perf property is CI-checked on
// every bench-smoke pass. Wall-clock stall is recorded informationally
// only: stall bytes are deterministic, hash throughput is not.
package llmtailor_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

// bumpChangedGens advances the optimizer generation of exactly the groups
// mutateLayers dirtied for this step — standing in for the bumps
// AdamW.Step performs during real training, which the bench bypasses by
// poking tensors directly.
func bumpChangedGens(o *optim.AdamW, cfg *modelcfg.Config, step int) {
	refs := cfg.AllLayers()
	changed := map[modelcfg.LayerRef]bool{}
	for j := 0; j < deltaLayersPerStep; j++ {
		changed[refs[(step*deltaLayersPerStep+j)%len(refs)]] = true
	}
	for gi, g := range o.Layout.Groups {
		if g.HasLayer && changed[g.Layer] {
			o.Gens[gi]++
		}
	}
}

// liveStateBytes is the size of one full snapshot: every model tensor
// plus the three f32 optimizer moments per parameter — the bytes a
// snapshot must copy before the trainer may mutate anything.
func liveStateBytes(m *model.Model, o *optim.AdamW) int64 {
	var n int64
	for _, t := range m.Tensors() {
		n += int64(t.Bytes())
	}
	for _, st := range o.States {
		n += st.Numel() * 12
	}
	return n
}

func newStallState(b *testing.B) (*modelcfg.Config, *model.Model, *optim.AdamW) {
	b.Helper()
	cfg := modelcfg.Llama32_1B().DefaultSimScale()
	m, err := model.NewInitialized(cfg, tensor.BF16, 77)
	if err != nil {
		b.Fatal(err)
	}
	o, err := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
	if err != nil {
		b.Fatal(err)
	}
	return cfg, m, o
}

// runSnapshotStall times the deep copy (Model.Clone + AdamW.Clone) a
// snapshot-style async save makes before training may continue, over the
// same 10-save sequence. The copy is the whole of that stall — the write
// happens in the background — so the stall is the full model+optimizer
// byte count on every save, and no saver is needed to measure it.
func runSnapshotStall(b *testing.B) (stallBytes, stallNs int64) {
	b.Helper()
	cfg, m, o := newStallState(b)
	perSave := liveStateBytes(m, o)
	for i := 1; i <= deltaSaves; i++ {
		if i > 1 {
			mutateLayers(m, o, cfg, i)
		}
		t0 := time.Now()
		mc := m.Clone()
		o.Clone(mc)
		if i > 1 { // steady state: saves 2..10
			stallNs += int64(time.Since(t0))
			stallBytes += perSave
		}
	}
	return stallBytes, stallNs
}

// runLazyStall drives the same sequence through the lazy saver: Save only
// schedules capture, WaitCaptured blocks until the changed layers have
// been hashed (and spooled when their content is new). Stall bytes are
// the saver's own capture accounting of bytes touched on the trainer's
// critical path.
func runLazyStall(b *testing.B) (stallBytes, stallNs int64, stats ckpt.CaptureStats, mem *storage.Mem) {
	b.Helper()
	cfg, m, o := newStallState(b)
	mem = storage.NewMem()
	saver := ckpt.NewLazyAsyncSaver(mem, 2, ckpt.CaptureOptions{})
	touched := func(cs ckpt.CaptureStats) int64 { return cs.BytesHashed + cs.BytesSpooled }
	var base ckpt.CaptureStats
	for i := 1; i <= deltaSaves; i++ {
		if i > 1 {
			mutateLayers(m, o, cfg, i)
			bumpChangedGens(o, cfg, i)
		}
		err := saver.Save(ckpt.SaveSpec{
			Dir: fmt.Sprintf("run/checkpoint-%d", i*100), Model: m, Optim: o,
			WorldSize: 2, Strategy: "full", Dedup: true,
			LayerGens: o.LayerGens(),
			State:     ckpt.TrainerState{Step: i * 100, Seed: 77},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := saver.WaitCaptured(); err != nil {
			b.Fatal(err)
		}
		// Drain the background write off the measurement path: stall is
		// accounted during capture, and flushing makes the next save's
		// dedup probes deterministic (all prior blobs published).
		if err := saver.Flush(); err != nil {
			b.Fatal(err)
		}
		if i == 1 { // save 1 has no prior generation to dedup against
			base = saver.CaptureStats()
		}
	}
	if err := saver.Wait(); err != nil {
		b.Fatal(err)
	}
	stats = saver.CaptureStats()
	stallBytes = touched(stats) - touched(base)
	stallNs = stats.StallNs - base.StallNs
	return stallBytes, stallNs, stats, mem
}

// stallBenchRecord is the schema of BENCH_stall.json.
type stallBenchRecord struct {
	Bench              string  `json:"bench"`
	Model              string  `json:"model"`
	Saves              int     `json:"saves"`
	LayersPerStep      int     `json:"layers_changed_per_step"`
	TotalLayers        int     `json:"total_layers"`
	StallBytesSnapshot int64   `json:"stall_bytes_snapshot"`
	StallBytesLazy     int64   `json:"stall_bytes_lazy"`
	Reduction          float64 `json:"reduction"`
	StallNsSnapshot    int64   `json:"stall_ns_snapshot"`
	StallNsLazy        int64   `json:"stall_ns_lazy"`
	LayersReused       int64   `json:"layers_reused"`
	PayloadsReferenced int64   `json:"payloads_referenced"`
	BytesReferenced    int64   `json:"bytes_referenced"`
	SpoolPeakBytes     int64   `json:"spool_peak_bytes"`
}

func BenchmarkCaptureStall(b *testing.B) {
	cfg := modelcfg.Llama32_1B().DefaultSimScale()
	record := stallBenchRecord{
		Bench: "capture-stall", Model: cfg.Name,
		Saves: deltaSaves, LayersPerStep: deltaLayersPerStep,
		TotalLayers: len(cfg.AllLayers()),
	}
	var snapBytes, snapNs, lazyBytes, lazyNs int64
	var lazyStats ckpt.CaptureStats
	var lazyMem *storage.Mem

	b.Run("snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			snapBytes, snapNs = runSnapshotStall(b)
		}
		b.ReportMetric(float64(snapBytes), "stall-bytes/op")
	})
	b.Run("lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lazyBytes, lazyNs, lazyStats, lazyMem = runLazyStall(b)
		}
		b.ReportMetric(float64(lazyBytes), "stall-bytes/op")
	})

	record.StallBytesSnapshot = snapBytes
	record.StallBytesLazy = lazyBytes
	record.Reduction = float64(snapBytes) / float64(lazyBytes)
	record.StallNsSnapshot = snapNs
	record.StallNsLazy = lazyNs
	record.LayersReused = lazyStats.LayersReused
	record.PayloadsReferenced = lazyStats.PayloadsReferenced
	record.BytesReferenced = lazyStats.BytesReferenced
	record.SpoolPeakBytes = lazyStats.SpoolPeakBytes
	b.ReportMetric(record.Reduction, "stall-reduction-x")

	// Acceptance floor: the steady-state stall shrinks ≥5× when only
	// ~6% of layers change per save.
	if record.Reduction < 5 {
		b.Fatalf("stall-bytes reduction %.2fx < 5x (snapshot %d, lazy %d)",
			record.Reduction, snapBytes, lazyBytes)
	}
	// The stall must scale with the changed-layer set, not the model:
	// allow 4× slack for unlayered groups and container framing.
	if lazyBytes*int64(record.TotalLayers) > snapBytes*int64(deltaLayersPerStep)*4 {
		b.Fatalf("lazy stall %d bytes is not O(changed layers): snapshot %d, %d/%d layers changed",
			lazyBytes, snapBytes, deltaLayersPerStep, record.TotalLayers)
	}

	// Correctness side of the acceptance: the lazy run's checkpoints
	// materialize byte-identical to the plain synchronous save path.
	_, plainMem := runIncrementalSaves(b, false)
	lastDir := fmt.Sprintf("run/checkpoint-%d", deltaSaves*100)
	if err := ckpt.MaterializeWeights(lazyMem, lastDir, "mat.ltsf", 0); err != nil {
		b.Fatal(err)
	}
	want, _ := plainMem.ReadFile(lastDir + "/model.ltsf")
	got, _ := lazyMem.ReadFile("mat.ltsf")
	if len(want) == 0 || !bytes.Equal(want, got) {
		b.Fatal("materialized lazy checkpoint differs from the plain save")
	}
	for r := 0; r < 2; r++ {
		if err := ckpt.MaterializeShardFile(lazyMem, lastDir, r, "mat.ltos", 0); err != nil {
			b.Fatal(err)
		}
		want, _ := plainMem.ReadFile(lastDir + "/" + ckpt.ShardFileName(r))
		got, _ := lazyMem.ReadFile("mat.ltos")
		if len(want) == 0 || !bytes.Equal(want, got) {
			b.Fatalf("materialized rank %d shard differs from the plain save", r)
		}
	}

	writeBenchJSON(b, "BENCH_stall.json", record)
}
