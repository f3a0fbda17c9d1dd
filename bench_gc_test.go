// BenchmarkGCIncremental measures what the journaled ref index buys on the
// workload it exists for: a long run whose GC must not cost O(run length).
// A 200-checkpoint content-addressed run has its five oldest checkpoints
// replaced in place (superseding their generations); the generational
// sweep then reads the journal and examines only the retired generations'
// candidate blobs, while the -full path re-reads every manifest container
// in the run and lists the whole store. It emits BENCH_gc.json and asserts
// the acceptance floors inline — incremental examines O(retired) blobs and
// is ≥5× faster — so the perf property is CI-checked on every bench-smoke
// pass.
package llmtailor_test

import (
	"fmt"
	"sync"
	"testing"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

const (
	gcBenchCheckpoints = 200
	gcBenchRetired     = 5
	gcBenchWorldSize   = 4
	// perGenDigestCeiling caps how many digests one Tiny/worldsize-4
	// generation can reference (weights + per-rank groups, generously).
	perGenDigestCeiling = 120
)

type gcBenchState struct {
	mem *storage.Mem
	// blobsTotal is the store population before any sweep.
	blobsTotal int
	err        error
}

var gcBenchOnce sync.Once
var gcBench gcBenchState

// buildGCBenchRun writes the 200-checkpoint dedup run, one tensor dirtied
// per save so every generation holds exclusive content, then replaces the
// five oldest checkpoints in place to supersede their generations.
func buildGCBenchRun() gcBenchState {
	cfg := modelcfg.Tiny()
	m, err := model.NewInitialized(cfg, tensor.BF16, 99)
	if err != nil {
		return gcBenchState{err: err}
	}
	o, err := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
	if err != nil {
		return gcBenchState{err: err}
	}
	mem := storage.NewMem()
	save := func(step int) error {
		ts := m.Tensors()[step%len(m.Tensors())]
		ts.Set(0, ts.At(0)+float32(step)*1e-3)
		return ckpt.Save(mem, ckpt.SaveSpec{
			Dir: fmt.Sprintf("run/checkpoint-%d", step), Model: m, Optim: o,
			WorldSize: gcBenchWorldSize, Strategy: "full", Dedup: true,
			State: ckpt.TrainerState{Step: step, Seed: 99},
		})
	}
	for i := 1; i <= gcBenchCheckpoints; i++ {
		if err := save(i * 10); err != nil {
			return gcBenchState{err: err}
		}
	}
	for i := 1; i <= gcBenchRetired; i++ {
		if err := save(i * 10); err != nil {
			return gcBenchState{err: err}
		}
	}
	blobs, _, _, err := storage.NewBlobStore(mem, "run/objects").List()
	if err != nil {
		return gcBenchState{err: err}
	}
	return gcBenchState{mem: mem, blobsTotal: len(blobs)}
}

// gcBenchRecord is the schema of BENCH_gc.json.
type gcBenchRecord struct {
	Bench               string  `json:"bench"`
	Checkpoints         int     `json:"checkpoints"`
	RetiredGenerations  int     `json:"retired_generations"`
	WorldSize           int     `json:"world_size"`
	BlobsTotal          int     `json:"blobs_total"`
	BlobsExaminedInc    int     `json:"blobs_examined_incremental"`
	BlobsExaminedFull   int     `json:"blobs_examined_full"`
	BlobsReclaimable    int     `json:"blobs_reclaimable"`
	NsPerOpIncremental  float64 `json:"ns_per_op_incremental"`
	NsPerOpFull         float64 `json:"ns_per_op_full"`
	Speedup             float64 `json:"speedup"`
	IndexRecordsScanned int     `json:"index_records_scanned"`
}

func BenchmarkGCIncremental(b *testing.B) {
	gcBenchOnce.Do(func() { gcBench = buildGCBenchRun() })
	if gcBench.err != nil {
		b.Fatal(gcBench.err)
	}
	mem := gcBench.mem
	record := gcBenchRecord{
		Bench: "gc-incremental", Checkpoints: gcBenchCheckpoints,
		RetiredGenerations: gcBenchRetired, WorldSize: gcBenchWorldSize,
		BlobsTotal: gcBench.blobsTotal,
	}

	var incRep, fullRep *ckpt.GCReport
	// The generational sub-benchmark must run before the full one: a full
	// GC validates the index and retires the superseded generations, after
	// which there is nothing incremental left to measure. Dry-run keeps
	// every timed iteration identical.
	b.Run("generational", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := ckpt.GCGenerational(mem, "run", true)
			if err != nil {
				b.Fatal(err)
			}
			incRep = rep
		}
		record.NsPerOpIncremental = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(float64(incRep.Examined), "blobs-examined/op")
	})
	// Correctness tie-in before the full path mutates anything: the real
	// (non-dry) generational sweep reclaims exactly what the dry run
	// predicted.
	realRep, err := ckpt.GCGenerational(mem, "run", false)
	if err != nil {
		b.Fatal(err)
	}
	if len(realRep.RemovedBlobs) != len(incRep.RemovedBlobs) || len(realRep.RemovedBlobs) == 0 {
		b.Fatalf("dry run predicted %d removals, sweep did %d",
			len(incRep.RemovedBlobs), len(realRep.RemovedBlobs))
	}

	// The full path then verifies the same 200-checkpoint run end to end:
	// every manifest container re-read, the whole store listed. Steady
	// state after the first call, so iterations are comparable.
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := ckpt.GC(mem, "run")
			if err != nil {
				b.Fatal(err)
			}
			fullRep = rep
		}
		record.NsPerOpFull = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(float64(fullRep.Examined), "blobs-examined/op")
	})

	record.BlobsExaminedInc = incRep.Examined
	record.BlobsExaminedFull = fullRep.Examined
	record.BlobsReclaimable = len(incRep.RemovedBlobs)
	record.IndexRecordsScanned = incRep.IndexRecords
	record.Speedup = record.NsPerOpFull / record.NsPerOpIncremental
	b.ReportMetric(record.Speedup, "speedup-x")

	// Acceptance floor 1: the incremental sweep's examination is O(retired
	// generations) — exactly the candidate digests the five retired
	// records referenced (~one checkpoint's worth each, independent of the
	// other 195 checkpoints in the run) — while the full path examines the
	// whole store.
	if incRep.Examined > gcBenchRetired*perGenDigestCeiling {
		b.Fatalf("incremental gc examined %d blobs for %d retired generations — not O(retired)",
			incRep.Examined, gcBenchRetired)
	}
	if incRep.Examined*2 > fullRep.Examined {
		b.Fatalf("incremental gc examined %d blobs vs full's %d — no examination win",
			incRep.Examined, fullRep.Examined)
	}
	if len(incRep.RemovedBlobs) == 0 {
		b.Fatal("scenario produced no reclaimable garbage")
	}
	// Acceptance floor 2: ≥5× faster than the whole-history mark-and-sweep
	// on the same 200-checkpoint state.
	if record.Speedup < 5 {
		b.Fatalf("generational gc speedup %.2fx < 5x (inc %.0fns, full %.0fns)",
			record.Speedup, record.NsPerOpIncremental, record.NsPerOpFull)
	}

	// Full and generational agree: after the sweeps above, neither path
	// finds anything left, and surviving checkpoints still restore.
	agree, err := ckpt.GC(mem, "run")
	if err != nil {
		b.Fatal(err)
	}
	if len(agree.RemovedBlobs) != 0 || len(agree.RecordsRetired) != 0 || len(agree.IndexRepaired) != 0 {
		b.Fatalf("full gc disagrees with the generational sweep: %+v", agree)
	}
	for _, step := range []int{10, 50, gcBenchCheckpoints * 10} {
		if _, _, _, err := ckpt.Restore(mem, fmt.Sprintf("run/checkpoint-%d", step), tensor.BF16); err != nil {
			b.Fatalf("checkpoint-%d unrestorable after sweeps: %v", step, err)
		}
	}
	writeBenchJSON(b, "BENCH_gc.json", record)
}
