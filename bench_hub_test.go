// BenchmarkHubCrossRunDedup measures what the checkpoint hub buys on the
// workload it exists for: many runs fine-tuning from the same base, each
// saving content-addressed checkpoints. Standalone, every run's first save
// pays the full payload into its own store; attached to a hub, a run whose
// layers match blobs a peer already published writes only manifests and
// journal records. The benchmark saves one identical model state twice —
// once into a fresh standalone store, once into a hub a peer has already
// warmed — and compares metered bytes written. It emits BENCH_hub.json and
// asserts the acceptance floor inline (≥3× bytes shared), so the perf
// property is CI-checked on every bench-smoke pass.
package llmtailor_test

import (
	"testing"

	"llmtailor"
	"llmtailor/internal/ckpt"
	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

const hubBenchSeed = 4242

// hubBenchSave writes one dedup checkpoint of the deterministic seed-derived
// state into dir, counting bytes through the meter.
func hubBenchSave(b *testing.B, meter storage.Backend, cfg *modelcfg.Config, dir string) {
	b.Helper()
	m, err := model.NewInitialized(cfg, tensor.BF16, hubBenchSeed)
	if err != nil {
		b.Fatal(err)
	}
	o, err := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
	if err != nil {
		b.Fatal(err)
	}
	if err := ckpt.Save(meter, ckpt.SaveSpec{Dir: dir, Model: m, Optim: o,
		WorldSize: 2, Strategy: "full", Dedup: true,
		State: ckpt.TrainerState{Step: 100, Seed: hubBenchSeed}}); err != nil {
		b.Fatal(err)
	}
}

// hubBenchRecord is the schema of BENCH_hub.json.
type hubBenchRecord struct {
	Bench           string  `json:"bench"`
	Model           string  `json:"model"`
	StandaloneBytes int64   `json:"standalone_bytes"`
	AttachedBytes   int64   `json:"attached_bytes"`
	SharedRatio     float64 `json:"shared_ratio"`
	HubBlobs        int     `json:"hub_blobs"`
}

func BenchmarkHubCrossRunDedup(b *testing.B) {
	cfg := modelcfg.Llama32_1B().DefaultSimScale()
	record := hubBenchRecord{Bench: "hub-cross-run-dedup", Model: cfg.Name}

	for i := 0; i < b.N; i++ {
		// Standalone: a fresh run root with its own store pays the full
		// payload on its first save.
		solo := storage.NewMeter(storage.NewMem(), storage.Profile{})
		hubBenchSave(b, solo, cfg, "solo/checkpoint-100")
		record.StandaloneBytes = solo.Stats().BytesWritten

		// Hub-attached: run A warms the shared store (unmetered), then run
		// B saves the same base state — every payload blob is already
		// published, so only manifests and journal records hit the backend.
		mem := storage.NewMem()
		st := llmtailor.NewStore(mem)
		if err := st.Hub("hub").Init(llmtailor.HubOptions{}); err != nil {
			b.Fatal(err)
		}
		for _, r := range []string{"runs/a", "runs/b"} {
			if err := st.Hub("hub").Attach(r, ""); err != nil {
				b.Fatal(err)
			}
		}
		warm := storage.NewMeter(mem, storage.Profile{})
		hubBenchSave(b, warm, cfg, "runs/a/checkpoint-100")
		meter := storage.NewMeter(mem, storage.Profile{})
		hubBenchSave(b, meter, cfg, "runs/b/checkpoint-100")
		record.AttachedBytes = meter.Stats().BytesWritten

		scan, err := ckpt.ScanRun(mem, "runs/b", ckpt.ScanViews{Blobs: true})
		if err != nil {
			b.Fatal(err)
		}
		record.HubBlobs = len(scan.Blobs)
	}

	record.SharedRatio = float64(record.StandaloneBytes) / float64(record.AttachedBytes)
	b.ReportMetric(record.SharedRatio, "x-bytes-shared")
	b.Logf("standalone %d B, hub-attached %d B, shared ratio %.1fx (%d hub blobs)",
		record.StandaloneBytes, record.AttachedBytes, record.SharedRatio, record.HubBlobs)

	// Acceptance floor: a hub-attached peer saving an already-published
	// base must write at least 3x fewer bytes than a standalone first save.
	if record.SharedRatio < 3 {
		b.Fatalf("cross-run dedup ratio %.2fx below the 3x floor (standalone %d B, attached %d B)",
			record.SharedRatio, record.StandaloneBytes, record.AttachedBytes)
	}
	writeBenchJSON(b, "BENCH_hub.json", record)
}
