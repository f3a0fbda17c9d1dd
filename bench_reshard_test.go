// BenchmarkReshardRawVsDecode measures what the zero-decode extent-splice
// path buys an elastic reshard: the same world-size change run with the
// splice (byte extents stitched straight from source payloads, CRCs
// carried forward where the partitions coincide) and with the gather →
// repartition fallback that decodes every FP32 triple. It emits
// BENCH_reshard.json recording both sides; benchcheck holds the committed
// record to a >= 2x floor.
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

const (
	reshardBenchWorldFrom = 4
	reshardBenchWorldTo   = 3
)

// setupReshardBench saves a sim-scale checkpoint at the source world size.
// The geometry is a step up from DefaultSimScale so the optimizer payload
// dominates the fixed per-reshard cost (weights copy, trailer, commit)
// that both measured sides share.
func setupReshardBench(b *testing.B) (*modelcfg.Config, *storage.Mem) {
	b.Helper()
	cfg := modelcfg.Llama32_1B().Scaled(128, 256, 512)
	back := storage.NewMem()
	m, _ := model.NewInitialized(cfg, tensor.BF16, 44)
	o, _ := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
	if err := ckpt.Save(back, ckpt.SaveSpec{
		Dir: ckpt.DirName(100), Model: m, Optim: o, WorldSize: reshardBenchWorldFrom,
		Strategy: "full", State: ckpt.TrainerState{Step: 100, Seed: 44},
	}); err != nil {
		b.Fatal(err)
	}
	return cfg, back
}

func BenchmarkReshardRawVsDecode(b *testing.B) {
	cfg, back := setupReshardBench(b)
	run := func(b *testing.B, out string, noRaw bool) (*llmtailor.ReshardStats, float64) {
		var last *llmtailor.ReshardStats
		for i := 0; i < b.N; i++ {
			stats, err := llmtailor.NewStore(back).Reshard(ckpt.DirName(100), out,
				reshardBenchWorldTo, llmtailor.ReshardOptions{
					Workers: 4, MaxInFlight: 8 << 20, NoRawCopy: noRaw, NoLatest: true,
				})
			if err != nil {
				b.Fatal(err)
			}
			last = stats
		}
		return last, float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	}

	var record reshardBenchRecord
	record.Bench = "reshard-raw-vs-decode"
	record.Model = cfg.Name
	record.WorldFrom = reshardBenchWorldFrom
	record.WorldTo = reshardBenchWorldTo
	record.MaxInFlight = 8 << 20
	record.Workers = 4
	b.Run("raw", func(b *testing.B) {
		stats, ns := run(b, "out-raw", false)
		if stats.GroupsRawCopied != stats.Groups || stats.Groups == 0 {
			b.Fatalf("splice path did not arm: %+v", stats)
		}
		b.ReportMetric(float64(stats.BytesRawCopied), "bytes-raw-copied/op")
		record.Raw = reshardSideRecord{NsPerOp: ns, Stats: reshardStatsFields(stats)}
	})
	b.Run("decode", func(b *testing.B) {
		stats, ns := run(b, "out-decoded", true)
		if stats.GroupsDecoded != stats.Groups {
			b.Fatalf("NoRawCopy run raw-copied: %+v", stats)
		}
		record.Decode = reshardSideRecord{NsPerOp: ns, Stats: reshardStatsFields(stats)}
	})
	if record.Raw.NsPerOp > 0 && record.Decode.NsPerOp > 0 {
		record.Speedup = record.Decode.NsPerOp / record.Raw.NsPerOp
		writeBenchJSON(b, "BENCH_reshard.json", record)
	}
}

// reshardStatsFields extracts the reshard.Stats counters for the record.
func reshardStatsFields(s *llmtailor.ReshardStats) reshardStatsRecord {
	return reshardStatsRecord{
		Groups:            s.Groups,
		GroupsRawCopied:   s.GroupsRawCopied,
		GroupsDecoded:     s.GroupsDecoded,
		ShardsCarried:     s.ShardsCarried,
		ShardsSpliced:     s.ShardsSpliced,
		ShardsZeroed:      s.ShardsZeroed,
		BytesRawCopied:    s.BytesRawCopied,
		BytesDecoded:      s.BytesDecoded,
		BytesZeroFilled:   s.BytesZeroFilled,
		WeightBytes:       s.WeightBytes,
		PeakInFlightBytes: s.PeakInFlightBytes,
	}
}

// reshardStatsRecord mirrors reshard.Stats in BENCH_reshard.json.
type reshardStatsRecord struct {
	Groups            int   `json:"groups"`
	GroupsRawCopied   int   `json:"groups_raw_copied"`
	GroupsDecoded     int   `json:"groups_decoded"`
	ShardsCarried     int   `json:"shards_carried"`
	ShardsSpliced     int   `json:"shards_spliced"`
	ShardsZeroed      int   `json:"shards_zeroed"`
	BytesRawCopied    int64 `json:"bytes_raw_copied"`
	BytesDecoded      int64 `json:"bytes_decoded"`
	BytesZeroFilled   int64 `json:"bytes_zero_filled"`
	WeightBytes       int64 `json:"weight_bytes"`
	PeakInFlightBytes int64 `json:"peak_inflight_bytes"`
}

// reshardSideRecord is one measured side of BENCH_reshard.json.
type reshardSideRecord struct {
	NsPerOp float64            `json:"ns_per_op"`
	Stats   reshardStatsRecord `json:"stats"`
}

// reshardBenchRecord is the schema of BENCH_reshard.json: the same
// world-size change measured with the zero-decode splice on and off.
type reshardBenchRecord struct {
	Bench       string            `json:"bench"`
	Model       string            `json:"model"`
	WorldFrom   int               `json:"world_from"`
	WorldTo     int               `json:"world_to"`
	MaxInFlight int64             `json:"max_inflight"`
	Workers     int               `json:"workers"`
	Raw         reshardSideRecord `json:"raw"`
	Decode      reshardSideRecord `json:"decode"`
	// Speedup is decode ns/op over raw ns/op (>1 means the splice won).
	Speedup float64 `json:"speedup"`
}
