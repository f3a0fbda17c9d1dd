package modelcfg

// Analytic checkpoint size accounting. A full training checkpoint stores,
// per parameter (paper §2.2):
//
//   - 2 bytes  : BF16 model weight (consolidated weights file)
//   - 4 bytes  : FP32 master weight   (optimizer shard)
//   - 4 bytes  : FP32 Adam exp_avg    (optimizer shard)
//   - 4 bytes  : FP32 Adam exp_avg_sq (optimizer shard)
//
// i.e. 14 bytes/param ≈ "7× the size of the FP16/BF16 model" the paper
// quotes. Applied to the true geometries this reproduces Table 7's
// checkpoint sizes: Llama-3.1-8B → 112.4 GB (paper: 112.47 G),
// Llama-3.2-1B → 17.3 GB (paper: 17.29 G).

const (
	// weightBytesPerParam is the BF16 weight width.
	weightBytesPerParam = 2
	// optimBytesPerParam covers FP32 master + exp_avg + exp_avg_sq.
	optimBytesPerParam = 12
	// ckptBytesPerParam is the full per-parameter checkpoint footprint.
	ckptBytesPerParam = weightBytesPerParam + optimBytesPerParam
)

// WeightBytes returns the consolidated BF16 weights file size.
func (c *Config) WeightBytes() int64 { return c.ParamCount() * weightBytesPerParam }

// OptimBytes returns the total optimizer state bytes across all shards.
func (c *Config) OptimBytes() int64 { return c.ParamCount() * optimBytesPerParam }

// FullCkptBytes returns the size of one complete checkpoint.
func (c *Config) FullCkptBytes() int64 { return c.ParamCount() * ckptBytesPerParam }

// LayerCkptBytes returns the checkpoint footprint of a single mergeable
// layer (weights + optimizer state).
func (c *Config) LayerCkptBytes(ref LayerRef) int64 {
	return c.LayerParamCount(ref) * ckptBytesPerParam
}

// PartialCkptBytes returns the checkpoint footprint of a subset of layers.
func (c *Config) PartialCkptBytes(layers []LayerRef) int64 {
	var n int64
	for _, ref := range layers {
		n += c.LayerCkptBytes(ref)
	}
	return n
}

// GB converts bytes to decimal gigabytes, the unit the paper's tables use
// (e.g. 8.03e9 params × 14 B = 112.4e9 B, reported as "112.47 G").
func GB(b int64) float64 { return float64(b) / 1e9 }
