package tailor

import (
	"fmt"
	"strings"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/storage"
)

// VerifyReport summarises a checkpoint consistency check — the artifact's
// "confirm correctness by comparing size and file structure" task (T2
// analysis). Verify is stricter than structure comparison: it re-reads every
// tensor (CRC-checked by the format layer), confirms the tensor inventory
// matches the config, and cross-checks every optimizer shard against the
// layout geometry.
type VerifyReport struct {
	Dir string
	// Complete mirrors the manifest flag.
	Complete bool
	// WeightTensors is the number of weight tensors validated.
	WeightTensors int
	// ShardFiles is the number of optimizer shard files validated.
	ShardFiles int
	// Groups is the number of optimizer groups covered per rank.
	Groups int
	// Problems lists every inconsistency found (empty = valid).
	Problems []string
}

// OK reports whether the checkpoint passed all checks.
func (r *VerifyReport) OK() bool { return len(r.Problems) == 0 }

// Describe renders the report.
func (r *VerifyReport) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "verify %s: %d weight tensors, %d shard files, %d groups/rank\n",
		r.Dir, r.WeightTensors, r.ShardFiles, r.Groups)
	if r.OK() {
		b.WriteString("  OK\n")
		return b.String()
	}
	for _, p := range r.Problems {
		fmt.Fprintf(&b, "  PROBLEM: %s\n", p)
	}
	return b.String()
}

// Verify checks a checkpoint directory for structural and data consistency:
//
//   - config parses and validates;
//   - every expected weight tensor of the manifest's layers is present with
//     the right shape, and its payload CRC verifies (a full read);
//   - every rank's optimizer shard parses and passes the checks Restore holds
//     it to: it claims its rank and the world size, all ranks record one
//     optimizer step, it stores exactly the layout's groups of the
//     manifest's layers, in index order, with the layout's geometry, every
//     group payload passes its CRC and its padding is zero;
//   - when all of that reads clean, every weight is its master's rounding in
//     the stored dtype, element for element, as Restore returns it.
func Verify(b storage.Backend, dir string) (*VerifyReport, error) {
	rep := &VerifyReport{Dir: dir}
	c, err := ckpt.Open(b, dir)
	if err != nil {
		return nil, err
	}
	rep.Complete = c.Manifest.Complete
	cfg := c.Config

	// Layer set under verification.
	wanted := map[string]bool{}
	for _, l := range c.Manifest.Layers {
		wanted[l] = true
	}
	problem := func(format string, args ...any) {
		rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
	}

	// 1. Weights: presence and shape, from the header or manifest. The
	// payloads' CRCs are checked by the one read below.
	stored := 0
	for _, spec := range cfg.Tensors() {
		if !wanted[spec.Layer.String()] {
			if c.Weights().Has(spec.Name) {
				problem("weight %s present but layer %s not in manifest", spec.Name, spec.Layer)
			}
			continue
		}
		rt, err := c.Weights().RawTensor(spec.Name)
		if err != nil {
			problem("weight %s: %v", spec.Name, err)
			continue
		}
		numel := int64(1)
		for _, d := range rt.Shape {
			numel *= int64(d)
		}
		if numel != spec.NumElems() {
			problem("weight %s: %d elements, want %d", spec.Name, numel, spec.NumElems())
		}
		stored++
	}

	// 2. The trainer state the optimizer shards are checked against.
	if _, err := c.Layout(); err != nil {
		problem("trainer state: %v", err)
		return rep, nil
	}
	if ws := c.WorldSize(); ws <= 0 {
		problem("invalid world size %d", ws)
		return rep, nil
	}

	// 3. One read of every payload — weights CRC-checked, ranks held to the
	// checks Restore holds them to — that reports each failure and goes on.
	rep.WeightTensors = stored
	groups, err := c.ReadState(func(rank int, err error) error {
		if rank >= 0 {
			problem("rank %d: %v", rank, err)
		} else {
			problem("weight payload: %v", err)
			rep.WeightTensors--
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for r, n := range groups {
		if n < 0 {
			continue
		}
		rep.ShardFiles++
		if r == 0 {
			rep.Groups = n
		}
	}
	return rep, nil
}
