package ckpt

import (
	"fmt"
	"sort"

	"llmtailor/internal/modelcfg"
	"llmtailor/internal/storage"
)

// LayerDeltaRow is one layer's share of a dedup checkpoint, split into
// bytes the save actually moved (digests absent from the previous
// checkpoint — new content that had to be stored) and bytes it merely
// referenced (digests the previous checkpoint already pinned).
type LayerDeltaRow struct {
	// Layer is the mergeable unit ("block-3", "embed", ...), or
	// "(unlayered)" for optimizer groups saved without a layer binding.
	Layer string
	// Payloads counts the layer's manifest entries (weight tensors plus
	// per-rank optimizer group shards).
	Payloads int
	// Bytes is the layer's total payload size.
	Bytes int64
	// BytesMoved is the size of payloads new relative to the previous
	// checkpoint (all of Bytes when there is no previous checkpoint).
	BytesMoved int64
	// BytesReused is the size of payloads whose digest the previous
	// checkpoint also references.
	BytesReused int64
	// BytesStored is the layer's on-disk footprint after blob compression:
	// the sum of each entry's stored (encoded) size, falling back to the
	// payload size for raw entries. Equal to Bytes for uncompressed
	// checkpoints.
	BytesStored int64
	// Changed is set when any payload moved.
	Changed bool
}

// unlayered names the delta row of payloads with no layer binding.
const unlayered = "(unlayered)"

// LayerDelta breaks a dedup checkpoint down per layer: how many payload
// bytes each layer moved versus reused against prevDir (the previous
// checkpoint of the same run; "" treats every payload as moved). Rows
// come back in the model's layer order, with an "(unlayered)" row last
// when optimizer groups were saved without a layer binding. Both
// directories must be content-addressed — plain containers record no
// digests to diff.
func LayerDelta(b storage.Backend, dir, prevDir string) ([]LayerDeltaRow, error) {
	if !IsDedup(b, dir) {
		return nil, fmt.Errorf("ckpt: %s is not content-addressed (no %s)", dir, WeightManifestName)
	}
	prev := map[string]bool{}
	if prevDir != "" {
		if !IsDedup(b, prevDir) {
			return nil, fmt.Errorf("ckpt: %s is not content-addressed (no %s)", prevDir, WeightManifestName)
		}
		err := walkBlobRefs(b, prevDir, func(_ string, r blobRef) error {
			prev[r.Digest] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	cfg := &modelcfg.Config{}
	if err := readJSON(b, dir+"/config.json", cfg); err != nil {
		return nil, err
	}
	weightLayer := map[string]string{}
	for _, spec := range cfg.Tensors() {
		weightLayer[spec.Name] = spec.Layer.String()
	}

	rows := map[string]*LayerDeltaRow{}
	add := func(layer string, size, stored int64, digest string) {
		if layer == "" {
			layer = unlayered
		}
		row := rows[layer]
		if row == nil {
			row = &LayerDeltaRow{Layer: layer}
			rows[layer] = row
		}
		row.Payloads++
		row.Bytes += size
		if stored <= 0 {
			stored = size // raw entry: stored verbatim
		}
		row.BytesStored += stored
		if prev[digest] {
			row.BytesReused += size
		} else {
			row.BytesMoved += size
			row.Changed = true
		}
	}

	wm, sms, err := readManifests(b, dir)
	if err != nil {
		return nil, err
	}
	for _, e := range wm.Tensors {
		add(weightLayer[e.Name], e.Size, e.Stored, e.Digest)
	}
	for _, sm := range sms {
		for _, g := range sm.Groups {
			add(g.Layer, g.Size, g.Stored, g.Digest)
		}
	}

	// Model layer order, then anything the config does not name.
	order := map[string]int{}
	for i, ref := range cfg.AllLayers() {
		order[ref.String()] = i
	}
	out := make([]LayerDeltaRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		oi, iok := order[out[i].Layer]
		oj, jok := order[out[j].Layer]
		if iok != jok {
			return iok
		}
		if iok && jok && oi != oj {
			return oi < oj
		}
		return out[i].Layer < out[j].Layer
	})
	return out, nil
}

// PreviousCheckpoint resolves the committed checkpoint immediately
// preceding dir under its run root ("" when dir is the oldest). The run
// root is dir's parent directory.
func PreviousCheckpoint(b storage.Backend, dir string) (string, error) {
	runRoot := runRootOf(dir)
	dirs, err := List(b, runRoot)
	if err != nil {
		return "", err
	}
	prev := ""
	for _, d := range dirs {
		if d == dir {
			return prev, nil
		}
		prev = d
	}
	return "", fmt.Errorf("ckpt: %s is not a committed checkpoint under %q", dir, runRoot)
}
