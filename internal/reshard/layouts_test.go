package reshard

// Reshard's columns of the read-stage tables (internal/ckpt/read_test.go):
// the source's layout — plain containers, or blobs under any codec — never
// shows in the output, and a corrupt source payload fails the reshard.

import (
	"fmt"
	"strings"
	"testing"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/storage"
)

var sourceLayouts = []string{"plain", "raw", "plane", "xor"}

// saveLayouts writes one state at world size 4 as <layout>/checkpoint-300
// for every layout (the xor run with two earlier generations, so its chains
// are two deep), plus a native world-size-3 save of the same state.
func saveLayouts(t testing.TB, b storage.Backend) {
	t.Helper()
	m, o := buildOptim(t, 170)
	// Zeroed moments byte-plane-compress, so the plane layout really stores
	// the last group coded.
	last := o.States[len(o.States)-1]
	for i := range last.ExpAvg {
		last.ExpAvg[i], last.ExpAvgSq[i] = 0, 0
	}
	save := func(layout string, step, world int) {
		t.Helper()
		spec := ckpt.SaveSpec{Dir: fmt.Sprintf("%s/checkpoint-%d", layout, step), Model: m, Optim: o,
			WorldSize: world, Strategy: "full", State: ckpt.TrainerState{Step: step, Seed: 7}}
		if layout != "plain" && layout != "native" {
			spec.Dedup, spec.Codec = true, layout
		}
		if err := ckpt.Save(b, spec); err != nil {
			t.Fatalf("save %s: %v", spec.Dir, err)
		}
	}
	for step := 100; step < 300; step += 100 {
		save("xor", step, 4)
		// A small training step on one block's groups: most bytes unchanged.
		for gi, g := range o.Layout.Groups {
			if !g.HasLayer || g.Layer != o.Layout.Groups[len(o.Layout.Groups)/2].Layer {
				continue
			}
			for k := 0; k < len(o.States[gi].Master); k += 97 {
				o.States[gi].Master[k] += float32(step) * 1e-4
			}
		}
		if err := o.SyncModelFromMaster(); err != nil {
			t.Fatal(err)
		}
	}
	for _, layout := range sourceLayouts {
		save(layout, 300, 4)
	}
	save("native", 300, 3)
	if cs, err := ckpt.ReadCodecStats(b, "xor/checkpoint-300"); err != nil || cs.DeepestChain < 2 {
		t.Fatalf("fixture: xor chains %+v (%v), want depth >= 2", cs, err)
	}
	if cs, err := ckpt.ReadCodecStats(b, "plane/checkpoint-300"); err != nil || cs.Entries["plane"] == 0 {
		t.Fatalf("fixture: no plane-coded entries: %+v (%v)", cs, err)
	}
}

// TestReshardLayoutParity: resharding 4→3 from any source layout, on a
// rename and a no-rename backend, writes the bytes a native save at 3 does.
func TestReshardLayoutParity(t *testing.T) {
	for name, b := range map[string]storage.Backend{"mem": storage.NewMem(), "objstore": storage.NewObjStore()} {
		t.Run(name, func(t *testing.T) {
			saveLayouts(t, b)
			want := treeDigest(t, b, "native/checkpoint-300")
			for _, layout := range sourceLayouts {
				out := layout + "/resharded"
				if _, err := Reshard(b, layout+"/checkpoint-300", out, 3, Options{Workers: 2}); err != nil {
					t.Fatalf("%s: %v", layout, err)
				}
				if got := treeDigest(t, b, out); got != want {
					t.Errorf("%s: resharded output differs from the native world-size-3 save", layout)
				}
			}
		})
	}
}

// TestReshardCorruptSource: a flipped byte in an LTSF tensor, an LTOS group,
// a raw blob or a coded blob fails the reshard under default options with an
// error naming the payload, and publishes nothing. Every source payload is
// checked once: weights and carried shards as they are replayed by
// reference, a spliced group's sources in one streaming pass before its
// first target shard is stitched from their extents.
func TestReshardCorruptSource(t *testing.T) {
	cases := []struct {
		name, layout string
		weight       bool
	}{
		{"ltsf tensor", "plain", true},
		{"ltos group", "plain", false},
		{"raw blob", "raw", true},
		{"coded blob", "plane", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := storage.NewMem()
			saveLayouts(t, b)
			dir := tc.layout + "/checkpoint-300"
			c, err := ckpt.Open(b, dir)
			if err != nil {
				t.Fatal(err)
			}
			// Victims: the weight and the rank-1 group stored last, so a flip
			// near the end of a plain container lands inside them.
			groups, _, err := c.OptimExtents(1)
			if err != nil {
				t.Fatal(err)
			}
			group := groups[len(groups)-1]
			object, pos, payload := dir+"/"+ckpt.ShardFileName(1), -3, fmt.Sprintf("group %d", group.Index)
			if tc.weight {
				object, payload = dir+"/model.ltsf", "lm_head.weight"
			}
			if tc.layout != "plain" {
				object, pos = blobPath(t, b, tc.layout, tc.weight, payload, group.Index), 0
			}
			data, err := b.ReadFile(object)
			if err != nil {
				t.Fatal(err)
			}
			if pos == 0 {
				pos = len(data) / 2
			} else {
				pos += len(data)
			}
			data[pos] ^= 0x20
			if err := b.WriteFile(object, data); err != nil {
				t.Fatal(err)
			}

			_, err = Reshard(b, dir, tc.layout+"/resharded", 3, Options{})
			if err == nil {
				t.Fatal("reshard accepted a corrupt source payload")
			}
			if !strings.Contains(err.Error(), payload) {
				t.Fatalf("error does not name %s: %v", payload, err)
			}
			if b.Exists(tc.layout + "/resharded") {
				t.Fatal("failed reshard published an output directory")
			}
		})
	}
}

// blobPath finds the stored object behind one manifest entry.
func blobPath(t *testing.T, b storage.Backend, layout string, weight bool, tensorName string, groupIdx int) string {
	t.Helper()
	dir := layout + "/checkpoint-300"
	store := storage.NewBlobStore(b, ckpt.ObjectsRoot(dir))
	if weight {
		wm, err := ckpt.ReadWeightManifest(b, dir+"/"+ckpt.WeightManifestName)
		if err != nil {
			t.Fatal(err)
		}
		e, ok := wm.Entry(tensorName)
		if !ok {
			t.Fatalf("fixture: no tensor %s", tensorName)
		}
		return store.Path(e.Digest)
	}
	sm, err := ckpt.ReadShardManifest(b, dir+"/"+ckpt.ShardManifestName(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range sm.Groups {
		if g.Index == groupIdx {
			if g.Codec != layout {
				t.Fatalf("fixture: group %d stored as %q, want %s", groupIdx, g.Codec, layout)
			}
			return store.Path(g.Digest)
		}
	}
	t.Fatalf("fixture: no group %d", groupIdx)
	return ""
}
