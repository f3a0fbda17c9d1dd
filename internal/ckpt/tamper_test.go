package ckpt_test

import (
	"fmt"
	"strings"
	"testing"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/recipe"
	"llmtailor/internal/storage"
	"llmtailor/internal/tailor"
	"llmtailor/internal/tensor"
	"llmtailor/internal/zero"
)

// TestRestoreRefusesTamperedGroups: Restore decodes every rank's groups
// straight into the optimizer state it returns, so a group whose metadata
// disagrees with the layout must be refused before a byte of it is placed,
// and padding past a group's numel must still be zero — plain and
// content-addressed alike, each tampered group written back whole with a
// matching CRC, so only the layout and padding checks can see it. Every other
// reader of a rank's bytes holds it to the same checks: Verify lists the
// problem, AdoptAll quarantines the directory once its marker is gone, and a
// passthrough merge that takes the group from the tampered source fails. Each
// case fails with an error that names it, and nothing panics.
func TestRestoreRefusesTamperedGroups(t *testing.T) {
	const ws = 3
	for _, tc := range []struct {
		name, want string
		tamper     func(m *ckpt.ShardGroupMeta, s *zero.GroupShard)
	}{
		{"index outside the layout", "unexpected group 999", func(m *ckpt.ShardGroupMeta, _ *zero.GroupShard) { m.Index = 999 }},
		{"wrong shard length", "shard length", func(_ *ckpt.ShardGroupMeta, s *zero.GroupShard) {
			s.Master, s.ExpAvg, s.ExpAvgSq = append(s.Master, 0), append(s.ExpAvg, 0), append(s.ExpAvgSq, 0)
		}},
		{"non-zero padding", "non-zero padding", func(_ *ckpt.ShardGroupMeta, s *zero.GroupShard) { s.ExpAvg[len(s.ExpAvg)-1] = 1 }},
	} {
		for _, dedup := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/dedup=%v", tc.name, dedup), func(t *testing.T) {
				b := storage.NewMem()
				save := func(dir string, seed uint64) *ckpt.SaveSpec {
					m, o := ckpt.BuildOptim(t, modelcfg.Tiny(), seed)
					spec := ckpt.SaveSpec{Dir: dir, Model: m, Optim: o, WorldSize: ws, Strategy: "full",
						Dedup: dedup, State: ckpt.TrainerState{Step: 3}}
					if err := ckpt.Save(b, spec); err != nil {
						t.Fatal(err)
					}
					return &spec
				}
				dir := "run/checkpoint-3"
				spec := save(dir, 32)
				save("other/checkpoint-3", 33)
				// The last group padded on the last rank: its padding is the
				// shard's last word.
				gi := -1
				for i, g := range spec.Optim.Layout.Groups {
					if g.Numel%ws != 0 {
						gi = i
					}
				}
				if gi < 0 || spec.Optim.Layout.Groups[gi].Layer == modelcfg.Block(0) {
					t.Fatal("fixture: no group is padded outside block 0")
				}
				ckpt.TamperGroup(t, b, dir, ws-1, gi, tc.tamper)
				refused := func(reader string, err error, names ...string) {
					t.Helper()
					for _, want := range append(names, tc.want) {
						if err == nil || !strings.Contains(err.Error(), want) {
							t.Errorf("%s: %v, want an error naming %q", reader, err, want)
						}
					}
				}

				_, ro, _, err := ckpt.Restore(b, dir, tensor.BF16)
				if refused("restore", err); ro != nil {
					t.Error("restore returned an optimizer")
				}

				rep, err := tailor.Verify(b, dir)
				if err != nil {
					t.Fatal(err)
				}
				if refused("verify", fmt.Errorf("%s", strings.Join(rep.Problems, "\n"))); rep.OK() {
					t.Error("verify: OK")
				}

				// Block 0 from the other checkpoint, every other layer — the
				// tampered group's included — from the tampered one.
				_, err = tailor.Merge(b, &recipe.Recipe{MergeMethod: "passthrough", Base: dir, Optimizer: true,
					Output: "merged/checkpoint-3", Slices: []recipe.Slice{{Sources: []recipe.Source{
						{Checkpoint: "other/checkpoint-3", LayerRange: [2]int{0, 1}}}}}}, tailor.Options{})
				refused("merge", err, fmt.Sprintf("group %d", gi))

				if err := b.Remove(dir + "/" + ckpt.CommitMarkerName); err != nil {
					t.Fatal(err)
				}
				adopt, err := ckpt.AdoptAll(b, "run")
				if err != nil {
					t.Fatal(err)
				}
				if len(adopt.Adopted) != 0 || len(adopt.Quarantined) != 1 {
					t.Fatalf("adopt: %+v, want the directory quarantined", adopt)
				}
				refused("adopt", fmt.Errorf("%s", adopt.Reasons[0]))
			})
		}
	}
}
