package ckpt_test

import (
	"fmt"
	"strings"
	"testing"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/recipe"
	"llmtailor/internal/reshard"
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
// passthrough merge that takes the group from the tampered source fails —
// into a plain output, and into a content-addressed one in the source's own
// store, where the group's blob is carried without a byte moving: the merge
// refuses, the run's latest pointer stays and no output is left. A
// content-addressed group whose recorded CRC disagrees with its bytes (the
// digest still right) fails every reader that replays or decodes it: a plain
// output's container would carry the stale CRC forward, and so would a
// content-addressed output into a fresh store, which replays the bytes. Each
// case fails with an error that names it, and nothing panics.
func TestRestoreRefusesTamperedGroups(t *testing.T) {
	const ws = 3
	for _, tc := range []struct {
		name, want string
		tamper     func(m *ckpt.ShardGroupMeta, s *zero.GroupShard)
		// record: the CRC recorded for rank 1's group 10 is flipped in its
		// shard manifest instead (content-addressed only).
		record bool
	}{
		{name: "index outside the layout", want: "unexpected group 999", tamper: func(m *ckpt.ShardGroupMeta, _ *zero.GroupShard) { m.Index = 999 }},
		{name: "wrong shard length", want: "shard length", tamper: func(_ *ckpt.ShardGroupMeta, s *zero.GroupShard) {
			s.Master, s.ExpAvg, s.ExpAvgSq = append(s.Master, 0), append(s.ExpAvg, 0), append(s.ExpAvgSq, 0)
		}},
		{name: "non-zero padding", want: "non-zero padding", tamper: func(_ *ckpt.ShardGroupMeta, s *zero.GroupShard) { s.ExpAvg[len(s.ExpAvg)-1] = 1 }},
		{name: "CRC record", want: "CRC mismatch", record: true},
	} {
		for _, dedup := range []bool{false, true} {
			if tc.record && !dedup {
				continue
			}
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
				if tc.record {
					gi = 10
					name := dir + "/" + ckpt.ShardManifestName(1)
					sm, err := ckpt.ReadShardManifest(b, name)
					if err != nil {
						t.Fatal(err)
					}
					sm.Groups[gi].CRC32 ^= 1
					if sm.Groups[gi].Index != gi || spec.Optim.Layout.Groups[gi].Layer == modelcfg.Block(0) {
						t.Fatalf("fixture: group %d is not rank 1's outside block 0", gi)
					}
					if err := ckpt.WriteShardManifest(b, name, sm); err != nil {
						t.Fatal(err)
					}
				} else {
					ckpt.TamperGroup(t, b, dir, ws-1, gi, tc.tamper)
				}
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
				merge := func(output string, dedup bool) error {
					_, err := tailor.Merge(b, &recipe.Recipe{MergeMethod: "passthrough", Base: dir, Optimizer: true,
						Output: output, Slices: []recipe.Slice{{Sources: []recipe.Source{
							{Checkpoint: "other/checkpoint-3", LayerRange: [2]int{0, 1}}}}}}, tailor.Options{DedupOutput: dedup})
					return err
				}
				refused("merge", merge("merged/checkpoint-3", false), fmt.Sprintf("group %d", gi))
				if tc.record {
					// A fresh store lacks every blob: the bytes are replayed.
					refused("merge into a fresh store", merge("fresh/checkpoint-3", true), fmt.Sprintf("group %d", gi))
				} else {
					refused("merge into the source's store", merge("run/checkpoint-9", true), fmt.Sprintf("group %d", gi))
					if latest, err := b.ReadFile("run/latest"); err != nil || !strings.Contains(string(latest), "checkpoint-3") {
						t.Errorf("run/latest reads %q (%v), want checkpoint-3", latest, err)
					}
					if b.Exists("run/checkpoint-9") || b.Exists(ckpt.StagingDir("run/checkpoint-9")) {
						t.Error("the refused merge left its output behind")
					}
				}

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

// TestReshardRefusesCarriedPadding: a content-addressed reshard into its
// source's own run root carries every shard whose partition is unchanged
// without moving a byte, so the carry itself must read the padding of a
// carried shard that holds some. With Tiny's layer-wise layout, 7 → 6 is such
// a pair: group 0 (numel 16) has shard length 3 at both world sizes, and rank
// 5 holds 1 data word and 2 padding words. A non-zero padding word there fails
// the reshard, naming the group, and leaves the latest pointer and no output.
func TestReshardRefusesCarriedPadding(t *testing.T) {
	b := storage.NewMem()
	m, o := ckpt.BuildOptim(t, modelcfg.Tiny(), 32)
	const dir = "run/checkpoint-3"
	if err := ckpt.Save(b, ckpt.SaveSpec{Dir: dir, Model: m, Optim: o, WorldSize: 7, Strategy: "full",
		Dedup: true, State: ckpt.TrainerState{Step: 3}}); err != nil {
		t.Fatal(err)
	}
	if g := o.Layout.Groups[0]; g.Numel != 16 {
		t.Fatalf("fixture: group 0 has numel %d, want 16", g.Numel)
	}
	ckpt.TamperGroup(t, b, dir, 5, 0, func(_ *ckpt.ShardGroupMeta, s *zero.GroupShard) { s.ExpAvg[len(s.ExpAvg)-1] = 1 })
	_, err := reshard.Reshard(b, dir, "run/checkpoint-4", 6, reshard.Options{Dedup: true})
	for _, want := range []string{"group 0", "non-zero padding"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("reshard: %v, want an error naming %q", err, want)
		}
	}
	if latest, err := b.ReadFile("run/latest"); err != nil || !strings.Contains(string(latest), "checkpoint-3") {
		t.Errorf("run/latest reads %q (%v), want checkpoint-3", latest, err)
	}
	if b.Exists("run/checkpoint-4") || b.Exists(ckpt.StagingDir("run/checkpoint-4")) {
		t.Error("the refused reshard left its output behind")
	}
}
