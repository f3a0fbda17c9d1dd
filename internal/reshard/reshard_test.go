package reshard

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
	"llmtailor/internal/zero"
)

// buildOptim builds a tiny model and an optimizer with a few real steps of
// state, mirroring the ckpt test fixture.
func buildOptim(t testing.TB, seed uint64) (*model.Model, *optim.AdamW) {
	t.Helper()
	cfg := modelcfg.Tiny()
	m, err := model.NewInitialized(cfg, tensor.BF16, seed)
	if err != nil {
		t.Fatal(err)
	}
	o, err := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(seed + 1)
	grads := optim.GradMap{}
	for _, ts := range m.Tensors() {
		g := make([]float32, ts.Len())
		for i := range g {
			g[i] = rng.NormFloat32() * 0.1
		}
		grads[ts.Name] = g
	}
	for i := 0; i < 3; i++ {
		if err := o.Step(1e-3, grads); err != nil {
			t.Fatal(err)
		}
	}
	return m, o
}

func saveAt(t testing.TB, b storage.Backend, dir string, m *model.Model, o *optim.AdamW, world, step int, dedup bool) {
	t.Helper()
	err := ckpt.Save(b, ckpt.SaveSpec{
		Dir: dir, Model: m, Optim: o, WorldSize: world, Strategy: "full", Dedup: dedup,
		State: ckpt.TrainerState{Step: step, Seed: 7},
	})
	if err != nil {
		t.Fatalf("save %s: %v", dir, err)
	}
}

func sameOptim(a, b *optim.AdamW) bool {
	if a.StepCount != b.StepCount || len(a.States) != len(b.States) {
		return false
	}
	for i := range a.States {
		x, y := a.States[i], b.States[i]
		if len(x.Master) != len(y.Master) {
			return false
		}
		for j := range x.Master {
			if x.Master[j] != y.Master[j] || x.ExpAvg[j] != y.ExpAvg[j] || x.ExpAvgSq[j] != y.ExpAvgSq[j] {
				return false
			}
		}
	}
	return true
}

// treeDigest hashes a directory tree's file names and contents.
func treeDigest(t testing.TB, b storage.Backend, dir string) string {
	t.Helper()
	h := sha256.New()
	var walk func(d string)
	walk = func(d string) {
		entries, err := b.List(d)
		if err != nil {
			t.Fatalf("list %s: %v", d, err)
		}
		sort.Strings(entries)
		for _, e := range entries {
			if strings.HasSuffix(e, "/") {
				walk(d + "/" + strings.TrimSuffix(e, "/"))
				continue
			}
			data, err := b.ReadFile(d + "/" + e)
			if err != nil {
				t.Fatalf("read %s/%s: %v", d, e, err)
			}
			fmt.Fprintf(h, "%s:%d:", e, len(data))
			h.Write(data)
		}
	}
	walk(dir)
	return hex.EncodeToString(h.Sum(nil))
}

// TestReshardMatchesNativeSave is the golden byte-identity test: a
// checkpoint saved at N and resharded to M must be byte-for-byte the
// checkpoint a native save at M writes — same shard payloads, same CRCs,
// same trailer JSON — with the raw-copy path engaged throughout.
func TestReshardMatchesNativeSave(t *testing.T) {
	m, o := buildOptim(t, 41)
	for _, tc := range []struct{ from, to int }{{3, 2}, {2, 3}, {2, 2}, {4, 1}, {1, 5}, {5, 4}} {
		t.Run(fmt.Sprintf("%d_to_%d", tc.from, tc.to), func(t *testing.T) {
			b := storage.NewMem()
			saveAt(t, b, "run/checkpoint-30", m, o, tc.from, 30, false)
			saveAt(t, b, "native/checkpoint-30", m, o, tc.to, 30, false)

			stats, err := Reshard(b, "run/checkpoint-30", "run/resharded", tc.to, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := ckpt.VerifyCommit(b, "run/resharded"); err != nil {
				t.Fatalf("resharded output not committed: %v", err)
			}
			if got, want := treeDigest(t, b, "run/resharded"), treeDigest(t, b, "native/checkpoint-30"); got != want {
				t.Fatalf("resharded %d→%d differs from native save at %d", tc.from, tc.to, tc.to)
			}
			if stats.GroupsRawCopied != stats.Groups || stats.GroupsDecoded != 0 {
				t.Fatalf("raw-copy path did not engage: %d/%d groups raw, %d decoded",
					stats.GroupsRawCopied, stats.Groups, stats.GroupsDecoded)
			}
			if tc.from == tc.to && stats.ShardsCarried != stats.Groups*tc.to {
				t.Fatalf("same-size reshard carried %d shards, want %d", stats.ShardsCarried, stats.Groups*tc.to)
			}
			// The latest pointer moved to the resharded output.
			latest, err := ckpt.Latest(b, "run")
			if err != nil || latest != "run/resharded" {
				t.Fatalf("latest = %q, %v", latest, err)
			}
		})
	}
}

// TestReshardDecodeMatchesSplice pins the two paths to identical bytes:
// the extent-splice transform and the gather→repartition reference must
// write the same output for every world-size pair.
func TestReshardDecodeMatchesSplice(t *testing.T) {
	m, o := buildOptim(t, 43)
	for _, tc := range []struct{ from, to int }{{1, 1}, {1, 4}, {2, 3}, {3, 2}, {4, 4}, {5, 2}, {2, 7}} {
		b := storage.NewMem()
		saveAt(t, b, "run/checkpoint-10", m, o, tc.from, 10, false)
		if _, err := Reshard(b, "run/checkpoint-10", "run/raw", tc.to, Options{}); err != nil {
			t.Fatalf("%d→%d splice: %v", tc.from, tc.to, err)
		}
		stats, err := Reshard(b, "run/checkpoint-10", "run/decoded", tc.to, Options{NoRawCopy: true})
		if err != nil {
			t.Fatalf("%d→%d decode: %v", tc.from, tc.to, err)
		}
		if stats.GroupsDecoded != stats.Groups || stats.GroupsRawCopied != 0 {
			t.Fatalf("%d→%d: NoRawCopy still raw-copied %d groups", tc.from, tc.to, stats.GroupsRawCopied)
		}
		if treeDigest(t, b, "run/raw") != treeDigest(t, b, "run/decoded") {
			t.Fatalf("%d→%d: splice and decode paths disagree", tc.from, tc.to)
		}
	}
}

// TestReshardDecodeInFlightCap holds the decode fallback to the byte cap:
// each decoded target shard is admitted under Options.MaxInFlight and
// counted in Stats.PeakInFlightBytes, so a 2→4 reshard, serial or four
// ranks side by side, never holds more than the cap — nor every group's
// decoded targets until the last rank is written.
func TestReshardDecodeInFlightCap(t *testing.T) {
	m, o := buildOptim(t, 45)
	b := storage.NewMem()
	saveAt(t, b, "run/checkpoint-10", m, o, 2, 10, false)
	var maxWeight, maxShard int64
	for _, ts := range m.Tensors() {
		maxWeight = max(maxWeight, int64(ts.Bytes()))
	}
	for _, st := range o.States {
		p, err := zero.NewPartition(st.Numel(), 4)
		if err != nil {
			t.Fatal(err)
		}
		maxShard = max(maxShard, p.ShardLen()*12)
	}
	// Room for any one payload (a decoded shard plus its read buffer), far
	// less than the optimizer state.
	limit := max(maxWeight, 2*maxShard)
	for _, workers := range []int{1, 4} {
		out := fmt.Sprintf("run/decoded-%d", workers)
		stats, err := Reshard(b, "run/checkpoint-10", out, 4, Options{NoRawCopy: true, Workers: workers, MaxInFlight: limit})
		if err != nil {
			t.Fatal(err)
		}
		if stats.PeakInFlightBytes > limit {
			t.Errorf("workers %d: peak in flight %d B over the %d B cap", workers, stats.PeakInFlightBytes, limit)
		}
		if stats.PeakInFlightBytes < maxShard {
			t.Errorf("workers %d: peak in flight %d B below the largest decoded shard (%d B): the decode is not counted", workers, stats.PeakInFlightBytes, maxShard)
		}
	}
	if _, err := Reshard(b, "run/checkpoint-10", "run/raw", 4, Options{}); err != nil {
		t.Fatal(err)
	}
	if treeDigest(t, b, "run/raw") != treeDigest(t, b, "run/decoded-1") || treeDigest(t, b, "run/raw") != treeDigest(t, b, "run/decoded-4") {
		t.Fatal("capped decode output differs from the splice's")
	}
}

// TestReshardRestoresIdentically proves the semantic property end to end:
// restoring the resharded checkpoint yields exactly the model and full
// optimizer state of the source, for arbitrary (N, M).
func TestReshardRestoresIdentically(t *testing.T) {
	m, o := buildOptim(t, 47)
	for _, tc := range []struct{ from, to int }{{3, 2}, {2, 5}, {5, 3}, {1, 2}, {6, 5}} {
		b := storage.NewMem()
		saveAt(t, b, "run/checkpoint-12", m, o, tc.from, 12, false)
		if _, err := Reshard(b, "run/checkpoint-12", "run/resharded", tc.to, Options{Workers: 3, MaxInFlight: 1 << 20}); err != nil {
			t.Fatalf("%d→%d: %v", tc.from, tc.to, err)
		}
		rm, ro, c, err := ckpt.Restore(b, "run/resharded", tensor.BF16)
		if err != nil {
			t.Fatalf("%d→%d restore: %v", tc.from, tc.to, err)
		}
		if c.State.WorldSize != tc.to {
			t.Fatalf("%d→%d: restored world size %d", tc.from, tc.to, c.State.WorldSize)
		}
		if !model.Equal(rm, m) {
			t.Fatalf("%d→%d: weights differ after reshard", tc.from, tc.to)
		}
		if !sameOptim(ro, o) {
			t.Fatalf("%d→%d: optimizer state differs after reshard", tc.from, tc.to)
		}
	}
}

// TestReshardDedup covers dedup in both directions: a content-addressed
// source reshards through blob extents, and a dedup output composes with
// the existing store — every weight blob dedups against the source's, and
// aligned group shards reuse existing blobs by content address.
func TestReshardDedup(t *testing.T) {
	m, o := buildOptim(t, 53)
	b := storage.NewMem()
	saveAt(t, b, "run/checkpoint-20", m, o, 3, 20, true)

	stats, err := Reshard(b, "run/checkpoint-20", "run/resharded", 2, Options{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ckpt.IsDedup(b, "run/resharded") {
		t.Fatal("output is not content-addressed")
	}
	if stats.BlobsReused == 0 {
		t.Fatal("no blobs deduplicated — weight payloads should all reuse the source's")
	}
	rm, ro, c, err := ckpt.Restore(b, "run/resharded", tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}
	if c.State.WorldSize != 2 || !model.Equal(rm, m) || !sameOptim(ro, o) {
		t.Fatal("dedup reshard does not restore to the source state")
	}

	// GC with both checkpoints live must keep every referenced blob; both
	// must still restore afterwards.
	if _, err := ckpt.GC(b, "run"); err != nil {
		t.Fatalf("gc: %v", err)
	}
	for _, dir := range []string{"run/checkpoint-20", "run/resharded"} {
		if _, _, _, err := ckpt.Restore(b, dir, tensor.BF16); err != nil {
			t.Fatalf("restore %s after gc: %v", dir, err)
		}
	}
}

// TestReshardRejects pins the validation surface: bad world sizes,
// in-place output, partial sources.
func TestReshardRejects(t *testing.T) {
	m, o := buildOptim(t, 59)
	b := storage.NewMem()
	saveAt(t, b, "run/checkpoint-5", m, o, 2, 5, false)

	if _, err := Reshard(b, "run/checkpoint-5", "run/out", 0, Options{}); err == nil {
		t.Fatal("world size 0 accepted")
	}
	if _, err := Reshard(b, "run/checkpoint-5", "run/checkpoint-5", 3, Options{}); err == nil {
		t.Fatal("in-place reshard accepted")
	}
	if _, err := Reshard(b, "run/missing", "run/out", 3, Options{}); err == nil {
		t.Fatal("missing source accepted")
	}
}

// TestReshardObjStore runs the transform against the no-rename object
// store: the clear-marker-first commit protocol must publish a verifiable
// checkpoint that restores identically.
func TestReshardObjStore(t *testing.T) {
	m, o := buildOptim(t, 61)
	b := storage.NewObjStore()
	saveAt(t, b, "run/checkpoint-8", m, o, 4, 8, false)

	stats, err := Reshard(b, "run/checkpoint-8", "run/resharded", 3, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.GroupsRawCopied != stats.Groups {
		t.Fatalf("raw path engaged on %d/%d groups", stats.GroupsRawCopied, stats.Groups)
	}
	if err := ckpt.VerifyCommit(b, "run/resharded"); err != nil {
		t.Fatal(err)
	}
	rm, ro, _, err := ckpt.Restore(b, "run/resharded", tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}
	if !model.Equal(rm, m) || !sameOptim(ro, o) {
		t.Fatal("objstore reshard does not restore to the source state")
	}
}
