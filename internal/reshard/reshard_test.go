package reshard

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
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
// same trailer JSON — every target shard carried, spliced or zero-filled,
// for shrinking, growing, same-size and one-rank pairs.
func TestReshardMatchesNativeSave(t *testing.T) {
	m, o := buildOptim(t, 41)
	for _, tc := range []struct{ from, to int }{
		{3, 2}, {2, 3}, {2, 2}, {4, 1}, {1, 5}, {5, 4}, {1, 1}, {1, 4}, {4, 4}, {5, 2}, {2, 7},
	} {
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
			if n := stats.ShardsCarried + stats.ShardsSpliced + stats.ShardsZeroed; stats.Groups == 0 || n != stats.Groups*tc.to {
				t.Fatalf("%d carried + %d spliced + %d zeroed shards, want %d groups × %d ranks",
					stats.ShardsCarried, stats.ShardsSpliced, stats.ShardsZeroed, stats.Groups, tc.to)
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

// TestReshardDecodeMatchesSplice pins the extent splice to the
// gather→repartition reference at the decoded level: every target rank's
// shard of every group, decoded from the resharded checkpoint, is bit for bit
// what zero.Reshard makes of the source's decoded shards, for every
// world-size pair — growing, shrinking, same-size and one-rank.
func TestReshardDecodeMatchesSplice(t *testing.T) {
	m, o := buildOptim(t, 43)
	for _, tc := range []struct{ from, to int }{{1, 1}, {1, 4}, {2, 3}, {3, 2}, {4, 4}, {5, 2}, {2, 7}} {
		b := storage.NewMem()
		saveAt(t, b, "run/checkpoint-10", m, o, tc.from, 10, false)
		if _, err := Reshard(b, "run/checkpoint-10", "run/raw", tc.to, Options{}); err != nil {
			t.Fatalf("%d→%d splice: %v", tc.from, tc.to, err)
		}
		src := readRanks(t, b, "run/checkpoint-10", tc.from)
		dst := readRanks(t, b, "run/raw", tc.to)
		for _, g := range o.Layout.Groups {
			shards := make([]*zero.GroupShard, tc.from)
			for r, f := range src {
				shards[r] = f[g.Index]
			}
			want, err := zero.Reshard(shards, g.Numel, tc.to)
			if err != nil {
				t.Fatalf("%d→%d group %d: decode reference: %v", tc.from, tc.to, g.Index, err)
			}
			for r, f := range dst {
				if got := f[g.Index]; got == nil || !sameShard(got, want[r]) {
					t.Fatalf("%d→%d: rank %d group %d: spliced shard differs from the decoded repartition",
						tc.from, tc.to, r, g.Index)
				}
			}
		}
	}
}

// readRanks decodes every rank's shard of every group of a checkpoint, by
// rank and group index, from the bytes its whole-rank loads place.
func readRanks(t testing.TB, b storage.Backend, dir string, world int) []map[int]*zero.GroupShard {
	t.Helper()
	c, err := ckpt.Open(b, dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.WorldSize() != world {
		t.Fatalf("%s: world size %d, want %d", dir, c.WorldSize(), world)
	}
	ranks := make([]map[int]*zero.GroupShard, world)
	for r := range ranks {
		sb, err := c.ReadOptimShard(r, nil)
		if err != nil {
			t.Fatalf("%s rank %d: %v", dir, r, err)
		}
		ranks[r] = map[int]*zero.GroupShard{}
		for idx, buf := range sb.Groups {
			n := int64(len(buf)) / 12
			s := &zero.GroupShard{GroupIndex: idx, Rank: r,
				Master: make([]float32, n), ExpAvg: make([]float32, n), ExpAvgSq: make([]float32, n)}
			for k, sec := range [][]float32{s.Master, s.ExpAvg, s.ExpAvgSq} {
				tensor.DecodeLE(sec, buf[int64(k)*n*4:])
			}
			ranks[r][idx] = s
		}
	}
	return ranks
}

// sameShard compares two group shards bit for bit.
func sameShard(a, b *zero.GroupShard) bool {
	eq := func(x, y []float32) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
				return false
			}
		}
		return true
	}
	return a.Rank == b.Rank && eq(a.Master, b.Master) && eq(a.ExpAvg, b.ExpAvg) && eq(a.ExpAvgSq, b.ExpAvgSq)
}

// TestReshardInFlightCap holds the reshard to the byte cap: the weights read
// ahead are admitted under Options.MaxInFlight and counted in
// Stats.PeakInFlightBytes while every target shard streams straight into its
// container, so a 2→4 reshard, serial or four ranks side by side, never holds
// more than the cap, and writes the bytes an uncapped reshard writes.
func TestReshardInFlightCap(t *testing.T) {
	m, o := buildOptim(t, 45)
	b := storage.NewMem()
	saveAt(t, b, "run/checkpoint-10", m, o, 2, 10, false)
	var maxWeight, total int64
	for _, ts := range m.Tensors() {
		maxWeight = max(maxWeight, int64(ts.Bytes()))
		total += int64(ts.Bytes())
	}
	// Room for any two weight payloads, far less than the weights.
	limit := 2 * maxWeight
	if limit >= total {
		t.Fatalf("model too small to exercise the cap (largest %d B, total %d B)", maxWeight, total)
	}
	if _, err := Reshard(b, "run/checkpoint-10", "run/uncapped", 4, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		out := fmt.Sprintf("run/capped-%d", workers)
		stats, err := Reshard(b, "run/checkpoint-10", out, 4, Options{Workers: workers, MaxInFlight: limit})
		if err != nil {
			t.Fatal(err)
		}
		if stats.PeakInFlightBytes <= 0 || stats.PeakInFlightBytes > limit {
			t.Errorf("workers %d: peak in flight %d B outside (0, %d]", workers, stats.PeakInFlightBytes, limit)
		}
		if treeDigest(t, b, out) != treeDigest(t, b, "run/uncapped") {
			t.Errorf("workers %d: capped output differs from the uncapped reshard's", workers)
		}
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
// in-place output under any spelling, missing sources.
func TestReshardRejects(t *testing.T) {
	m, o := buildOptim(t, 59)
	b := storage.NewMem()
	saveAt(t, b, "run/checkpoint-5", m, o, 2, 5, false)

	if _, err := Reshard(b, "run/checkpoint-5", "run/out", 0, Options{}); err == nil {
		t.Fatal("world size 0 accepted")
	}
	// The source under any spelling of its own name is in place.
	for _, dst := range []string{"run/checkpoint-5", "./run/checkpoint-5", "run//checkpoint-5", "run/checkpoint-5/"} {
		if _, err := Reshard(b, "run/checkpoint-5", dst, 3, Options{}); err == nil {
			t.Fatalf("in-place reshard to %q accepted", dst)
		}
	}
	if rm, ro, c, err := ckpt.Restore(b, "run/checkpoint-5", tensor.BF16); err != nil || c.State.WorldSize != 2 ||
		!model.Equal(rm, m) || !sameOptim(ro, o) {
		t.Fatalf("a rejected in-place reshard changed the source: %v", err)
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
	if stats.ShardsSpliced == 0 {
		t.Fatalf("a 4→3 reshard spliced no shards: %+v", stats)
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

// spoolCounter counts the scratch spools asked of the backend under it.
type spoolCounter struct {
	storage.Backend
	spools atomic.Int64
}

func (c *spoolCounter) NewSpool() (storage.Spool, error) {
	c.spools.Add(1)
	return storage.NewSpool(c.Backend)
}

func (c *spoolCounter) Unwrap() storage.Backend { return c.Backend }

// A reshard 4→3 computes its spliced shards, which a container can only
// write once their CRCs are known: each shard file spools them, into at most
// one spool of its own, and the weights, taken by reference, need none.
func TestReshardSpoolsOncePerContainer(t *testing.T) {
	m, o := buildOptim(t, 46)
	base := storage.NewMem()
	saveAt(t, base, "run/checkpoint-10", m, o, 4, 10, false)
	b := &spoolCounter{Backend: base}
	if _, err := Reshard(b, "run/checkpoint-10", "run/rs", 3, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if n := b.spools.Load(); n < 1 || n > 3 {
		t.Fatalf("reshard 4→3 asked for %d spools, want 1..3 (one per shard file at most)", n)
	}
}
