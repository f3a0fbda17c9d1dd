package tailor

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/recipe"
	"llmtailor/internal/storage"
)

// mutationHook calls before ahead of every mutating operation, with the key it
// lands on (a rename's target): a local twin of internal/ckpt's opLog hook.
type mutationHook struct {
	storage.Backend
	before func(key string)
}

func (h *mutationHook) WriteFile(name string, data []byte) error {
	h.before(name)
	return h.Backend.WriteFile(name, data)
}

func (h *mutationHook) Rename(oldName, newName string) error {
	h.before(newName)
	return h.Backend.Rename(oldName, newName)
}

func (h *mutationHook) Remove(name string) error {
	h.before(name)
	return h.Backend.Remove(name)
}

func (h *mutationHook) Unwrap() storage.Backend { return h.Backend }

// TestPublishedDirectoryIsImmutable: a reader that finds a dedup output — it
// resolved latest, or listed the run root — must be able to keep reading what
// it opened. At the first mutating operation after the output is published
// (for a merge that is the write of the run root's latest pointer; a
// weights-only blend has none, and then nothing may follow at all) the output
// is opened and its tree recorded; when the producing call returns the tree is
// byte-identical and the handle opened back then still reads everything, bit
// for bit what a fresh handle reads. When a dedup output was published plain
// and converted in place, the early handle had decided "plain" and lost its
// containers under it.
func TestPublishedDirectoryIsImmutable(t *testing.T) {
	cfg := modelcfg.Tiny()
	backends := map[string]func() storage.Backend{
		"mem":      func() storage.Backend { return storage.NewMem() },
		"objstore": func() storage.Backend { return storage.NewObjStore() },
	}
	recipes := map[string]*recipe.Recipe{
		"merge": recipe.Parity("run/checkpoint-5", "run/checkpoint-10", cfg, "run/merged"),
		"blend": {
			MergeMethod: "linear",
			Models: []recipe.WeightedSource{
				{Checkpoint: "run/checkpoint-5"},
				{Checkpoint: "run/checkpoint-10"},
			},
			Output: "run/soup",
		},
	}
	for bname, mk := range backends {
		for rname, rec := range recipes {
			t.Run(bname+"/"+rname, func(t *testing.T) {
				base := mk()
				newRun(t, base, cfg, 2, []int{5, 10}, nil)
				out := rec.Output

				var (
					mu       sync.Mutex
					early    *ckpt.Checkpoint
					tree     string
					firedKey string
				)
				hook := &mutationHook{Backend: base, before: func(key string) {
					mu.Lock()
					defer mu.Unlock()
					if early != nil || ckpt.CheckCommit(base, out) != nil {
						return
					}
					c, err := ckpt.Open(base, out)
					if err != nil {
						t.Errorf("open the published output: %v", err)
						return
					}
					early, tree, firedKey = c, mergeTreeDigest(t, base, out), key
				}}
				if _, err := Merge(hook, rec, Options{Workers: 2, DedupOutput: true}); err != nil {
					t.Fatal(err)
				}
				switch {
				case rec.IsBlend() && early != nil:
					t.Fatalf("a weights-only blend touched %s after publishing its output", firedKey)
				case !rec.IsBlend() && !strings.HasPrefix(firedKey, "run/latest"): // latest.tmp where the pointer is staged and renamed
					t.Fatalf("the first operation after publication landed on %q, want the latest pointer", firedKey)
				}
				if early == nil { // nothing followed the publication
					c, err := ckpt.Open(base, out)
					if err != nil {
						t.Fatal(err)
					}
					early, tree = c, mergeTreeDigest(t, base, out)
				}
				if !ckpt.IsDedup(base, out) {
					t.Fatal("the output is not content-addressed")
				}
				if got := mergeTreeDigest(t, base, out); got != tree {
					t.Fatal("the output's files changed after it was published")
				}
				fresh, err := ckpt.Open(base, out)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Weights().ReadAll()
				if err != nil {
					t.Fatal(err)
				}
				got, err := early.Weights().ReadAll()
				if err != nil {
					t.Fatalf("the handle opened at publication lost its weights: %v", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatal("the handle opened at publication reads other weights than a fresh one")
				}
				if rec.IsBlend() {
					return
				}
				wantShards, err := placedBytes(fresh)
				if err != nil {
					t.Fatal(err)
				}
				gotShards, err := placedBytes(early)
				if err != nil {
					t.Fatalf("the handle opened at publication lost its optimizer shards: %v", err)
				}
				if !reflect.DeepEqual(gotShards, wantShards) {
					t.Fatal("the handle opened at publication reads other optimizer state than a fresh one")
				}
			})
		}
	}
}

// placedBytes is every rank's optimizer shard of c as the whole-rank load
// places it: each group's checked bytes, by rank.
func placedBytes(c *ckpt.Checkpoint) ([]*ckpt.ShardBytes, error) {
	ranks := make([]*ckpt.ShardBytes, c.WorldSize())
	for r := range ranks {
		var err error
		if ranks[r], err = c.ReadOptimShard(r, nil); err != nil {
			return nil, err
		}
	}
	return ranks, nil
}
