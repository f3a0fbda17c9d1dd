package reshard

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"llmtailor/internal/ckpt"
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

// TestPublishedDirectoryIsImmutable is internal/tailor's test of the same name
// for Options.Dedup: at the write of the run root's latest pointer — the first
// mutating operation after the output is published — the output is opened and
// its tree recorded; when Reshard returns the tree is byte-identical and the
// handle opened back then reads everything, bit for bit what a fresh one reads.
func TestPublishedDirectoryIsImmutable(t *testing.T) {
	backends := map[string]func() storage.Backend{
		"mem":      func() storage.Backend { return storage.NewMem() },
		"objstore": func() storage.Backend { return storage.NewObjStore() },
	}
	for bname, mk := range backends {
		t.Run(bname, func(t *testing.T) {
			const src, out = "run/checkpoint-40", "run/resharded"
			base := mk()
			m, o := buildOptim(t, 73)
			saveAt(t, base, src, m, o, 3, 40, false)

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
				early, tree, firedKey = c, treeDigest(t, base, out), key
			}}
			if _, err := Reshard(hook, src, out, 2, Options{Dedup: true}); err != nil {
				t.Fatal(err)
			}
			if early == nil || !strings.HasPrefix(firedKey, "run/latest") { // latest.tmp where the pointer is staged and renamed
				t.Fatalf("the first operation after publication landed on %q, want the latest pointer", firedKey)
			}
			if !ckpt.IsDedup(base, out) {
				t.Fatal("the output is not content-addressed")
			}
			if got := treeDigest(t, base, out); got != tree {
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
