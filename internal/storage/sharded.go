// The shard map: digest-sharded layout of the one content-addressed store.
//
// A single backend directory eventually bottlenecks a fleet of checkpointing
// jobs; the standard fix is to spread the blobs over several prefixes keyed
// by digest. Sharding is a property of BlobStore, not a second store: a
// sharded store routes every per-digest path through the digest's leading
// hex byte (BlobStore.subRoot) — the same two characters the fan-out already
// uses — so each digest lives in exactly one `<root>/shard-<i>/`, with that
// shard's own `.stage/` and `.trash/`, and puts, gets and sweeps of distinct
// prefixes never contend.
//
// The layout is declared once by InitShards, which writes
// `<root>/shards.json` ({"version":1,"count":N}); OpenCAS reads it and
// returns the store with that shard count, or the flat store over `<root>`
// when no config exists. The journaled ref index stays unsharded at
// `<root>/refs/` — references span shards, and the index is tiny next to
// the blobs it pins.

package storage

import (
	"encoding/json"
	"fmt"
	"strings"
)

// ShardConfigName is the shard-map declaration inside a CAS root.
const ShardConfigName = "shards.json"

type shardConfig struct {
	Version int `json:"version"`
	Count   int `json:"count"`
}

// PopulatedStoreError is InitShards refusing to shard a root that already
// holds a flat store: under the sharded layout none of those blobs would be
// reachable, or even visible to a full sweep.
type PopulatedStoreError struct {
	Root  string
	Blobs int // published, staged and trashed
}

func (e *PopulatedStoreError) Error() string {
	return fmt.Sprintf("storage: %s already holds %d blobs in the flat layout; a shard map must be declared before the first put", e.Root, e.Blobs)
}

// InitShards declares a sharded layout under root: subsequent OpenCAS
// calls return a store with the given shard count. It must run before the
// first blob lands — a root already holding flat blobs, staging or trash is
// refused with a *PopulatedStoreError — and the count is immutable
// thereafter: resharding would re-home digests.
func InitShards(b Backend, root string, count int) error {
	if count < 1 || count > 256 {
		return fmt.Errorf("storage: shard count %d out of range [1,256]", count)
	}
	root = strings.TrimSuffix(root, "/")
	p := root + "/" + ShardConfigName
	if data, err := b.ReadFile(p); err == nil {
		var have shardConfig
		if json.Unmarshal(data, &have) == nil && have.Count == count {
			return nil // idempotent re-init
		}
		return fmt.Errorf("storage: %s already declares a different shard layout", p)
	}
	flat := NewBlobStore(b, root)
	blobs, staging, _, err := flat.List()
	if err != nil {
		return err
	}
	trash, _ := flat.ListTrash()
	if n := len(blobs) + len(staging) + len(trash); n > 0 {
		return &PopulatedStoreError{Root: root, Blobs: n}
	}
	data, err := json.Marshal(shardConfig{Version: 1, Count: count})
	if err != nil {
		return err
	}
	return b.WriteFile(p, data)
}

// ResolveHub follows an objects root's hub attachment (hubref.json): it
// returns the root the store actually lives at — the hub's shared store for
// an attached run, root itself otherwise — and the attachment followed (nil
// when local). Indirection is one level only, so a hub whose own objects
// root claims an attachment is rejected as a chain.
func ResolveHub(b Backend, root string) (string, *HubRef, error) {
	root = strings.TrimSuffix(root, "/")
	ref, err := ReadHubRef(b, root)
	if err != nil || ref == nil {
		return root, nil, err
	}
	hubObjects := HubObjectsRoot(ref.Hub)
	nested, err := ReadHubRef(b, hubObjects)
	if err != nil {
		return "", nil, err
	}
	if nested != nil {
		return "", nil, fmt.Errorf("storage: %s attaches to hub %s, whose store is itself attached elsewhere (chained hubs unsupported)", root, ref.Hub)
	}
	return hubObjects, ref, nil
}

// OpenCAS opens the content-addressed store serving root, following a hub
// attachment (ResolveHub) first. This is the constructor the checkpoint
// layer should use unless it has already resolved the attachment itself.
func OpenCAS(b Backend, root string) (*BlobStore, error) {
	root, _, err := ResolveHub(b, root)
	if err != nil {
		return nil, err
	}
	return OpenCASAt(b, root)
}

// OpenCASAt opens the store rooted exactly at root, with no hub resolution:
// sharded when root declares a shard layout, flat otherwise.
func OpenCASAt(b Backend, root string) (*BlobStore, error) {
	s := NewBlobStore(b, root)
	data, err := b.ReadFile(s.root + "/" + ShardConfigName)
	if err != nil {
		if IsNotExist(err) {
			return s, nil
		}
		return nil, fmt.Errorf("storage: read shard config under %s: %w", root, err)
	}
	var cfg shardConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("storage: parse %s/%s: %w", root, ShardConfigName, err)
	}
	if cfg.Version != 1 || cfg.Count < 1 || cfg.Count > 256 {
		return nil, fmt.Errorf("storage: unsupported shard config %+v under %s", cfg, root)
	}
	s.shards, s.subs = cfg.Count, make([]string, cfg.Count)
	for i := range s.subs {
		s.subs[i] = fmt.Sprintf("%s/shard-%d", s.root, i)
	}
	return s, nil
}
