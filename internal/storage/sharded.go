// Digest-sharded content-addressed storage.
//
// A single backend eventually bottlenecks a fleet of checkpointing jobs;
// the standard fix is to spread the CAS over several stores keyed by
// digest prefix. ShardedStore routes every per-digest operation through
// the blob digest's leading hex byte — the same two characters the
// BlobStore fan-out already uses — so each digest lives in exactly one
// shard and puts/gets/sweeps of distinct prefixes never contend.
//
// The layout is declared once by InitShards, which writes
// `<root>/shards.json` ({"version":1,"count":N}); OpenCAS reads it and
// returns a ShardedStore over `<root>/shard-<i>/` roots, or a plain
// BlobStore over `<root>` when no config exists. The journaled ref index
// stays unsharded at `<root>/refs/` — references span shards, and the
// index is tiny next to the blobs it pins.

package storage

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// CAS is the content-addressed store surface the checkpoint layer uses.
// BlobStore implements it directly; ShardedStore implements it by routing
// per-digest calls to the owning shard and fanning enumeration and sweeps
// across all shards.
type CAS interface {
	Root() string
	Path(digest string) string
	Has(digest string) bool
	Stat(digest string) (int64, error)
	Open(digest string) (io.ReadCloser, error)
	OpenRange(digest string, off, n int64) (io.ReadCloser, error)
	Meta(digest string) (BlobMeta, error)
	Put(digest string, r io.Reader) (bool, int64, error)
	PutBytes(data []byte) (digest string, written bool, err error)
	PutStream(digest string, encode func(io.Writer) (int64, error)) (bool, error)
	PutStreamOpts(digest string, opts BlobPutOptions, encode func(io.Writer) (int64, error)) (PutResult, error)
	Remove(digest string) error
	List() (blobs []BlobInfo, staging, stray []string, err error)
	Trash(digest string) error
	Restore(digest string) error
	PurgeTrash(digest string) error
	ListTrash() ([]BlobInfo, error)
	Sweep(spec SweepSpec) (*SweepReport, error)
	StagingResidue() ([]string, error)
	SetMultipart(opts MultipartOptions)
}

var (
	_ CAS = (*BlobStore)(nil)
	_ CAS = (*ShardedStore)(nil)
)

// ShardConfigName is the shard-map declaration inside a CAS root.
const ShardConfigName = "shards.json"

type shardConfig struct {
	Version int `json:"version"`
	Count   int `json:"count"`
}

// InitShards declares a sharded layout under root: subsequent OpenCAS
// calls return a ShardedStore with the given shard count. It must run
// before the first blob lands (an existing unsharded store's blobs would
// become unreachable) and the count is immutable thereafter — resharding
// would re-home digests.
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
func OpenCAS(b Backend, root string) (CAS, error) {
	root, _, err := ResolveHub(b, root)
	if err != nil {
		return nil, err
	}
	return OpenCASAt(b, root)
}

// OpenCASAt opens the store rooted exactly at root, with no hub resolution:
// a ShardedStore when root declares a shard layout, a plain BlobStore
// otherwise.
func OpenCASAt(b Backend, root string) (CAS, error) {
	data, err := b.ReadFile(root + "/" + ShardConfigName)
	if err != nil {
		if IsNotExist(err) {
			return NewBlobStore(b, root), nil
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
	return NewShardedStore(b, root, cfg.Count), nil
}

// ShardedStore is a CAS spread over count BlobStores rooted at
// `<root>/shard-<i>/`, routing each digest by its leading hex byte.
type ShardedStore struct {
	root   string
	shards []*BlobStore
}

// NewShardedStore builds the store without consulting a config; most
// callers want OpenCAS.
func NewShardedStore(b Backend, root string, count int) *ShardedStore {
	root = strings.TrimSuffix(root, "/")
	s := &ShardedStore{root: root}
	for i := 0; i < count; i++ {
		s.shards = append(s.shards, NewBlobStore(b, fmt.Sprintf("%s/shard-%d", root, i)))
	}
	// An xor-parent blob's parent digest routes independently, so decoding
	// must resolve parents across shards, not just within the owning one.
	for _, sh := range s.shards {
		sh.resolveFn = s.resolveRaw
	}
	return s
}

// resolveRaw resolves a digest to its decoded payload via its owning shard,
// threading the chain walk's cycle/depth guard across shard boundaries.
func (s *ShardedStore) resolveRaw(digest string, seen map[string]bool, depth int) ([]byte, error) {
	return s.shard(digest).resolveLocal(digest, seen, depth)
}

// Shards returns the number of shards.
func (s *ShardedStore) Shards() int { return len(s.shards) }

// shard routes a digest to its owning store. Invalid digests route to
// shard 0, whose own validation produces the error the caller expects.
func (s *ShardedStore) shard(digest string) *BlobStore {
	if len(digest) < 2 {
		return s.shards[0]
	}
	v, err := strconv.ParseUint(digest[:2], 16, 16)
	if err != nil {
		return s.shards[0]
	}
	return s.shards[int(v)%len(s.shards)]
}

// Root returns the sharded root (the directory holding shards.json).
func (s *ShardedStore) Root() string { return s.root }

// Path returns the digest's path inside its owning shard.
func (s *ShardedStore) Path(digest string) string { return s.shard(digest).Path(digest) }

// Has implements CAS.
func (s *ShardedStore) Has(digest string) bool { return s.shard(digest).Has(digest) }

// Stat implements CAS.
func (s *ShardedStore) Stat(digest string) (int64, error) { return s.shard(digest).Stat(digest) }

// Open implements CAS.
func (s *ShardedStore) Open(digest string) (io.ReadCloser, error) {
	return s.shard(digest).Open(digest)
}

// OpenRange implements CAS.
func (s *ShardedStore) OpenRange(digest string, off, n int64) (io.ReadCloser, error) {
	return s.shard(digest).OpenRange(digest, off, n)
}

// Put implements CAS.
func (s *ShardedStore) Put(digest string, r io.Reader) (bool, int64, error) {
	return s.shard(digest).Put(digest, r)
}

// PutBytes implements CAS; the digest is computed first so the payload
// routes to its owning shard.
func (s *ShardedStore) PutBytes(data []byte) (string, bool, error) {
	digest := DigestBytes(data)
	written, _, err := s.shard(digest).Put(digest, strings.NewReader(string(data)))
	return digest, written, err
}

// PutStream implements CAS.
func (s *ShardedStore) PutStream(digest string, encode func(io.Writer) (int64, error)) (bool, error) {
	return s.shard(digest).PutStream(digest, encode)
}

// PutStreamOpts implements CAS; the owning shard's cross-shard resolver
// reaches parents wherever they live.
func (s *ShardedStore) PutStreamOpts(digest string, opts BlobPutOptions, encode func(io.Writer) (int64, error)) (PutResult, error) {
	return s.shard(digest).PutStreamOpts(digest, opts, encode)
}

// Meta implements CAS.
func (s *ShardedStore) Meta(digest string) (BlobMeta, error) {
	return s.shard(digest).Meta(digest)
}

// Remove implements CAS.
func (s *ShardedStore) Remove(digest string) error { return s.shard(digest).Remove(digest) }

// Trash implements CAS.
func (s *ShardedStore) Trash(digest string) error { return s.shard(digest).Trash(digest) }

// Restore implements CAS.
func (s *ShardedStore) Restore(digest string) error { return s.shard(digest).Restore(digest) }

// PurgeTrash implements CAS.
func (s *ShardedStore) PurgeTrash(digest string) error { return s.shard(digest).PurgeTrash(digest) }

// List aggregates all shards' enumeration; blobs arrive sorted by digest
// exactly as a single store would report them.
func (s *ShardedStore) List() (blobs []BlobInfo, staging, stray []string, err error) {
	for _, sh := range s.shards {
		b, st, sy, err := sh.List()
		if err != nil {
			return nil, nil, nil, err
		}
		blobs = append(blobs, b...)
		staging = append(staging, st...)
		stray = append(stray, sy...)
	}
	sort.Slice(blobs, func(i, j int) bool { return blobs[i].Digest < blobs[j].Digest })
	sort.Strings(staging)
	sort.Strings(stray)
	return blobs, staging, stray, nil
}

// ListTrash aggregates all shards' trash areas.
func (s *ShardedStore) ListTrash() ([]BlobInfo, error) {
	var out []BlobInfo
	for _, sh := range s.shards {
		t, err := sh.ListTrash()
		if err != nil {
			return nil, err
		}
		out = append(out, t...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Digest < out[j].Digest })
	return out, nil
}

// StagingResidue aggregates all shards' staging residue.
func (s *ShardedStore) StagingResidue() ([]string, error) {
	var out []string
	for _, sh := range s.shards {
		r, err := sh.StagingResidue()
		if err != nil {
			return nil, err
		}
		out = append(out, r...)
	}
	sort.Strings(out)
	return out, nil
}

// Sweep implements CAS shard by shard: a whole-store sweep visits every
// shard, a candidate sweep only the shards owning a candidate. Each shard
// runs its own two-phase trash/recheck pass, which is sound — restores
// depend on the fresh pin set, not on what other shards trashed — and an
// interrupted sweep leaves later shards untouched for the next run.
func (s *ShardedStore) Sweep(spec SweepSpec) (*SweepReport, error) {
	byShard := make(map[*BlobStore][]string)
	for _, d := range spec.Candidates {
		if !ValidDigest(d) {
			return &SweepReport{}, fmt.Errorf("storage: sweep candidate: invalid digest %q", d)
		}
		sh := s.shard(d)
		byShard[sh] = append(byShard[sh], d)
	}
	rep := &SweepReport{}
	for _, sh := range s.shards {
		part := spec
		if spec.Candidates != nil {
			if part.Candidates = byShard[sh]; part.Candidates == nil {
				continue
			}
		}
		r, err := sh.Sweep(part)
		if r != nil {
			rep.Add(r)
		}
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// SetMultipart forwards tuning to every shard.
func (s *ShardedStore) SetMultipart(opts MultipartOptions) {
	for _, sh := range s.shards {
		sh.SetMultipart(opts)
	}
}
