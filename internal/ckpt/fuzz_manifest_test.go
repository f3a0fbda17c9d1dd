package ckpt

// Fuzz target for the dedup manifest codecs (LTMF weight manifests and
// LTOM shard manifests). Contract: corrupt input — truncated, bit-flipped,
// adversarial digests or extents — must surface as an error, never a panic
// or unbounded allocation; accepted input must be internally consistent.
// The regression corpus lives in testdata/fuzz/FuzzManifest.

import (
	"strings"
	"testing"

	"llmtailor/internal/storage"
)

func FuzzManifest(f *testing.F) {
	addMutations(f, goldenWeightManifest(f))
	addMutations(f, goldenShardManifest(f))
	d64 := strings.Repeat("ab", 32)
	// Adversarial headers: digests of the wrong shape, extents that only
	// pass if arithmetic wraps, duplicate identities.
	f.Add(manifestContainer(ltmfMagic,
		`{"version":1,"model":"m","tensors":[{"name":"t","dtype":"f32","shape":[4611686018427387904,4611686018427387904],"size":8,"crc32":0,"digest":"`+d64+`"}]}`))
	f.Add(manifestContainer(ltmfMagic,
		`{"version":1,"model":"m","tensors":[{"name":"t","dtype":"f32","shape":[2],"size":-8,"crc32":0,"digest":"`+d64+`"}]}`))
	f.Add(manifestContainer(ltmfMagic,
		`{"version":1,"model":"m","tensors":[{"name":"t","dtype":"f32","shape":[2],"size":8,"crc32":0,"digest":"../../etc/passwd"}]}`))
	f.Add(manifestContainer(ltomMagic,
		`{"version":1,"rank":0,"world_size":1,"layout":"layerwise","groups":[{"index":0,"numel":1,"shard_len":4611686018427387904,"size":24,"crc32":0,"digest":"`+d64+`"}]}`))
	// 12×shard_len wraps int64 onto size while shard_len < size: must be
	// rejected by the division-checked geometry, never accepted.
	f.Add(manifestContainer(ltomMagic,
		`{"version":1,"rank":0,"world_size":1,"layout":"layerwise","groups":[{"index":0,"numel":1,"shard_len":2000000000000000000,"size":5553255926290448384,"crc32":0,"digest":"`+d64+`"}]}`))
	f.Add(manifestContainer(ltomMagic,
		`{"version":1,"rank":-1,"world_size":0,"layout":"layerwise","groups":[]}`))
	f.Add([]byte("LTMF"))
	f.Add([]byte("LTOM"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if wm, err := decodeWeightManifest(data); err == nil {
			// Accepted manifests must hold the invariants readers rely on:
			// well-formed digests and coherent per-entry geometry.
			seen := map[string]bool{}
			for _, e := range wm.Tensors {
				if e.Name == "" || seen[e.Name] {
					t.Fatalf("accepted manifest has missing/duplicate name %q", e.Name)
				}
				seen[e.Name] = true
				if !storage.ValidDigest(e.Digest) {
					t.Fatalf("accepted manifest has malformed digest %q", e.Digest)
				}
				if e.Size < 0 {
					t.Fatalf("accepted manifest has negative size %d", e.Size)
				}
			}
		}
		if sm, err := decodeShardManifest(data); err == nil {
			seen := map[int]bool{}
			for _, g := range sm.Groups {
				if g.Index < 0 || seen[g.Index] {
					t.Fatalf("accepted shard manifest has invalid/duplicate index %d", g.Index)
				}
				seen[g.Index] = true
				if !storage.ValidDigest(g.Digest) {
					t.Fatalf("accepted shard manifest has malformed digest %q", g.Digest)
				}
				// Division form: the multiplication can wrap int64 for
				// adversarial ShardLen values, which is exactly the class
				// of input this invariant exists to reject.
				if g.ShardLen < 0 || g.Size%12 != 0 || g.ShardLen != g.Size/12 {
					t.Fatalf("accepted shard manifest has incoherent geometry: %+v", g)
				}
			}
		}
	})
}
