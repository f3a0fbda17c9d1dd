package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// openTestStore opens the store at root, declaring a shard map first when
// shards > 0.
func openTestStore(t *testing.T, b Backend, root string, shards int) *BlobStore {
	t.Helper()
	if shards > 0 {
		if err := InitShards(b, root, shards); err != nil {
			t.Fatal(err)
		}
	}
	s, err := OpenCASAt(b, root)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != shards {
		t.Fatalf("opened store reports %d shards, want %d", s.Shards(), shards)
	}
	return s
}

// walkKeys lists every object under dir, recursively, sorted.
func walkKeys(t *testing.T, b Backend, dir string) []string {
	t.Helper()
	entries, err := b.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, e := range entries {
		if strings.HasSuffix(e, "/") {
			keys = append(keys, walkKeys(t, b, dir+"/"+strings.TrimSuffix(e, "/"))...)
		} else {
			keys = append(keys, dir+"/"+e)
		}
	}
	sort.Strings(keys)
	return keys
}

func readBlob(t *testing.T, rc io.ReadCloser, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// storeLayouts × storeBackends is the matrix every store behaviour is held
// over: the flat and the sharded layout, a rename and a no-rename backend.
var storeLayouts = []int{0, 4}

func storeBackends() map[string]func() Backend {
	return map[string]func() Backend{
		"mem":      func() Backend { return NewMem() },
		"objstore": func() Backend { return NewObjStore() },
	}
}

// TestStoreLifecycleMatrix walks one store through everything the checkpoint
// layer asks of it — put, the read surface, the three enumerations, the
// trash moves and a sweep — identically for {flat, 4 shards} × {Mem,
// ObjStore}.
func TestStoreLifecycleMatrix(t *testing.T) {
	for bname, mk := range storeBackends() {
		for _, shards := range storeLayouts {
			t.Run(fmt.Sprintf("%s/shards=%d", bname, shards), func(t *testing.T) {
				b := mk()
				s := openTestStore(t, b, "run/objects", shards)
				var digests []string
				payloads := map[string][]byte{}
				for i := 0; i < 24; i++ {
					data := []byte(fmt.Sprintf("payload-%02d-%s", i, strings.Repeat("x", i)))
					d, written, err := putBytes(s, data)
					if err != nil || !written {
						t.Fatalf("put %d: written=%v err=%v", i, written, err)
					}
					if _, again, err := putBytes(s, data); err != nil || again {
						t.Fatalf("second put %d: written=%v err=%v", i, again, err)
					}
					digests = append(digests, d)
					payloads[d] = data
				}
				sort.Strings(digests)
				if shards > 0 {
					used := map[string]bool{}
					for _, d := range digests {
						used[s.subRoot(d)] = true
					}
					if len(used) < 2 {
						t.Fatalf("fixture landed in %d shard(s); the matrix needs several", len(used))
					}
				}

				// The read surface.
				for _, d := range digests {
					want := payloads[d]
					if !s.Has(d) {
						t.Fatalf("Has(%s) = false", d)
					}
					if !b.Exists(s.Path(d)) {
						t.Fatalf("Path(%s) = %s does not exist", d, s.Path(d))
					}
					if n, err := s.Stat(d); err != nil || n != int64(len(want)) {
						t.Fatalf("Stat = %d, %v", n, err)
					}
					if m, err := s.Meta(d); err != nil || m.Codec != CodecRaw || m.RawSize != int64(len(want)) {
						t.Fatalf("Meta = %+v, %v", m, err)
					}
					rc, err := s.Open(d)
					if got := readBlob(t, rc, err); !bytes.Equal(got, want) {
						t.Fatalf("Open = %q", got)
					}
					rc, err = s.OpenRange(d, 3, 5)
					if got := readBlob(t, rc, err); !bytes.Equal(got, want[3:8]) {
						t.Fatalf("OpenRange = %q", got)
					}
				}

				// The enumerations: plant staging residue next to one blob.
				residue := s.subRoot(digests[0]) + "/" + blobStageDir + "/put-1-1"
				if err := b.WriteFile(residue, []byte("torn")); err != nil {
					t.Fatal(err)
				}
				blobs, staging, stray, err := s.List()
				if err != nil {
					t.Fatal(err)
				}
				var listed []string
				for _, bi := range blobs {
					if bi.Size != int64(len(payloads[bi.Digest])) {
						t.Fatalf("List size of %s = %d", bi.Digest, bi.Size)
					}
					listed = append(listed, bi.Digest)
				}
				if !reflect.DeepEqual(listed, digests) || !reflect.DeepEqual(staging, []string{residue}) || len(stray) != 0 {
					t.Fatalf("List = %d blobs, staging %v, stray %v", len(listed), staging, stray)
				}
				if got, err := s.StagingResidue(); err != nil || !reflect.DeepEqual(got, []string{residue}) {
					t.Fatalf("StagingResidue = %v, %v", got, err)
				}
				if trash, err := s.ListTrash(); err != nil || len(trash) != 0 {
					t.Fatalf("ListTrash on a clean store = %v, %v", trash, err)
				}

				// Trash hides, Restore brings back, PurgeTrash is final.
				a, c := digests[0], digests[len(digests)-1]
				for _, d := range []string{a, c} {
					if err := s.Trash(d); err != nil {
						t.Fatal(err)
					}
					if s.Has(d) {
						t.Fatalf("trashed blob %s still visible", d)
					}
				}
				trash, err := s.ListTrash()
				if err != nil || len(trash) != 2 || trash[0].Digest != a || trash[1].Digest != c ||
					trash[0].Size != int64(len(payloads[a])) {
					t.Fatalf("ListTrash = %+v, %v", trash, err)
				}
				if err := s.Restore(a); err != nil {
					t.Fatal(err)
				}
				rc, err := s.Open(a)
				if got := readBlob(t, rc, err); !bytes.Equal(got, payloads[a]) {
					t.Fatalf("restored blob = %q", got)
				}
				if err := s.PurgeTrash(c); err != nil {
					t.Fatal(err)
				}
				if trash, _ := s.ListTrash(); len(trash) != 0 || s.Has(c) {
					t.Fatalf("after restore+purge: trash %v, Has(purged) %v", trash, s.Has(c))
				}

				// A whole-store sweep keeps exactly the pinned blobs and clears
				// the staging residue; the dry run reports the same and mutates
				// nothing.
				live := digests[:len(digests)-1]
				pins := map[string]int{}
				for _, d := range live[:10] {
					pins[d] = 1
				}
				dry, err := s.Sweep(SweepSpec{Pins: pins, DryRun: true})
				if err != nil {
					t.Fatal(err)
				}
				if got, _, _, _ := s.List(); len(got) != len(live) {
					t.Fatalf("dry run removed blobs: %d left of %d", len(got), len(live))
				}
				rep, err := s.Sweep(SweepSpec{Pins: pins})
				if err != nil {
					t.Fatal(err)
				}
				sort.Strings(rep.RemovedBlobs)
				sort.Strings(dry.RemovedBlobs)
				if rep.Kept != 10 || rep.Examined != len(live) || !reflect.DeepEqual(rep.RemovedBlobs, live[10:]) ||
					!reflect.DeepEqual(rep.RemovedStaging, []string{residue}) {
					t.Fatalf("sweep report = %+v", rep)
				}
				if !reflect.DeepEqual(dry.RemovedBlobs, rep.RemovedBlobs) || dry.BytesFreed != rep.BytesFreed ||
					!reflect.DeepEqual(dry.RemovedStaging, rep.RemovedStaging) {
					t.Fatalf("dry run %+v disagrees with the sweep %+v", dry, rep)
				}
				blobs, staging, _, _ = s.List()
				if len(blobs) != 10 || len(staging) != 0 {
					t.Fatalf("after sweep: %d blobs, staging %v", len(blobs), staging)
				}
				if trash, _ := s.ListTrash(); len(trash) != 0 {
					t.Fatalf("sweep left trash: %v", trash)
				}
			})
		}
	}
}

// goldenLayout is three fixed payloads — alpha and beta published, gamma
// trashed — and, literally, the keys they have occupied since the store and
// its shard map were introduced: `<root>/ab/<digest>` and `<root>/.trash/
// <digest>` flat, the same under `<root>/shard-<leading byte % N>/` sharded.
// stage is where each payload's put must stream before publishing.
var goldenLayout = map[int]struct {
	keys  []string
	stage []string
}{
	0: {
		keys: []string{
			"run/objects/.trash/27c73072b4b7e0236f7350fffb9247d469090e08dde202dffb679b122a998629",
			"run/objects/04/0419fa50e08585780dbd53655e393408b88c62c3201c7bb2b4bdfb961aada3fd",
			"run/objects/5a/5acb26b617c11444f886a7f03fd41fc551f7a2a145dc3f2ae73044f76f8f5f16",
		},
		stage: []string{"run/objects/.stage/", "run/objects/.stage/", "run/objects/.stage/"},
	},
	4: {
		keys: []string{
			"run/objects/shard-0/04/0419fa50e08585780dbd53655e393408b88c62c3201c7bb2b4bdfb961aada3fd",
			"run/objects/shard-2/5a/5acb26b617c11444f886a7f03fd41fc551f7a2a145dc3f2ae73044f76f8f5f16",
			"run/objects/shard-3/.trash/27c73072b4b7e0236f7350fffb9247d469090e08dde202dffb679b122a998629",
			"run/objects/shards.json",
		},
		stage: []string{"run/objects/shard-2/.stage/", "run/objects/shard-0/.stage/", "run/objects/shard-3/.stage/"},
	},
}

var goldenPayloads = []string{"golden payload alpha", "golden payload beta", "golden payload gamma"}

var stageName = regexp.MustCompile(`/\.stage/put-\d+-\d+$`)

// createLog records the names a store streams into on a rename backend.
type createLog struct {
	Backend
	created []string
}

func (c *createLog) Create(name string) (io.WriteCloser, error) {
	c.created = append(c.created, name)
	return c.Backend.Create(name)
}

// TestStoreLayoutGolden pins the on-backend key names of both layouts to
// literals, in both directions: a store written through PutStreamOpts and
// Trash lists exactly the golden keys, and golden keys planted by hand — a
// store some earlier build wrote — are found, read and enumerated by a store
// opened over them.
func TestStoreLayoutGolden(t *testing.T) {
	gamma := DigestBytes([]byte(goldenPayloads[2]))
	for shards, want := range goldenLayout {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// Written by the store.
			b := &createLog{Backend: NewMem()}
			s := openTestStore(t, b, "run/objects", shards)
			for _, p := range goldenPayloads {
				if _, _, err := putBytes(s, []byte(p)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Trash(gamma); err != nil {
				t.Fatal(err)
			}
			if got := walkKeys(t, b, "run"); !reflect.DeepEqual(got, want.keys) {
				t.Fatalf("store wrote keys\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want.keys, "\n"))
			}
			if len(b.created) != len(want.stage) {
				t.Fatalf("staging streams: %v", b.created)
			}
			for i, dir := range want.stage {
				if name := b.created[i]; !strings.HasPrefix(name, dir+"put-") || !stageName.MatchString(name) {
					t.Errorf("%q staged at %s, want %sput-<pid>-<seq>", goldenPayloads[i], name, dir)
				}
			}

			// Planted by hand, opened by the store.
			old := NewMem()
			for _, key := range want.keys {
				data := []byte(`{"version":1,"count":4}`)
				for _, p := range goldenPayloads {
					if strings.HasSuffix(key, "/"+DigestBytes([]byte(p))) {
						data = []byte(p)
					}
				}
				if err := old.WriteFile(key, data); err != nil {
					t.Fatal(err)
				}
			}
			residue := want.stage[2] + "put-77-1"
			if err := old.WriteFile(residue, []byte("torn")); err != nil {
				t.Fatal(err)
			}
			s, err := OpenCASAt(old, "run/objects")
			if err != nil || s.Shards() != shards {
				t.Fatalf("open planted store: %v, %d shards", err, s.Shards())
			}
			for _, p := range goldenPayloads[:2] {
				rc, err := s.Open(DigestBytes([]byte(p)))
				if got := readBlob(t, rc, err); string(got) != p {
					t.Fatalf("planted blob %q reads %q", p, got)
				}
			}
			blobs, staging, stray, err := s.List()
			if err != nil || len(blobs) != 2 || len(stray) != 0 || !reflect.DeepEqual(staging, []string{residue}) {
				t.Fatalf("List over planted store = %v, %v, %v, %v", blobs, staging, stray, err)
			}
			if got, _ := s.StagingResidue(); !reflect.DeepEqual(got, []string{residue}) {
				t.Fatalf("StagingResidue over planted store = %v", got)
			}
			if trash, _ := s.ListTrash(); len(trash) != 1 || trash[0].Digest != gamma {
				t.Fatalf("ListTrash over planted store = %v", trash)
			}
			if err := s.Restore(gamma); err != nil || !s.Has(gamma) {
				t.Fatalf("restore planted trash: %v", err)
			}
		})
	}
}

// TestXORParentAcrossShards: an xor-parent blob's parent routes on its own
// digest, so the two may live in different shards; the child is still stored
// as a delta and decodes bit-exact. A put naming a parent the store does not
// hold demotes to plane — compression is never a correctness dependency.
func TestXORParentAcrossShards(t *testing.T) {
	for bname, mk := range storeBackends() {
		t.Run(bname, func(t *testing.T) {
			s := openTestStore(t, mk(), "objects", 4)
			var parent, child []byte
			for seed := int64(1); ; seed++ {
				parent, child = deltaPayload(200_000, 97, seed)
				if s.subRoot(DigestBytes(parent)) != s.subRoot(DigestBytes(child)) {
					break
				}
			}
			parentDigest, _, err := putBytes(s, parent)
			if err != nil {
				t.Fatal(err)
			}
			put := func(raw []byte, parent string) PutResult {
				res, err := s.PutStreamOpts(DigestBytes(raw), BlobPutOptions{Codec: CodecXORParent, Width: 2, Parent: parent},
					func(w io.Writer) (int64, error) {
						n, err := w.Write(raw)
						return int64(n), err
					})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			res := put(child, parentDigest)
			if !res.Written || res.Codec != CodecXORParent || res.Parent != parentDigest || res.StoredBytes >= res.RawBytes/4 {
				t.Fatalf("cross-shard child stored as %+v", res)
			}
			if meta, err := s.Meta(DigestBytes(child)); err != nil || meta.Codec != CodecXORParent || meta.Parent != parentDigest {
				t.Fatalf("Meta = %+v, %v", meta, err)
			}
			rc, err := s.Open(DigestBytes(child))
			if got := readBlob(t, rc, err); !bytes.Equal(got, child) {
				t.Fatal("cross-shard xor child does not decode bit-exact")
			}
			rc, err = s.OpenRange(DigestBytes(child), 1000, 4096)
			if got := readBlob(t, rc, err); !bytes.Equal(got, child[1000:1000+4096]) {
				t.Fatal("ranged read of the cross-shard xor child differs")
			}

			// Missing parent: plane when plane pays, and the payload still
			// reads back.
			plane := make([]byte, 40_000)
			for i := range plane {
				plane[i] = byte(i%2) * 0x3f
			}
			res = put(plane, DigestBytes([]byte("no such parent")))
			if !res.Written || res.Codec != CodecPlane || res.Parent != "" {
				t.Fatalf("put with a missing parent stored as %+v, want plane", res)
			}
			rc, err = s.Open(DigestBytes(plane))
			if got := readBlob(t, rc, err); !bytes.Equal(got, plane) {
				t.Fatal("demoted blob does not read back")
			}
		})
	}
}

// TestShardedSweepRechecksOnce: a candidate sweep whose victims live in
// several shards trashes them all, re-derives the pins ONCE, restores the
// victim the recheck covers and purges the rest.
func TestShardedSweepRechecksOnce(t *testing.T) {
	for bname, mk := range storeBackends() {
		t.Run(bname, func(t *testing.T) {
			s := openTestStore(t, mk(), "objects", 4)
			var candidates []string
			shardsHit := map[string]bool{}
			for i := 0; len(candidates) < 6 || len(shardsHit) < 3; i++ {
				d, _, err := putBytes(s, []byte(fmt.Sprintf("victim-%d", i)))
				if err != nil {
					t.Fatal(err)
				}
				candidates = append(candidates, d)
				shardsHit[s.subRoot(d)] = true
			}
			pinned, reused := candidates[0], candidates[1]
			absent := DigestBytes([]byte("never stored"))
			rechecks := 0
			rep, err := s.Sweep(SweepSpec{
				Candidates: append(candidates, absent),
				Pins:       map[string]int{pinned: 1},
				Recheck: func() (map[string]int, error) {
					rechecks++
					for _, d := range candidates[1:] {
						if s.Has(d) {
							t.Errorf("recheck ran before victim %s was trashed", d[:8])
						}
					}
					return map[string]int{pinned: 1, reused: 1}, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if rechecks != 1 {
				t.Fatalf("Recheck ran %d times for victims in %d shards, want once", rechecks, len(shardsHit))
			}
			purged := append([]string(nil), candidates[2:]...)
			sort.Strings(purged)
			sort.Strings(rep.RemovedBlobs)
			if !reflect.DeepEqual(rep.Restored, []string{reused}) || !reflect.DeepEqual(rep.RemovedBlobs, purged) ||
				rep.Kept != 2 || rep.Examined != len(candidates)+1 {
				t.Fatalf("sweep report = %+v", rep)
			}
			if !s.Has(pinned) || !s.Has(reused) {
				t.Fatal("a pinned blob was lost")
			}
			for _, d := range purged {
				if s.Has(d) {
					t.Fatalf("victim %s survived", d[:8])
				}
			}
			if trash, _ := s.ListTrash(); len(trash) != 0 {
				t.Fatalf("sweep left trash: %v", trash)
			}
		})
	}
}

// stageThief removes a writer's staging file just before its publishing
// rename, the way a sweep running beside a live put can; steals bounds how
// often.
type stageThief struct {
	Backend
	steals int
}

func (s *stageThief) Rename(oldName, newName string) error {
	if s.steals != 0 && stageName.MatchString(oldName) {
		s.steals--
		s.Backend.Remove(oldName)
	}
	return s.Backend.Rename(oldName, newName)
}

// TestPutRestreamsLostStaging: PutStreamOpts owns its byte source, so a
// staging file lost between stream and publish costs a re-stream, not the
// put — up to 8 attempts, after which ErrStagingLost surfaces.
func TestPutRestreamsLostStaging(t *testing.T) {
	for _, shards := range storeLayouts {
		data := []byte("payload a sweep keeps stealing")
		digest := DigestBytes(data)
		put := func(steals int) (*BlobStore, int, PutResult, error) {
			s := openTestStore(t, &stageThief{Backend: NewMem(), steals: steals}, "objects", shards)
			streams := 0
			res, err := s.PutStreamOpts(digest, BlobPutOptions{}, func(w io.Writer) (int64, error) {
				streams++
				n, err := w.Write(data)
				return int64(n), err
			})
			return s, streams, res, err
		}
		s, streams, res, err := put(3)
		if err != nil || !res.Written || streams != 4 {
			t.Fatalf("shards=%d: 3 thefts: %d streams, %+v, %v", shards, streams, res, err)
		}
		rc, err := s.Open(digest)
		if got := readBlob(t, rc, err); !bytes.Equal(got, data) {
			t.Fatalf("re-streamed blob = %q", got)
		}
		if residue, _ := s.StagingResidue(); len(residue) != 0 {
			t.Fatalf("re-stream left staging residue: %v", residue)
		}
		s, streams, _, err = put(-1)
		if !errors.Is(err, ErrStagingLost) || streams != 8 || s.Has(digest) {
			t.Fatalf("shards=%d: endless theft: %d streams, err %v", shards, streams, err)
		}
	}
}

// TestInitShardsRefusesPopulatedStore: declaring a shard map over a root that
// already holds flat blobs would route every digest away from its blob —
// Has false, List empty, a full sweep blind to them. InitShards refuses, for
// published blobs, staging residue and trash alike, and leaves the store as
// it was.
func TestInitShardsRefusesPopulatedStore(t *testing.T) {
	plant := map[string]func(t *testing.T, b Backend, s *BlobStore) string{
		"blob": func(t *testing.T, b Backend, s *BlobStore) string {
			d, _, err := putBytes(s, []byte("committed payload"))
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"trash": func(t *testing.T, b Backend, s *BlobStore) string {
			d, _, err := putBytes(s, []byte("mid-sweep payload"))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Trash(d); err != nil {
				t.Fatal(err)
			}
			return ""
		},
		"staging": func(t *testing.T, b Backend, s *BlobStore) string {
			if err := b.WriteFile("run/objects/.stage/put-9-9", []byte("torn")); err != nil {
				t.Fatal(err)
			}
			return ""
		},
	}
	for what, fn := range plant {
		t.Run(what, func(t *testing.T) {
			b := NewMem()
			flat, err := OpenCAS(b, "run/objects")
			if err != nil {
				t.Fatal(err)
			}
			digest := fn(t, b, flat)
			err = InitShards(b, "run/objects", 4)
			var populated *PopulatedStoreError
			if !errors.As(err, &populated) || populated.Root != "run/objects" || populated.Blobs != 1 {
				t.Fatalf("InitShards over a store holding %s = %v", what, err)
			}
			if !strings.Contains(err.Error(), "run/objects") || !strings.Contains(err.Error(), "1 blob") {
				t.Fatalf("error does not name the root and the count: %v", err)
			}
			s, err := OpenCAS(b, "run/objects")
			if err != nil || s.Shards() != 0 {
				t.Fatalf("refused init still changed the layout: %d shards, %v", s.Shards(), err)
			}
			if digest != "" && !s.Has(digest) {
				t.Fatal("blob unreachable after the refused init")
			}
		})
	}

	// An empty root, a root holding only the journal, and a same-count re-init
	// over a populated sharded store are all fine.
	b := NewMem()
	if err := b.WriteFile("run/objects/refs/gen-1.ref", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	s := openTestStore(t, b, "run/objects", 4)
	if _, _, err := putBytes(s, []byte("sharded payload")); err != nil {
		t.Fatal(err)
	}
	if err := InitShards(b, "run/objects", 4); err != nil {
		t.Fatalf("idempotent re-init refused: %v", err)
	}
	if err := InitShards(b, "run/objects", 8); err == nil {
		t.Fatal("re-init with another count accepted")
	}
}
