package ckpt

// The request budget of a dedup save, and what keeps its shortcut honest.
//
// A save that follows a committed parent reads the parent's manifests once
// (the lineage view) and asks the store only what the view cannot answer, so
// its backend requests are a function of the payloads that changed. The view
// is a cache of what the manifests said, though, and the store may have moved
// on: these tests also prove a stale view is caught, never written down.

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/parallel"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

// twoStates builds a state and a successor that differs from it in one
// layer, advanced the way a training step advances it (generation counters
// included).
func twoStates(t *testing.T, seed uint64) (m1 *model.Model, o1 *optim.AdamW, m2 *model.Model, o2 *optim.AdamW) {
	t.Helper()
	m1, o1 = buildOptim(t, modelcfg.Tiny(), seed)
	m2 = m1.Clone()
	o2 = o1.Clone(m2)
	mutateLayer(t, m2, o2, modelcfg.Block(1), 1)
	return m1, o1, m2, o2
}

func budgetSpec(step int, m *model.Model, o *optim.AdamW, codec string) SaveSpec {
	return SaveSpec{Dir: fmt.Sprintf("run/checkpoint-%d", step), Model: m, Optim: o,
		WorldSize: 2, Strategy: "full", Dedup: true, Codec: codec,
		LayerGens: o.LayerGens(), State: TrainerState{Step: step, Seed: 7}}
}

// slotRefs reads a committed dedup checkpoint's entries by slot.
func slotRefs(t *testing.T, b storage.Backend, dir string) map[string]blobRef {
	t.Helper()
	out := map[string]blobRef{}
	if err := walkBlobRefs(b, dir, func(slot string, r blobRef) error {
		out[slot] = r
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDedupSaveRequestBudget(t *testing.T) {
	m1, o1, m2, o2 := twoStates(t, 310)
	const ranks = 2
	for _, bk := range pathBackends {
		for _, codec := range []string{"", "xor"} {
			for _, sv := range pathSavers {
				t.Run(fmt.Sprintf("%s/%s/codec=%q", bk.name, sv.name, codec), func(t *testing.T) {
					base := bk.mk()
					log := &opLog{Fault: storage.NewFault(base)}
					if err := sv.run(log, budgetSpec(100, m1, o1, codec), budgetSpec(200, m2, o2, codec), log.reset); err != nil {
						t.Fatal(err)
					}
					log.mu.Lock()
					reads, ops := log.reads, log.ops
					log.mu.Unlock()

					// P payloads, c of them carrying bytes the store had not seen.
					prev, next := slotRefs(t, base, "run/checkpoint-100"), slotRefs(t, base, "run/checkpoint-200")
					known := map[string]bool{}
					for _, r := range prev {
						known[r.Digest] = true
					}
					P, c, chain := len(next), 0, 0
					for _, r := range next {
						if !known[r.Digest] {
							c++
							chain += len(r.Parents)
						}
					}
					if c == 0 || c*4 > P {
						t.Fatalf("fixture: %d of %d payloads changed, want a sparse non-empty change", c, P)
					}
					if codec == "xor" && chain == 0 {
						t.Fatal("fixture: no changed payload landed as an xor delta")
					}

					budget := []struct {
						what      string
						got, most int
					}{
						// A fresh put is described by its writer, a reused blob by
						// the parent's manifest; only an xor put reads blobs — the
						// ancestors it deltas against.
						{"blob GETs", reads["get blob"], c + chain},
						{"config-document reads", reads["get config"], 2},
						{"parent-manifest reads", reads["get manifest"], 1 + ranks},
						// Two probes per reused payload (capture-time Has, post-
						// journal Stat); a changed one adds the pre-journal lineage
						// probe and the publish-race check of its put.
						{"blob probes", reads["probe blob"], 2*P + 2*c},
					}
					for _, b := range budget {
						if b.got > b.most {
							t.Errorf("%s: %d, budget %d (P=%d c=%d)", b.what, b.got, b.most, P, c)
						}
					}

					// Under objects/ the save mutates exactly: one journal record,
					// then one publish per changed payload.
					perPut := 1
					if storage.RenameSupported(log) {
						perPut = 2 // stage, then rename into place
					}
					var journal, blob int
					for _, op := range ops {
						switch {
						case blobOp(op):
							blob++
						case strings.Contains(op, " run/objects/"):
							journal++
						}
					}
					if journal != perPut || blob != c*perPut {
						t.Errorf("objects/ mutations: %d journal + %d blob ops, want %d + %d", journal, blob, perPut, c*perPut)
					}
				})
			}
		}
	}
}

// restoreEquals fails unless dir restores bit-exactly to the given state.
func restoreEquals(t *testing.T, b storage.Backend, dir string, m *model.Model, o *optim.AdamW) {
	t.Helper()
	rm, ro, _, err := Restore(b, dir, tensor.BF16)
	if err != nil {
		t.Fatalf("restore %s: %v", dir, err)
	}
	if !model.Equal(rm, m) || !sameOptim(ro, o) {
		t.Fatalf("%s does not restore to the state that was saved", dir)
	}
}

// reusedSlot picks a slot of an unchanged layer whose raw blob is big enough
// to be worth a container.
func reusedSlot(t *testing.T, refs map[string]blobRef) (string, blobRef) {
	t.Helper()
	slot := weightSlot("model.layers.0.mlp.down_proj.weight")
	r, ok := refs[slot]
	if !ok || r.Codec != "" || r.Size < 256 {
		t.Fatalf("fixture: %s is %+v", slot, r)
	}
	return slot, r
}

// TestStaleViewBlobRestoredInAnotherForm: a blob the parent's manifest calls
// raw is removed and re-stored under the same digest as an xor delta. The
// next save's view still says raw; the size cross-check must send it to the
// store, and the new manifest must record what is actually there.
func TestStaleViewBlobRestoredInAnotherForm(t *testing.T) {
	m1, o1, m2, o2 := twoStates(t, 320)
	for _, sv := range pathSavers {
		for _, bk := range pathBackends {
			b := bk.mk()
			t.Run(sv.name+"/"+bk.name, func(t *testing.T) {
				var slot, base string
				var stored int64
				restash := func() {
					store := storage.NewBlobStore(b, "run/objects")
					var ref blobRef
					slot, ref = reusedSlot(t, slotRefs(t, b, "run/checkpoint-100"))
					rc, err := store.Open(ref.Digest)
					if err != nil {
						t.Fatal(err)
					}
					raw, err := io.ReadAll(rc)
					rc.Close()
					if err != nil {
						t.Fatal(err)
					}
					// The delta's parent differs from the payload in one byte, so
					// the delta is nearly all zeros and the container is small.
					near := append([]byte(nil), raw...)
					near[0] ^= 0xff
					if base, _, err = putBytes(store, near); err != nil {
						t.Fatal(err)
					}
					delta := make([]byte, len(raw))
					tensor.XORBytes(delta, raw, near)
					container, ok := storage.EncodeContainer(delta, storage.CodecXORParent, 2, base, nil)
					if !ok {
						t.Fatal("fixture: delta container does not pay")
					}
					if err := b.Remove(store.Path(ref.Digest)); err != nil {
						t.Fatal(err)
					}
					if err := b.WriteFile(store.Path(ref.Digest), container); err != nil {
						t.Fatal(err)
					}
					stored = int64(len(container))
				}
				if err := sv.run(b, budgetSpec(100, m1, o1, ""), budgetSpec(200, m2, o2, ""), restash); err != nil {
					t.Fatal(err)
				}
				got := slotRefs(t, b, "run/checkpoint-200")[slot]
				if got.Codec != storage.CodecXORParent.String() || got.Stored != stored ||
					len(got.Parents) != 1 || got.Parents[0] != base {
					t.Fatalf("manifest entry %+v, want xor-parent of %s in %d bytes", got, base, stored)
				}
				restoreEquals(t, b, "run/checkpoint-200", m2, o2)
			})
		}
	}
}

// TestStaleViewBlobTrashedBeforePublish: a reused blob disappears between
// capture and the post-journal probe. A feeder that still holds the bytes
// re-publishes and commits; one that does not fails honestly and commits
// nothing.
func TestStaleViewBlobTrashedBeforePublish(t *testing.T) {
	m1, o1, m2, o2 := twoStates(t, 330)
	for _, sv := range pathSavers {
		for _, bk := range pathBackends {
			base := bk.mk()
			t.Run(sv.name+"/"+bk.name, func(t *testing.T) {
				log := &opLog{Fault: storage.NewFault(base)}
				var victim blobRef
				trashed := false
				arm := func() {
					_, victim = reusedSlot(t, slotRefs(t, base, "run/checkpoint-100"))
					// The journal append is the last thing before the probes.
					log.mu.Lock()
					log.hook = func(_, key string) {
						if trashed || !strings.Contains(key, "/objects/refs/") {
							return
						}
						trashed = true
						if err := storage.NewBlobStore(base, "run/objects").Trash(victim.Digest); err != nil {
							t.Errorf("trash: %v", err)
						}
					}
					log.mu.Unlock()
				}
				err := sv.run(log, budgetSpec(100, m1, o1, ""), budgetSpec(200, m2, o2, ""), arm)
				if !trashed {
					t.Fatal("the second save never journaled — scenario broken")
				}
				if sv.name == "lazy" {
					if err == nil || !strings.Contains(err.Error(), "reused blob missing from store") {
						t.Fatalf("lazy save of a vanished blob: err = %v, want reused-blob-missing", err)
					}
					if latest, lerr := Latest(base, "run"); lerr != nil || latest != "run/checkpoint-100" {
						t.Fatalf("latest = %q, %v after the failed save, want the parent", latest, lerr)
					}
					if CheckCommit(base, "run/checkpoint-200") == nil {
						t.Fatal("the failed save committed")
					}
					// The parent is intact once the "sweep" that trashed the blob
					// settles: Repair restores what a committed checkpoint pins.
					if _, err := Repair(base, "run"); err != nil {
						t.Fatal(err)
					}
					restoreEquals(t, base, "run/checkpoint-100", m1, o1)
					return
				}
				if err != nil {
					t.Fatalf("a feeder holding the bytes must re-publish: %v", err)
				}
				if !storage.NewBlobStore(base, "run/objects").Has(victim.Digest) {
					t.Fatal("vanished blob was not re-published")
				}
				restoreEquals(t, base, "run/checkpoint-200", m2, o2)
			})
		}
	}
}

// TestPublishLandsRepeatedDigestOnce: payloads sharing a digest (here every
// norm weight, filled with ones) must not race each other through the publish
// loop — one blob, one publish, and the repeats recorded as hits.
func TestPublishLandsRepeatedDigestOnce(t *testing.T) {
	m, o := buildOptim(t, modelcfg.Tiny(), 340)
	for _, mt := range m.Tensors() {
		if strings.HasSuffix(mt.Name, "layernorm.weight") {
			mt.Fill(1)
		}
	}
	for i := 0; i < 20; i++ {
		base := storage.NewMem()
		log := &opLog{Fault: storage.NewFault(base)}
		if err := Save(log, budgetSpec(100, m, o, "")); err != nil {
			t.Fatal(err)
		}
		refs := slotRefs(t, base, "run/checkpoint-100")
		distinct := map[string]bool{}
		for _, r := range refs {
			distinct[r.Digest] = true
		}
		if len(distinct) == len(refs) {
			t.Fatal("fixture: no two payloads share a digest")
		}
		blob := 0
		for _, op := range log.ops {
			if blobOp(op) {
				blob++
			}
		}
		if blob != 2*len(distinct) {
			t.Fatalf("%d blob ops for %d distinct digests, want one stage + one rename each", blob, len(distinct))
		}
		if err := VerifyCommit(base, "run/checkpoint-100"); err != nil {
			t.Fatal(err)
		}
		if err := verifyDedupRefs(entryAt(base, "run/checkpoint-100")); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreRequestBudget: the requests of a whole-checkpoint restore. A
// content-addressed one issues a GET per payload and a constant more, keeps
// several of them waiting on the store at once — never more than the load
// driver's width — and writes nothing; a plain one opens each rank's shard
// file exactly once (§5.4).
func TestRestoreRequestBudget(t *testing.T) {
	const ranks = 4
	m, o := buildOptim(t, modelcfg.Tiny(), 350)
	spec := func(dir string, dedup bool) SaveSpec {
		return SaveSpec{Dir: dir, Model: m, Optim: o, WorldSize: ranks, Strategy: "full",
			Dedup: dedup, State: TrainerState{Step: 100, Seed: 7}}
	}
	store := storage.NewObjStore()
	if err := Save(store, spec("run/checkpoint-100", true)); err != nil {
		t.Fatal(err)
	}
	if err := Save(store, spec("plain/checkpoint-100", false)); err != nil {
		t.Fatal(err)
	}
	// Requests that take a while, so the ones in flight together show.
	store.SetLatency(500*time.Microsecond, 0)
	log := &opLog{Fault: storage.NewFault(store)}

	t.Run("content-addressed", func(t *testing.T) {
		log.reset()
		restoreEquals(t, log, "run/checkpoint-100", m, o)
		log.mu.Lock()
		gets, lists, probes, peak, ops := 0, 0, log.reads["probe other"], log.peak, log.ops
		for kind, n := range log.reads {
			switch {
			case strings.HasPrefix(kind, "get "):
				gets += n
			case strings.HasPrefix(kind, "list "):
				lists += n
			}
		}
		log.mu.Unlock()
		P := len(slotRefs(t, store, "run/checkpoint-100"))
		// Beyond the payloads: config.json, trainer_state.json, manifest.json,
		// the two store-configuration documents, the weight manifest and one
		// shard manifest per rank.
		c := 3 + 2 + 1 + ranks
		if gets > P+c {
			t.Errorf("%d GETs for %d payloads, budget P + %d", gets, P, c)
		}
		if peak < 4 || peak > storage.RequestWidth {
			t.Errorf("peak of %d GETs in flight, want between 4 and %d", peak, storage.RequestWidth)
		}
		// The layout decision is two existence probes (weight manifest there,
		// weight container not) and never a listing; each rank's manifest is
		// sized by one more probe.
		if lists != 0 {
			t.Errorf("a content-addressed restore listed %d directories, want none", lists)
		}
		if probes > 2+ranks {
			t.Errorf("%d probes outside the store, budget 2 + %d ranks", probes, ranks)
		}
		if len(ops) != 0 {
			t.Errorf("a restore mutated the backend: %v", ops)
		}
	})

	t.Run("plain", func(t *testing.T) {
		log.reset()
		opens := map[string]int{}
		log.mu.Lock()
		log.readHook = func(kind, key string) {
			if kind == "get" && strings.HasSuffix(key, ".ltos") {
				log.mu.Lock()
				opens[key]++
				log.mu.Unlock()
			}
		}
		log.mu.Unlock()
		restoreEquals(t, log, "plain/checkpoint-100", m, o)
		if len(opens) != ranks {
			t.Fatalf("shard files read: %v, want %d of them", opens, ranks)
		}
		for name, n := range opens {
			if n != 1 {
				t.Errorf("%s read by %d requests, want one stream", name, n)
			}
		}
		if len(log.ops) != 0 {
			t.Errorf("a restore mutated the backend: %v", log.ops)
		}
	})
}

// TestLoadGateBoundsBytesInFlight: under a gate far smaller than the state,
// the load driver never admits more than the gate plus its largest single
// charge, and what it decodes is bit-identical to an unconstrained load — for
// every layout, xor chains included.
func TestLoadGateBoundsBytesInFlight(t *testing.T) {
	b := storage.NewMem()
	saveLayouts(t, b)
	load := func(dir string, gate *parallel.ByteGate) (map[string][]byte, []*ShardFile) {
		t.Helper()
		c, err := Open(b, dir)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		tensors := map[string]*tensor.Tensor{}
		shards, err := c.readState(gate, func(name string) (*tensor.Tensor, error) {
			w, err := c.weights.lookup(name)
			if err != nil {
				return nil, err
			}
			ts, err := w.newTensor()
			mu.Lock()
			tensors[name] = ts
			mu.Unlock()
			return ts, err
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		enc := map[string][]byte{}
		for name, ts := range tensors {
			enc[name] = ts.Encode(nil)
		}
		for _, sf := range shards {
			sf.FileBytes = 0 // what a load moves legitimately differs by layout
		}
		return enc, shards
	}
	wantTensors, wantShards := load("plain/checkpoint-300", newLoadGate())
	if len(wantTensors) == 0 || len(wantShards) != 4 {
		t.Fatalf("fixture: %d tensors, %d ranks", len(wantTensors), len(wantShards))
	}
	for _, layout := range parityLayouts {
		dir := layout + "/checkpoint-300"
		c, err := Open(b, dir)
		if err != nil {
			t.Fatal(err)
		}
		set, err := c.loadSet()
		if err != nil {
			t.Fatal(err)
		}
		var largest, total int64
		set.each(func(p *payload, _ string, _ int) error {
			largest, total = max(largest, p.charge()), total+p.charge()
			return nil
		})
		for _, rs := range set.ranks {
			largest, total = max(largest, rs.fileBytes), total+rs.fileBytes
		}
		limit := total / 16
		gate := parallel.NewByteGate(limit)
		tensors, shards := load(dir, gate)
		if !reflect.DeepEqual(tensors, wantTensors) || !reflect.DeepEqual(shards, wantShards) {
			t.Errorf("%s: a load under a %d-byte gate decodes differently", layout, limit)
		}
		if peak := gate.Peak(); peak == 0 || peak > limit+largest {
			t.Errorf("%s: peak of %d bytes admitted, gate %d + largest charge %d", layout, peak, limit, largest)
		}
		if gate.InFlight() != 0 {
			t.Errorf("%s: %d bytes never released", layout, gate.InFlight())
		}
	}
}

// TestLoadGateChargesDecoderScratch: a payload whose blob is recorded coded
// is charged its size plus the chunk decoder's scratch, however deep its xor
// chain — the store folds every ancestor into the destination, holding no
// ancestor whole. A gate too small for any payload admits them one at a time,
// so its peak is exactly the largest charge.
func TestLoadGateChargesDecoderScratch(t *testing.T) {
	b := storage.NewMem()
	saveLayouts(t, b)
	c, err := Open(b, "xor/checkpoint-300")
	if err != nil {
		t.Fatal(err)
	}
	set, err := c.loadSet()
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	deepest := 0
	set.each(func(p *payload, _ string, _ int) error {
		charge := p.size
		if p.codec != "" && p.codec != storage.CodecRaw.String() {
			charge += storage.DecodeScratch
		}
		want, deepest = max(want, charge), max(deepest, len(p.parents))
		return nil
	})
	if deepest < 2 {
		t.Fatalf("fixture: deepest recorded xor chain %d, want >= 2", deepest)
	}
	gate := parallel.NewByteGate(1)
	if _, err := c.readState(gate, nil, nil); err != nil {
		t.Fatal(err)
	}
	if peak := gate.Peak(); peak != want {
		t.Errorf("peak of %d bytes admitted one payload at a time, want the largest charge %d", peak, want)
	}
}

// TestRetainRequestBudget: the requests of one retention pass on an object
// store whose requests take a while, per kind. Retention reads the journal
// and the catalog's commit markers, never a checkpoint manifest when every
// victim has a record, probes each candidate once, and moves each victim blob
// through trash (a copy and a delete on a store without renames) before the
// purge; only the record reads, the marker checks and the sweep's phases fan
// out, never past the request width.
func TestRetainRequestBudget(t *testing.T) {
	store := storage.NewObjStore()
	buildRetainScenario(t, store)
	store.SetLatency(500*time.Microsecond, 0)
	log := &opLog{Fault: storage.NewFault(store)}
	rep, err := Retain(log, "run", 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Removed) != 3 || len(rep.RemovedBlobs) == 0 {
		t.Fatalf("fixture retires nothing: %+v", rep)
	}
	got := map[string]int{}
	for kind, n := range log.reads {
		got[kind] = n
	}
	for _, op := range log.ops {
		verb, key, _ := strings.Cut(op, " ")
		got[verb+" "+keyClass(key)]++
	}
	want := map[string]int{
		// The two store-configuration documents; the pointer, five commit
		// markers, the five records and the two keepers' again in the recheck.
		"get config": 2, "get other": 13,
		// The run root twice (the catalog, then the pin snapshot once the
		// directories are gone) and the journal twice (classification,
		// recheck). A candidate sweep lists nothing in the store.
		"list other": 4,
		// The five layout decisions; the commit checks' file probes, the
		// journal directory twice and each removed record.
		"probe manifest": 15, "probe other": 20,
		// Three victim blobs: a Stat before each trash move and the move's own
		// existence check, a GET and a PUT to copy it into trash, a DELETE of
		// the original and one of the trashed copy.
		"probe blob": 6, "get blob": 3, "create blob": 3, "remove blob": 6,
		// Three directories and three records.
		"remove other": 6,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("requests by kind:\n got  %v\n want %v", got, want)
	}
	if log.peak < 2 || log.peak > storage.RequestWidth {
		t.Errorf("peak of %d GETs in flight, want between 2 and %d", log.peak, storage.RequestWidth)
	}
}

// TestMaintenanceConfigReadBudget: a maintenance operation resolves the run's
// hub attachment and opens its store once, however many views or phases it
// runs: one hubref.json read (two when attached: the run's, then the hub
// store's chain check) and one shards.json read.
func TestMaintenanceConfigReadBudget(t *testing.T) {
	ops := []struct {
		name string
		run  func(b storage.Backend) error
	}{
		{"scan-all-views", func(b storage.Backend) error {
			_, err := ScanRun(b, "run", ScanViews{Blobs: true, Refs: true, Codecs: true})
			return err
		}},
		{"repair", func(b storage.Backend) error { _, err := Repair(b, "run"); return err }},
		{"gc", func(b storage.Backend) error { _, err := GC(b, "run"); return err }},
	}
	for _, attached := range []bool{false, true} {
		for _, op := range ops {
			t.Run(fmt.Sprintf("%s/attached=%v", op.name, attached), func(t *testing.T) {
				b := storage.NewMem()
				if attached {
					attachHub(t, b, "hub", "run", "run")
				}
				saveDedup(t, b, "run/checkpoint-10", 320, 2)
				saveDedup(t, b, "run/checkpoint-20", 321, 2)
				log := &opLog{Fault: storage.NewFault(b)}
				if err := op.run(log); err != nil {
					t.Fatal(err)
				}
				want := 2
				if attached {
					want = 3
				}
				if got := log.reads["get config"]; got > want {
					t.Errorf("%d store-configuration reads, want at most %d", got, want)
				}
			})
		}
	}
}
