package ckpt

// The read stage as one thing: every layout a checkpoint can be stored in
// answers every reader identically (layout parity), a plain whole-rank load
// keeps the one-stream I/O pattern the paper's Table 7 charges, a flipped
// byte anywhere fails every consumer with an error naming the payload, and
// the shared manifest fetch stays best-effort where pins need it to be.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"llmtailor/internal/modelcfg"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

// parityLayouts is the layout axis of the read-stage tables: the same final
// state stored plain and content-addressed under every blob codec, the xor
// run with two earlier generations so its chains are at least two deep.
var parityLayouts = []string{"plain", "raw", "plane", "xor"}

// saveLayouts writes one state as <layout>/checkpoint-300 for every layout,
// world size 4.
func saveLayouts(t testing.TB, b storage.Backend) {
	t.Helper()
	cfg := modelcfg.Tiny()
	m, o := buildOptim(t, cfg, 170)
	// Freshly initialised state does not byte-plane-compress; zeroed moments
	// do, so the last group is what the plane layout stores coded.
	lastGroup := o.States[len(o.States)-1]
	for i := range lastGroup.ExpAvg {
		lastGroup.ExpAvg[i], lastGroup.ExpAvgSq[i] = 0, 0
	}
	spec := func(layout string, step int) SaveSpec {
		s := codecSpec(layout+"/"+DirName(step), step, m, o, layout, 0)
		s.WorldSize = 4
		s.Dedup = layout != "plain"
		if !s.Dedup {
			s.Codec = ""
		}
		return s
	}
	for step := 100; step < 300; step += 100 {
		if err := Save(b, spec("xor", step)); err != nil {
			t.Fatal(err)
		}
		perturbLayer(t, m, o, cfg, 2, step/100)
	}
	for _, layout := range parityLayouts {
		if err := Save(b, spec(layout, 300)); err != nil {
			t.Fatal(err)
		}
	}
	cs, err := ReadCodecStats(b, "xor/checkpoint-300")
	if err != nil {
		t.Fatal(err)
	}
	if cs.DeepestChain < 2 {
		t.Fatalf("fixture: deepest xor chain %d, want >= 2 (%+v)", cs.DeepestChain, cs.Entries)
	}
	if cs, _ = ReadCodecStats(b, "plane/checkpoint-300"); cs == nil || cs.Entries["plane"] == 0 {
		t.Fatalf("fixture: no plane-coded entries: %+v", cs)
	}
}

// readAnswers is everything the read stage says about one checkpoint.
type readAnswers struct {
	Model         string
	Names, Stored []string
	Sizes         map[string]int64
	Raw           map[string]RawTensor
	Eligible      map[string][2]bool
	RawBytes      map[string][]byte
	Tensors       map[string][]byte
	Shards        []ShardFile
	Weights       []byte
	Ranks         [][]byte
	SetSlots      []string
}

func readEverything(t *testing.T, b storage.Backend, dir string) readAnswers {
	t.Helper()
	c, err := Open(b, dir)
	if err != nil {
		t.Fatal(err)
	}
	w := c.Weights()
	a := readAnswers{Model: w.Model(), Names: w.Names(), Sizes: map[string]int64{}, Raw: map[string]RawTensor{},
		Eligible: map[string][2]bool{}, RawBytes: map[string][]byte{}, Tensors: map[string][]byte{}}
	for _, wp := range w.list {
		a.Stored = append(a.Stored, wp.name)
	}
	for _, name := range a.Names {
		if !w.Has(name) {
			t.Fatalf("%s: Has(%q) false", dir, name)
		}
		a.Sizes[name], _ = w.PayloadSize(name)
		if a.Raw[name], err = w.RawTensor(name); err != nil {
			t.Fatal(err)
		}
		a.Eligible[name] = [2]bool{w.RawEligible(name, tensor.BF16), w.RawEligible(name, tensor.F32)}
		rt, rc, err := w.OpenRaw(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rt, a.Raw[name]) {
			t.Fatalf("%s: OpenRaw(%q) describes %+v, RawTensor %+v", dir, name, rt, a.Raw[name])
		}
		a.RawBytes[name], err = io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		ts, err := w.ReadTensor(name)
		if err != nil {
			t.Fatal(err)
		}
		a.Tensors[name] = ts.Encode(nil)
	}
	for r := 0; r < c.WorldSize(); r++ {
		sf, err := c.ReadOptimShard(r)
		if err != nil {
			t.Fatal(err)
		}
		sf.FileBytes = 0 // what a load moves legitimately differs by layout
		a.Shards = append(a.Shards, *sf)
		dst := fmt.Sprintf("mat/%s/rank%d.ltos", dir, r)
		if err := MaterializeShardFile(b, dir, r, dst, 0); err != nil {
			t.Fatal(err)
		}
		data, _ := b.ReadFile(dst)
		a.Ranks = append(a.Ranks, data)
	}
	if err := MaterializeWeights(b, dir, "mat/"+dir+"/model.ltsf", 0); err != nil {
		t.Fatal(err)
	}
	a.Weights, _ = b.ReadFile("mat/" + dir + "/model.ltsf")
	// The whole-checkpoint listing a dedup publication consumes, for either layout.
	src, err := openSource(b, dir)
	if err != nil {
		t.Fatal(err)
	}
	set, err := src.set()
	if err != nil {
		t.Fatal(err)
	}
	set.each(func(p *payload, slot string, _ int) error {
		a.SetSlots = append(a.SetSlots, fmt.Sprintf("%s %d %08x", slot, p.size, p.crc))
		return nil
	})
	return a
}

// TestReadStageLayoutParity: one state, four layouts, two backends — every
// answer of the read stage is identical, and materializing any of them
// (plain → plain included) reproduces the plain save's containers.
func TestReadStageLayoutParity(t *testing.T) {
	backends := map[string]func() storage.Backend{
		"mem":      func() storage.Backend { return storage.NewMem() },
		"objstore": func() storage.Backend { return storage.NewObjStore() },
	}
	for bname, mk := range backends {
		t.Run(bname, func(t *testing.T) {
			b := mk()
			saveLayouts(t, b)
			want := readEverything(t, b, "plain/checkpoint-300")
			if len(want.Names) == 0 || len(want.Shards) != 4 || len(want.SetSlots) == 0 {
				t.Fatalf("fixture: empty answers: %d names, %d shards", len(want.Names), len(want.Shards))
			}
			golden, _ := b.ReadFile("plain/checkpoint-300/model.ltsf")
			if !bytes.Equal(want.Weights, golden) {
				t.Fatal("plain → plain weight materialization differs from the saved container")
			}
			for r, data := range want.Ranks {
				golden, _ := b.ReadFile("plain/checkpoint-300/" + ShardFileName(r))
				if !bytes.Equal(data, golden) {
					t.Fatalf("plain → plain rank %d materialization differs from the saved container", r)
				}
			}
			for _, layout := range parityLayouts[1:] {
				got := readEverything(t, b, layout+"/checkpoint-300")
				gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
				for i := 0; i < gv.NumField(); i++ {
					if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
						t.Errorf("%s: %s differs from the plain layout's", layout, gv.Type().Field(i).Name)
					}
				}
			}
		})
	}
}

// readLog records every read request by kind and key.
type readLog struct {
	storage.Backend
	mu  sync.Mutex
	ops []string
}

func (l *readLog) note(kind, name string) {
	l.mu.Lock()
	l.ops = append(l.ops, kind+" "+name)
	l.mu.Unlock()
}

func (l *readLog) ReadFile(name string) ([]byte, error) {
	l.note("readfile", name)
	return l.Backend.ReadFile(name)
}

func (l *readLog) Open(name string) (io.ReadCloser, error) {
	l.note("open", name)
	return l.Backend.Open(name)
}

func (l *readLog) OpenRange(name string, off, n int64) (io.ReadCloser, error) {
	l.note("openrange", name)
	return l.Backend.OpenRange(name, off, n)
}

func (l *readLog) ReadAt(name string, off int64, p []byte) error {
	l.note("readat", name)
	return l.Backend.ReadAt(name, off, p)
}

func (l *readLog) Stat(name string) (int64, error) {
	l.note("stat", name)
	return l.Backend.Stat(name)
}

func (l *readLog) Exists(name string) bool {
	l.note("exists", name)
	return l.Backend.Exists(name)
}

// TestPlainReadOptimShardIsOneStream: a plain whole-rank load is one Stat
// and one Open of the .ltos — header and payload off the same stream — and a
// Meter charges it exactly that: one file, every byte once, one open latency
// (§5.4; the live Table 7 rows move if the header is fetched separately).
func TestPlainReadOptimShardIsOneStream(t *testing.T) {
	mem := storage.NewMem()
	saveFull(t, mem, "run/checkpoint-5", 61, 2)
	name := "run/checkpoint-5/" + ShardFileName(1)
	h, err := ReadShardHeader(mem, name)
	if err != nil {
		t.Fatal(err)
	}

	log := &readLog{Backend: mem}
	meter := storage.NewMeter(log, storage.Lustre())
	c, err := Open(meter, "run/checkpoint-5")
	if err != nil {
		t.Fatal(err)
	}
	log.ops = nil
	meter.Reset()
	sf, err := c.ReadOptimShard(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"stat " + name, "open " + name}; !reflect.DeepEqual(log.ops, want) {
		t.Fatalf("plain ReadOptimShard requests = %v, want %v", log.ops, want)
	}
	// The stream is drained as header prefix, header body, then one read
	// per group; the Meter charges bandwidth per read.
	p := storage.Lustre()
	sim := p.OpenLatency + p.ReadChunkTime(12) + p.ReadChunkTime(h.FileBytes-h.PayloadBytes-12)
	for _, g := range h.Groups {
		sim += p.ReadChunkTime(g.Offsets[1] - g.Offsets[0])
	}
	st := meter.Stats()
	if st.FilesRead != 1 || st.BytesRead != h.FileBytes || st.SimTime != sim || sf.FileBytes != h.FileBytes {
		t.Fatalf("meter charged %+v (ShardFile.FileBytes %d), want 1 file, %d bytes, %v", st, sf.FileBytes, h.FileBytes, sim)
	}
}

// flipByte corrupts one byte of the stored object at name.
func flipByte(t *testing.T, b storage.Backend, name string, pos func(n int) int) {
	t.Helper()
	corrupt(t, b, name, func(d []byte) []byte {
		d[pos(len(d))] ^= 0x20
		return d
	})
}

// TestReadStageCorruptionTable: a flipped byte in an LTSF tensor, an LTOS
// group, a raw blob or a codec-coded blob fails every consumer of that
// payload with a *CorruptError that names it — never wrong bytes. (Reshard's
// column of the table is internal/reshard's TestReshardCorruptSource.) With a
// second, later payload corrupt as well, the whole-checkpoint load reports
// the first in payload order, the same error on every run, however its eight
// workers interleave.
func TestReadStageCorruptionTable(t *testing.T) {
	cases := []struct {
		name, layout string
		weight       bool
	}{
		{"ltsf tensor", "plain", true},
		{"ltos group", "plain", false},
		{"raw blob", "raw", true},
		{"coded blob", "plane", false},
	}
	backends := map[string]func() storage.Backend{
		"mem":      func() storage.Backend { return storage.NewMem() },
		"objstore": func() storage.Backend { return storage.NewObjStore() },
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for bname, mk := range backends {
				t.Run(bname, func(t *testing.T) { corruptionCase(t, mk(), tc.layout, tc.weight) })
			}
		})
	}
}

// corruptionCase is one row of TestReadStageCorruptionTable on one backend.
func corruptionCase(t *testing.T, b storage.Backend, layout string, weight bool) {
	t.Helper()
	last := func(n int) int { return n - 3 }
	mid := func(n int) int { return n / 2 }
	saveLayouts(t, b)
	dir := layout + "/checkpoint-300"
	c, err := Open(b, dir)
	if err != nil {
		t.Fatal(err)
	}
	// The victims: the weight stored last and rank 1's last group,
	// so a flip near the end of a plain container lands inside them.
	tensorName := c.Weights().list[len(c.Weights().list)-1].name
	lastGroup := func(rank int) groupPayload {
		rs, err := c.src.rank(rank)
		if err != nil {
			t.Fatal(err)
		}
		return rs.groups[len(rs.groups)-1]
	}
	group := lastGroup(1)
	payload := fmt.Sprintf("group %d", group.meta.Index)
	if weight {
		payload = tensorName
	}
	store := storage.NewBlobStore(b, layout+"/objects")
	// flipGroup corrupts a rank's last group where the layout keeps it.
	flipGroup := func(rank int) {
		if layout == "plain" {
			flipByte(t, b, dir+"/"+ShardFileName(rank), last)
		} else {
			flipByte(t, b, store.Path(lastGroup(rank).digest), mid)
		}
	}
	switch {
	case !weight:
		if meta, err := store.Meta(group.digest); layout != "plain" && (err != nil || meta.Codec != storage.CodecPlane) {
			t.Fatalf("fixture: group blob stored as %v (%v), want plane", meta.Codec, err)
		}
		flipGroup(1)
	case layout != "plain":
		flipByte(t, b, store.Path(c.Weights().list[len(c.Weights().list)-1].digest), mid)
	default:
		flipByte(t, b, dir+"/model.ltsf", last)
	}

	named := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted the corrupt payload", what)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) || !strings.Contains(ce.Payload, payload) || ce.Want == ce.Got {
			t.Fatalf("%s: no *CorruptError naming %s: %v", what, payload, err)
		}
		if !strings.Contains(err.Error(), payload) {
			t.Fatalf("%s error does not name %s: %v", what, payload, err)
		}
	}
	if weight {
		_, err = c.Weights().ReadTensor(tensorName)
		named("ReadTensor", err)
		named("MaterializeWeights", MaterializeWeights(b, dir, "mat.ltsf", 0))
	} else {
		_, err = c.ReadOptimShard(1)
		named("ReadOptimShard", err)
		named("MaterializeShardFile", MaterializeShardFile(b, dir, 1, "mat.ltos", 0))
	}
	if layout == "plain" {
		// Staged as they are and published content-addressed under another
		// name: the hash pass holds every byte to its header CRC.
		files, err := readCommitted(b, dir)
		if err != nil {
			t.Fatal(err)
		}
		_, err = files.publishDedup(b, layout+"/converted")
		named("Publish with dedup", err)
		if b.Exists(layout + "/converted") {
			t.Fatal("Publish content-addressed containers it could not verify")
		}
	}

	// A later payload goes bad too: the whole-checkpoint load must
	// keep naming the first.
	flipGroup(3)
	var first string
	for i := 0; i < 50; i++ {
		_, _, _, err := Restore(b, dir, tensor.BF16)
		named("Restore", err)
		if first == "" {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("Restore run %d failed with\n%v\nrun 0 with\n%s", i, err, first)
		}
	}
}

// TestReadManifestsBestEffort: one torn manifest in a quarantined directory
// costs only its own pins — the weight manifest and the other ranks' still
// pin their blobs — while an exact caller gets the failure.
func TestReadManifestsBestEffort(t *testing.T) {
	for _, torn := range []string{ShardManifestName(1), WeightManifestName} {
		b := storage.NewMem()
		saveDedup(t, b, "run/checkpoint-20", 152, 3)
		wm, sms, err := readManifests(b, "run/checkpoint-20")
		if err != nil || wm == nil || len(sms) != 3 {
			t.Fatalf("readManifests on a healthy directory: %v, %v, %d ranks", err, wm, len(sms))
		}
		want := map[string]bool{}
		if torn != WeightManifestName {
			for _, d := range wm.PinDigests() {
				want[d] = true
			}
		}
		for r, sm := range sms {
			if ShardManifestName(r) != torn {
				for _, d := range sm.PinDigests() {
					want[d] = true
				}
			}
		}

		// Quarantine it as adopt would, then tear one manifest.
		b.Remove("run/checkpoint-20/" + CommitMarkerName)
		q := "run/checkpoint-20" + quarantineSuffix
		if err := b.Rename("run/checkpoint-20", q); err != nil {
			t.Fatal(err)
		}
		corrupt(t, b, q+"/"+torn, func(d []byte) []byte { return d[:len(d)/2] })

		if _, _, err := readManifests(b, q); err == nil {
			t.Fatalf("torn %s: readManifests reported no failure", torn)
		}
		if _, err := entryAt(b, q).pinDigests(false); err == nil {
			t.Fatalf("torn %s: exact pin read succeeded", torn)
		}
		refs, err := BlobRefs(b, "run")
		if err != nil {
			t.Fatal(err)
		}
		for d := range want {
			if refs[d] == 0 {
				t.Fatalf("torn %s: digest %s of a readable manifest is not pinned", torn, d)
			}
		}
		if len(want) == 0 {
			t.Fatal("fixture: nothing expected to pin")
		}
	}
}
