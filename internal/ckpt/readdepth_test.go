package ckpt

// The load driver's two bounds, and the waves of metadata requests a restore
// makes before its first payload request. Every wait here is a gate (a
// request parked until the rest of its set is in flight, or gateWait), never
// a timing.

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"llmtailor/internal/modelcfg"
	"llmtailor/internal/storage"
)

// decodeLog counts the payload streams being read at once, class "decode":
// a stream is read from its first Read of payload bytes to its Close, which
// the load driver does inside a decode slot. A Read of no more than the blob
// magic's four bytes is a blob opener sniffing the stored form, part of the
// request (every payload here is longer).
type decodeLog struct{ *opLog }

func (d decodeLog) Open(name string) (io.ReadCloser, error) {
	rc, err := d.opLog.Open(name)
	return d.counted(rc, err)
}

func (d decodeLog) OpenRange(name string, off, n int64) (io.ReadCloser, error) {
	rc, err := d.opLog.OpenRange(name, off, n)
	return d.counted(rc, err)
}

func (d decodeLog) counted(rc io.ReadCloser, err error) (io.ReadCloser, error) {
	if err != nil {
		return nil, err
	}
	return &decodingReader{ReadCloser: rc, log: d.opLog}, nil
}

type decodingReader struct {
	io.ReadCloser
	log  *opLog
	done func()
}

func (r *decodingReader) Read(p []byte) (int, error) {
	if r.done == nil && len(p) > len("LTBC") {
		r.done = r.log.inFlight("decode")
	}
	return r.ReadCloser.Read(p)
}

func (r *decodingReader) Close() error {
	if r.done != nil {
		r.done()
		r.done = nil
	}
	return r.ReadCloser.Close()
}

// TestRestoreDecodeWidth: a restore over a latency object store keeps many
// payload requests waiting, yet reads, checks and places at most
// storage.RequestWidth payloads of the load at once — plain and
// content-addressed alike. The readers are parked until that many read
// together, so the bound is reached whatever the scheduler does.
func TestRestoreDecodeWidth(t *testing.T) {
	m, o := buildOptim(t, modelcfg.Tiny(), 351)
	store := storage.NewObjStore()
	for _, dedup := range []bool{true, false} {
		spec := SaveSpec{Dir: "run/checkpoint-100", Model: m, Optim: o, WorldSize: 4, Strategy: "full",
			Dedup: dedup, State: TrainerState{Step: 100, Seed: 7}}
		if !dedup {
			spec.Dir = "plain/checkpoint-100"
		}
		if err := Save(store, spec); err != nil {
			t.Fatal(err)
		}
	}
	store.SetLatency(500*time.Microsecond, 0)
	for _, dir := range []string{"run/checkpoint-100", "plain/checkpoint-100"} {
		t.Run(dir, func(t *testing.T) {
			log := &opLog{Fault: storage.NewFault(store), gates: map[string]int{"decode": storage.RequestWidth}}
			restoreEquals(t, decodeLog{log}, dir, m, o)
			log.mu.Lock()
			defer log.mu.Unlock()
			if peak := log.busyPeak["decode"]; peak != storage.RequestWidth || len(log.missed) != 0 {
				t.Errorf("peak of %d payloads decoding at once, want %d (never that many together: %v)",
					peak, storage.RequestWidth, log.missed)
			}
		})
	}
}

// waveLog holds a restore to waves of metadata requests (ReadFile, ReadAt):
// each is parked until every member of the wave it is expected in — keys by
// suffix, a key expected twice is in two waves — is in flight together, or
// until gateWait passes, which missed records. A metadata request expected
// in no wave, or any wave unfinished when the first payload request (Open,
// OpenRange) is made, is recorded in stray.
type waveLog struct {
	storage.Backend
	mu sync.Mutex
	// waves are the expected waves, left their members not yet requested.
	waves, left [][]string
	arrived     []int
	opened      []chan struct{}
	missed      []int
	stray       []string
}

func newWaveLog(b storage.Backend, waves ...[]string) *waveLog {
	l := &waveLog{Backend: b, waves: waves, arrived: make([]int, len(waves))}
	for _, w := range waves {
		l.left = append(l.left, slices.Clone(w))
		l.opened = append(l.opened, make(chan struct{}))
	}
	return l
}

// meta parks one metadata request until its wave is in flight.
func (l *waveLog) meta(key string) {
	l.mu.Lock()
	k := -1
	for i := 0; i < len(l.left) && k < 0; i++ {
		if j := slices.IndexFunc(l.left[i], func(suffix string) bool {
			return key == suffix || strings.HasSuffix(key, "/"+suffix)
		}); j >= 0 {
			k, l.left[i] = i, slices.Delete(l.left[i], j, j+1)
		}
	}
	if k < 0 {
		l.stray = append(l.stray, key)
		l.mu.Unlock()
		return
	}
	if l.arrived[k]++; l.arrived[k] == len(l.waves[k]) {
		close(l.opened[k])
	}
	wait := l.opened[k]
	l.mu.Unlock()
	select {
	case <-wait:
	case <-time.After(gateWait):
		l.mu.Lock()
		if l.arrived[k] < len(l.waves[k]) {
			l.missed = append(l.missed, k+1)
			l.arrived[k] = len(l.waves[k])
			close(l.opened[k])
		}
		l.mu.Unlock()
	}
}

// payload checks that every wave was in flight before a payload request.
func (l *waveLog) payload(key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for k := range l.waves {
		if l.arrived[k] < len(l.waves[k]) {
			l.stray = append(l.stray, fmt.Sprintf("%s before wave %d", key, k+1))
		}
	}
}

func (l *waveLog) ReadFile(name string) ([]byte, error) {
	l.meta(name)
	return l.Backend.ReadFile(name)
}

func (l *waveLog) ReadAt(name string, off int64, p []byte) error {
	l.meta(name)
	return l.Backend.ReadAt(name, off, p)
}

func (l *waveLog) Open(name string) (io.ReadCloser, error) {
	l.payload(name)
	return l.Backend.Open(name)
}

func (l *waveLog) OpenRange(name string, off, n int64) (io.ReadCloser, error) {
	l.payload(name)
	return l.Backend.OpenRange(name, off, n)
}

func (l *waveLog) Unwrap() storage.Backend { return l.Backend }

// TestRestoreOpenWaves: before its first payload request a content-addressed
// restore makes two dependent waves of metadata requests — the trainer
// documents, the weight manifest and hubref.json; then shards.json and the
// rank manifests — and one attached to a hub one more, the hub's own
// hubref.json. A plain restore makes two: the documents with the head of
// the weight container's header, then the header's body.
func TestRestoreOpenWaves(t *testing.T) {
	const ranks = 4
	m, o := buildOptim(t, modelcfg.Tiny(), 352)
	b := storage.NewMem()
	attachHub(t, b, "hub", "attached", "a")
	for _, dir := range []string{"run/checkpoint-100", "plain/checkpoint-100", "attached/checkpoint-100"} {
		spec := SaveSpec{Dir: dir, Model: m, Optim: o, WorldSize: ranks, Strategy: "full",
			Dedup: !strings.HasPrefix(dir, "plain"), State: TrainerState{Step: 100, Seed: 7}}
		if err := Save(b, spec); err != nil {
			t.Fatal(err)
		}
	}
	docs := []string{"config.json", "trainer_state.json", "manifest.json"}
	manifests := func(store string) []string {
		w := []string{store + "/" + storage.ShardConfigName}
		for r := range ranks {
			w = append(w, ShardManifestName(r))
		}
		return w
	}
	for _, tc := range []struct {
		dir   string
		waves [][]string
	}{
		{"run/checkpoint-100", [][]string{
			append(docs[:3:3], WeightManifestName, "run/objects/"+storage.HubRefName),
			manifests("run/objects")}},
		{"attached/checkpoint-100", [][]string{
			append(docs[:3:3], WeightManifestName, "attached/objects/"+storage.HubRefName),
			{"hub/objects/" + storage.HubRefName},
			manifests("hub/objects")}},
		{"plain/checkpoint-100", [][]string{append(docs[:3:3], "model.ltsf"), {"model.ltsf"}}},
	} {
		t.Run(tc.dir, func(t *testing.T) {
			log := newWaveLog(b, tc.waves...)
			restoreEquals(t, log, tc.dir, m, o)
			log.mu.Lock()
			defer log.mu.Unlock()
			if len(log.missed) != 0 || len(log.stray) != 0 {
				t.Errorf("waves %v not each in flight together: %v; requests outside them: %v", tc.waves, log.missed, log.stray)
			}
		})
	}
}
