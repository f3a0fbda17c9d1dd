package ckpt

// The save-path identity matrix. Every saver — the synchronous Save, the
// snapshot AsyncSaver and the lazy capture saver — feeds the one write
// stage, so for every output mode and backend kind they must publish
// byte-identical run roots, and the sync and lazy feeders must drive the
// backend through the identical sequence of mutating operations: the
// property that lets each crash exploration stand for all three savers.

import (
	"fmt"
	"io"
	"regexp"
	"sync"
	"testing"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
)

// opLog records every mutating backend operation as "kind key". (Stream
// chunk writes are not operations of their own: a feeder replaying a spool
// hands a payload over in fewer, wider writes than one encoding live state.)
type opLog struct {
	*storage.Fault
	mu  sync.Mutex
	ops []string
}

// blobStageName matches the process-global sequence in blob staging names,
// the one nondeterministic key component.
var blobStageName = regexp.MustCompile(`/put-\d+-\d+$`)

func (l *opLog) note(kind, key string) {
	l.mu.Lock()
	l.ops = append(l.ops, kind+" "+blobStageName.ReplaceAllString(key, "/put-*"))
	l.mu.Unlock()
}

func (l *opLog) WriteFile(name string, data []byte) error {
	l.note("write", name)
	return l.Fault.WriteFile(name, data)
}

func (l *opLog) Create(name string) (io.WriteCloser, error) {
	l.note("create", name)
	return l.Fault.Create(name)
}

func (l *opLog) Rename(oldName, newName string) error {
	l.note("rename", blobStageName.ReplaceAllString(oldName, "/put-*")+" -> "+newName)
	return l.Fault.Rename(oldName, newName)
}

func (l *opLog) Remove(name string) error {
	l.note("remove", name)
	return l.Fault.Remove(name)
}

func (l *opLog) Compose(dst string, parts ...string) error {
	l.note("compose", dst)
	return l.Fault.Compose(dst, parts...)
}

func TestSavePathIdentityMatrix(t *testing.T) {
	cfg := modelcfg.Tiny()
	m1, o1 := buildOptim(t, cfg, 190)
	// The second state differs from the first in one layer, advanced the
	// way a training step advances it (generation counters included), so
	// the second save mixes dedup hits, gen-proof reuse and moved payloads.
	m2 := m1.Clone()
	o2 := o1.Clone(m2)
	mutateLayer(t, m2, o2, modelcfg.Block(1), 1)

	modes := []struct {
		name  string
		dedup bool
		codec string
	}{
		{"plain", false, ""},
		{"dedup-raw", true, ""},
		{"dedup-xor", true, "xor"},
	}
	backends := []struct {
		name string
		mk   func() storage.Backend
	}{
		{"mem", func() storage.Backend { return storage.NewMem() }},
		{"objstore", func() storage.Backend { return storage.NewObjStore() }},
	}
	// A saver runs the two saves to completion; between is called once the
	// first is fully committed.
	type saver func(b storage.Backend, first, second SaveSpec, between func()) error
	savers := []struct {
		name string
		run  saver
	}{
		{"sync", func(b storage.Backend, first, second SaveSpec, between func()) error {
			if err := Save(b, first); err != nil {
				return err
			}
			between()
			return Save(b, second)
		}},
		{"snapshot", func(b storage.Backend, first, second SaveSpec, between func()) error {
			s := NewAsyncSaver(b, 1)
			if err := s.Save(first); err != nil {
				return err
			}
			if err := s.Flush(); err != nil {
				return err
			}
			between()
			if err := s.Save(second); err != nil {
				return err
			}
			return s.Wait()
		}},
		{"lazy", func(b storage.Backend, first, second SaveSpec, between func()) error {
			// One engine across both saves, so the second exercises the
			// generation cache as a training loop would.
			s := NewLazyAsyncSaver(b, 1, CaptureOptions{})
			for i, spec := range []SaveSpec{first, second} {
				if err := s.Save(spec); err != nil {
					return err
				}
				if err := s.WaitCaptured(); err != nil {
					return err
				}
				if err := s.Flush(); err != nil {
					return err
				}
				if i == 0 {
					between()
				}
			}
			return s.Wait()
		}},
	}

	for _, mode := range modes {
		for _, bk := range backends {
			t.Run(mode.name+"/"+bk.name, func(t *testing.T) {
				spec := func(step int, m *model.Model, o *optim.AdamW) SaveSpec {
					return SaveSpec{Dir: fmt.Sprintf("run/checkpoint-%d", step), Model: m, Optim: o,
						WorldSize: 2, Strategy: "full", Dedup: mode.dedup, Codec: mode.codec,
						LayerGens: o.LayerGens(), State: TrainerState{Step: step, Seed: 190}}
				}
				type outcome struct {
					digest string
					ops    []string
				}
				got := map[string]outcome{}
				for _, sv := range savers {
					log := &opLog{Fault: storage.NewFault(bk.mk())}
					err := sv.run(log, spec(100, m1, o1), spec(200, m2, o2), func() {
						log.mu.Lock()
						log.ops = nil
						log.mu.Unlock()
					})
					if err != nil {
						t.Fatalf("%s: %v", sv.name, err)
					}
					got[sv.name] = outcome{digest: treeDigest(t, log, "run"), ops: log.ops}
				}
				want := got["sync"]
				if len(want.ops) == 0 {
					t.Fatal("recorded no mutating operation for the second sync save")
				}
				for _, sv := range savers[1:] {
					o := got[sv.name]
					if o.digest != want.digest {
						t.Errorf("%s: run root differs from the sync saver's", sv.name)
					}
					if len(o.ops) != len(want.ops) {
						t.Errorf("%s: %d mutating ops, sync has %d", sv.name, len(o.ops), len(want.ops))
						continue
					}
					for i := range o.ops {
						if o.ops[i] != want.ops[i] {
							t.Errorf("%s: mutating op %d is %q, sync does %q", sv.name, i, o.ops[i], want.ops[i])
							break
						}
					}
				}
			})
		}
	}
}
