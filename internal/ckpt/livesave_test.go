package ckpt

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
	"llmtailor/internal/zero"
)

// The ranged encoder over the live state is byte-for-byte — and write for
// write — the encoding of zero.ShardGroup's copied shard, padding included.
func TestGroupRangeMatchesShardGroup(t *testing.T) {
	rng := tensor.NewRNG(3)
	for _, numel := range []int64{0, 1, 7, 12, 13, 1031} {
		st := optim.NewGroupState(numel)
		for i := range st.Master {
			st.Master[i], st.ExpAvg[i], st.ExpAvgSq[i] = rng.NormFloat32(), rng.NormFloat32(), rng.NormFloat32()
		}
		for world := 1; world <= 5; world++ {
			shards, err := zero.ShardGroup(0, st, world)
			if err != nil {
				t.Fatal(err)
			}
			part, err := zero.NewPartition(numel, world)
			if err != nil {
				t.Fatal(err)
			}
			for r, sh := range shards {
				for _, bufLen := range []int{4, 40, 4096} {
					var want, got writeLog
					if _, err := encodeGroupPayload(&want, make([]byte, bufLen), sh); err != nil {
						t.Fatal(err)
					}
					lo, hi := part.Range(r)
					n, err := encodeGroupRange(&got, make([]byte, bufLen), st, lo, hi)
					if err != nil || n != sh.Numel()*12 {
						t.Fatalf("numel %d world %d rank %d: encoded %d bytes (%v), want %d", numel, world, r, n, err, sh.Numel()*12)
					}
					if !bytes.Equal(got.Bytes(), want.Bytes()) || !slices.Equal(got.cuts, want.cuts) {
						t.Fatalf("numel %d world %d rank %d buf %d: ranged encoding differs from the copied shard's", numel, world, r, bufLen)
					}
				}
			}
		}
	}
}

type writeLog struct {
	bytes.Buffer
	cuts []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.cuts = append(w.cuts, len(p))
	return w.Buffer.Write(p)
}

// A spec whose optimizer is not its model's is refused before the backend
// is touched, by both savers: it used to panic (nil parts) or commit a
// checkpoint no restore could read, and move latest to it.
func TestSaveRejectsMismatchedSpec(t *testing.T) {
	m, o := buildOptim(t, modelcfg.Tiny(), 71)
	_, qo := buildOptim(t, modelcfg.TinyQwen(), 72)
	short := o.Clone(m)
	short.States[1].ExpAvg = short.States[1].ExpAvg[:3]
	missing := o.Clone(m)
	missing.States = missing.States[:len(missing.States)-1]
	cases := []struct {
		name  string
		model *model.Model
		optim *optim.AdamW
	}{
		{"nil model", nil, o},
		{"nil optimizer", m, nil},
		{"optimizer of another model", m, qo},
		{"short group state", m, short},
		{"missing group state", m, missing},
	}
	savers := map[string]func(storage.Backend, SaveSpec) error{
		"sync": Save,
		"lazy": func(b storage.Backend, spec SaveSpec) error {
			s := NewLazyAsyncSaver(b, 1, CaptureOptions{})
			err := s.Save(spec)
			if werr := s.Wait(); err == nil {
				err = werr
			}
			return err
		},
	}
	for _, c := range cases {
		for saver, save := range savers {
			for _, dedup := range []bool{false, true} {
				b := storage.NewMem()
				spec := SaveSpec{Dir: "run/checkpoint-1", Model: c.model, Optim: c.optim, WorldSize: 2,
					Dedup: dedup, State: TrainerState{Step: 1}}
				var err error
				func() {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("panic: %v", r)
						}
					}()
					err = save(b, spec)
				}()
				if err == nil || strings.HasPrefix(err.Error(), "panic") {
					t.Errorf("%s, %s save, dedup %v: err = %v, want a spec error", c.name, saver, dedup, err)
				}
				if names, _ := b.List(""); len(names) != 0 {
					t.Errorf("%s, %s save, dedup %v: backend holds %v after a refused spec", c.name, saver, dedup, names)
				}
			}
		}
	}
}

// No writer keeps a view of the live state: the state mutated as soon as
// Save (or WaitCaptured) returns — and, for the lazy saver, before any of its
// backend writes is let through — never shows in the checkpoint.
func TestSaveNeverKeepsLiveState(t *testing.T) {
	backends := map[string]func(t *testing.T) storage.Backend{
		"mem": func(*testing.T) storage.Backend { return storage.NewMem() },
		"os": func(t *testing.T) storage.Backend {
			b, err := storage.NewOS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
	}
	for name, mk := range backends {
		for _, lazy := range []bool{false, true} {
			for _, dedup := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/lazy=%v/dedup=%v", name, lazy, dedup), func(t *testing.T) {
					b := mk(t)
					m, o := buildOptim(t, modelcfg.Tiny(), 73)
					// A first save gives the dedup saves below a parent to hit
					// and to xor the one changed layer against.
					spec := SaveSpec{Dir: "run/checkpoint-1", Model: m, Optim: o, WorldSize: 3,
						Dedup: dedup, State: TrainerState{Step: 1}}
					if dedup {
						spec.Codec = "xor"
					}
					if err := Save(b, spec); err != nil {
						t.Fatal(err)
					}
					mutateLayer(t, m, o, modelcfg.Block(1), 0.5)
					wantM := m.Clone()
					wantO := o.Clone(wantM)
					spec.Dir, spec.State.Step = "run/checkpoint-2", 2
					if lazy {
						parked := newParkedBackend(b)
						s := NewLazyAsyncSaver(parked, 1, CaptureOptions{})
						if err := s.Save(spec); err != nil {
							t.Fatal(err)
						}
						if err := s.WaitCaptured(); err != nil {
							t.Fatal(err)
						}
						trash(m, o)
						close(parked.release)
						if err := s.Wait(); err != nil {
							t.Fatal(err)
						}
					} else {
						if err := Save(b, spec); err != nil {
							t.Fatal(err)
						}
						trash(m, o)
					}
					restoreEquals(t, b, "run/checkpoint-2", wantM, wantO)
				})
			}
		}
	}
}

// trash overwrites every live weight and optimizer element.
func trash(m *model.Model, o *optim.AdamW) {
	for _, ts := range m.Tensors() {
		ts.Fill(99)
	}
	for _, st := range o.States {
		for i := range st.Master {
			st.Master[i], st.ExpAvg[i], st.ExpAvgSq[i] = -99, -99, -99
		}
	}
}

// A dedup save of an unchanged state copies none of it: the payloads are
// hashed straight off the live vectors and every blob is a hit, so the save
// allocates a small fraction of the optimizer's bytes (it used to copy all of
// them into rank shards first).
func TestDedupResaveCopiesNoState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled chunks, so scratch allocations count")
	}
	cfg := modelcfg.Tiny()
	cfg.Name, cfg.HiddenSize, cfg.IntermediateSize, cfg.VocabSize = "tiny-wide", 128, 256, 512
	m, o := buildOptim(t, cfg, 74)
	var optimBytes int64
	for _, st := range o.States {
		optimBytes += st.Numel() * 12
	}
	// The bound is about copies of the state, not scratch: cap the hash
	// width, whose pooled chunks are per core, so a many-core host measures
	// the same thing.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), 4)))
	b := storage.NewMem()
	spec := SaveSpec{Dir: "run/checkpoint-1", Model: m, Optim: o, WorldSize: 4, Dedup: true, State: TrainerState{Step: 1}}
	if err := Save(b, spec); err != nil {
		t.Fatal(err)
	}
	spec.Dir = "run/checkpoint-2"
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := Save(b, spec); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("unchanged dedup save allocated %d bytes for %d optimizer bytes", alloc, optimBytes)
	if alloc*4 >= optimBytes {
		t.Fatalf("unchanged dedup save allocated %d bytes for %d optimizer bytes (want < 1/4)", alloc, optimBytes)
	}
	restoreEquals(t, b, "run/checkpoint-2", m, o)
}
