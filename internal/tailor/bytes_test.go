package tailor

import (
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"llmtailor/internal/ckpt"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/recipe"
	"llmtailor/internal/storage"
)

// payloadReads counts the bytes read through it from source payloads —
// weight and shard containers, blobs — and from the configs a merge copies,
// as the streams deliver them. Container headers (ReadAt), manifests and a
// blob's magic sniffed before a ranged read are metadata, not payload, and
// are not counted; the sniffs are counted apart.
type payloadReads struct {
	storage.Backend
	n, sniffs atomic.Int64
}

func (p *payloadReads) payload(name string) bool {
	base := name[strings.LastIndex(name, "/")+1:]
	switch {
	case strings.Contains(name, "/objects/refs/"):
		return false
	case strings.Contains(name, "/objects/"):
		return true
	}
	return base == "model.ltsf" || strings.HasSuffix(base, ".ltos") || base == "config.json" || base == "trainer_state.json"
}

type countedStream struct {
	io.ReadCloser
	n *atomic.Int64
}

func (s countedStream) Read(b []byte) (int, error) {
	k, err := s.ReadCloser.Read(b)
	s.n.Add(int64(k))
	return k, err
}

func (p *payloadReads) count(name string, rc io.ReadCloser, err error) (io.ReadCloser, error) {
	if err != nil || !p.payload(name) {
		return rc, err
	}
	return countedStream{rc, &p.n}, nil
}

func (p *payloadReads) Open(name string) (io.ReadCloser, error) {
	rc, err := p.Backend.Open(name)
	return p.count(name, rc, err)
}

func (p *payloadReads) OpenRange(name string, off, n int64) (io.ReadCloser, error) {
	rc, err := p.Backend.OpenRange(name, off, n)
	if off == 0 && n == 4 && strings.Contains(name, "/objects/") {
		p.sniffs.Add(1) // the blob store sniffing a blob's magic before a ranged read
		return rc, err
	}
	return p.count(name, rc, err)
}

func (p *payloadReads) ReadFile(name string) ([]byte, error) {
	data, err := p.Backend.ReadFile(name)
	if err == nil && p.payload(name) {
		p.n.Add(int64(len(data)))
	}
	return data, err
}

// TestMergeBytesReadMatchesBackend: a merge's BytesRead is the source
// payload and config bytes its backend sees read, across a world-size change
// too — a spliced group's source payloads are read whole once for their
// check before their ranges are, and both reads count — from plain sources
// and from content-addressed ones. A spliced blob's ranges are served in the
// form its check learned: no magic is sniffed before any of them.
func TestMergeBytesReadMatchesBackend(t *testing.T) {
	for _, dedup := range []bool{false, true} {
		name := "plain"
		if dedup {
			name = "content-addressed"
		}
		t.Run(name, func(t *testing.T) {
			base := storage.NewMem()
			cfg := modelcfg.Tiny()
			r := trainRun(t, base, cfg, 3, []int{5, 10}, nil, dedup)
			if err := ckpt.Save(base, ckpt.SaveSpec{
				Dir: "wide/checkpoint-10", Model: r.models[10], Optim: r.optims[10],
				WorldSize: 5, Strategy: "test", Dedup: dedup,
				State: ckpt.TrainerState{Step: 10, LR: 1e-3, Loss: 2, Task: "sft", Seed: 77},
			}); err != nil {
				t.Fatal(err)
			}
			b := &payloadReads{Backend: base}
			plan, err := NewPlan(b, recipe.Parity("run/checkpoint-5", "wide/checkpoint-10", cfg, "merged/checkpoint-10"))
			if err != nil {
				t.Fatal(err)
			}
			if plan.WorldSize != 5 || plan.Resharded["run/checkpoint-5"] != 3 {
				t.Fatalf("plan: world %d, resharded %v", plan.WorldSize, plan.Resharded)
			}
			b.n.Store(0) // opening the sources read only their trailers
			stats, err := Execute(b, plan, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if got := b.n.Load(); stats.BytesRead != got {
				t.Fatalf("BytesRead = %d, the backend read %d payload and config bytes", stats.BytesRead, got)
			}
			if n := b.sniffs.Load(); n != 0 {
				t.Fatalf("%d magic sniffs before ranged blob reads, want 0", n)
			}
		})
	}
}
