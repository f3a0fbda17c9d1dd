package ckpt

// Direct concurrency coverage for the sweep-versus-save race the crash
// tests only reach point-wise: a garbage collection running while a dedup
// save is mid-flight must never sweep the save's blobs, whether the save
// has reached the journal, the staging manifests, or neither.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

// TestSweepPinsStagedUnpublishedManifests constructs the worst mid-save
// state directly: blobs published, manifests staged under <dir>.tmp, no
// COMMITTED marker and no journal record (the pre-ref-index window). The
// refcounts BlobStore.Sweep is handed must pin those blobs.
func TestSweepPinsStagedUnpublishedManifests(t *testing.T) {
	b := storage.NewMem()
	saveDedup(t, b, "run/checkpoint-100", 320, 2)
	m, o := buildOptim(t, modelcfg.Tiny(), 321)
	if err := Save(b, SaveSpec{Dir: "run/checkpoint-200", Model: m, Optim: o, WorldSize: 2,
		Strategy: "full", Dedup: true, State: TrainerState{Step: 200, Seed: 11}}); err != nil {
		t.Fatal(err)
	}
	// Demote checkpoint-200 to a staged-but-unsealed tree: manifests only,
	// no marker, and drop its journal record.
	for _, name := range []string{WeightManifestName, ShardManifestName(0), ShardManifestName(1)} {
		data, err := b.ReadFile("run/checkpoint-200/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.WriteFile("run/checkpoint-200.tmp/"+name, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Remove("run/checkpoint-200"); err != nil {
		t.Fatal(err)
	}
	ix := mustRefIndex(t, b, "run")
	entries, _, _, err := ix.Entries()
	if err != nil {
		t.Fatal(err)
	}
	var staged []string
	for _, e := range entries {
		if e.Key == "checkpoint-200" {
			rec, err := ix.Read(e)
			if err != nil {
				t.Fatal(err)
			}
			staged = rec.Digests
			if err := ix.Remove(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(staged) == 0 {
		t.Fatal("no staged digests collected")
	}

	// The staged manifests alone must pin their blobs in BlobRefs...
	refs, err := BlobRefs(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range staged {
		if refs[d] == 0 {
			t.Fatalf("staged-but-unpublished manifest does not pin blob %s", d)
		}
	}
	// ...through a direct BlobStore.Sweep over those refcounts...
	store := storage.NewBlobStore(b, "run/objects")
	if _, err := store.Sweep(storage.SweepSpec{Pins: refs}); err != nil {
		t.Fatal(err)
	}
	for _, d := range staged {
		if !store.Has(d) {
			t.Fatalf("sweep removed staged blob %s", d)
		}
	}
	// ...and through both GC modes.
	if _, err := GC(b, "run"); err != nil {
		t.Fatal(err)
	}
	if _, err := GCGenerational(b, "run", false); err != nil {
		t.Fatal(err)
	}
	for _, d := range staged {
		if !store.Has(d) {
			t.Fatalf("gc removed staged blob %s", d)
		}
	}
	// Completing the save over the durable state still works bit-for-bit.
	if err := Save(b, SaveSpec{Dir: "run/checkpoint-200", Model: m, Optim: o, WorldSize: 2,
		Strategy: "full", Dedup: true, State: TrainerState{Step: 200, Seed: 11}}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Restore(b, "run/checkpoint-200", tensor.BF16); err != nil {
		t.Fatal(err)
	}
}

// renameHookBackend triggers a callback before delegating a Rename —
// test plumbing to interleave operations at an exact sweep step.
type renameHookBackend struct {
	storage.Backend
	hook func(oldName, newName string)
}

func (b *renameHookBackend) Rename(oldName, newName string) error {
	if b.hook != nil {
		b.hook(oldName, newName)
	}
	return b.Backend.Rename(oldName, newName)
}

// TestSweepRestoresBlobReusedMidSweep pins the exact TOCTOU the two-phase
// sweep exists for: a retention sweep takes its pin snapshot, then a
// concurrent save journals a record REUSING one of the victim's blobs
// (its dedup-hit check passed while the blob was still live, so it never
// rewrites it). The sweep's post-trash recheck must see the new record
// and restore the blob instead of purging it.
func TestSweepRestoresBlobReusedMidSweep(t *testing.T) {
	mem := storage.NewMem()
	cfg := modelcfg.Tiny()
	m, err := model.NewInitialized(cfg, tensor.BF16, 340)
	if err != nil {
		t.Fatal(err)
	}
	o, err := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		// Two dirtied tensors per save: the victim ends up with (at least)
		// two exclusive blobs — one to restore, one to genuinely reclaim.
		for _, ti := range []int{0, 1} {
			ts := m.Tensors()[ti]
			ts.Set(0, ts.At(0)+float32(i))
		}
		if err := Save(mem, SaveSpec{Dir: fmt.Sprintf("run/checkpoint-%d", i*10),
			Model: m, Optim: o, WorldSize: 1, Strategy: "full", Dedup: true,
			State: TrainerState{Step: i * 10, Seed: 340}}); err != nil {
			t.Fatal(err)
		}
	}
	// Pick a digest exclusive to the victim (checkpoint-10).
	ix := mustRefIndex(t, mem, "run")
	entries, _, _, err := ix.Entries()
	if err != nil {
		t.Fatal(err)
	}
	keeperPins := map[string]bool{}
	var victim *storage.RefRecord
	for _, e := range entries {
		rec, err := ix.Read(e)
		if err != nil {
			t.Fatal(err)
		}
		if e.Key == "checkpoint-10" {
			victim = rec
			continue
		}
		for _, d := range rec.Digests {
			keeperPins[d] = true
		}
	}
	var reused string
	for _, d := range victim.Digests {
		if !keeperPins[d] {
			reused = d
			break
		}
	}
	if reused == "" {
		t.Fatal("victim has no exclusive digest")
	}

	// At the first trash rename — after the sweep's pin snapshot — a
	// "concurrent save" journals a record reusing the victim-exclusive
	// blob, exactly as a dedup-hit save would before its commit.
	hb := &renameHookBackend{Backend: mem}
	fired := false
	hb.hook = func(_, newName string) {
		if fired || !strings.Contains(newName, "/.trash/") {
			return
		}
		fired = true
		if _, err := appendRefRecord(storage.NewRefIndex(mem, "run/objects"), "run/checkpoint-999", 999, []string{reused}); err != nil {
			t.Errorf("mid-sweep append: %v", err)
		}
	}
	rep, err := Retain(hb, "run", 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("sweep never trashed anything — scenario broken")
	}
	store := storage.NewBlobStore(mem, "run/objects")
	if !store.Has(reused) {
		t.Fatal("sweep purged a blob a concurrent save had journaled a reuse of")
	}
	for _, d := range rep.RemovedBlobs {
		if d == reused {
			t.Fatal("reused blob reported removed")
		}
	}
	// The victim's other exclusive blobs are genuinely gone, and no trash
	// residue remains.
	if trash, _ := store.ListTrash(); len(trash) != 0 {
		t.Fatalf("trash residue after sweep: %v", trash)
	}
	if len(rep.RemovedBlobs) == 0 {
		t.Fatal("sweep reclaimed nothing at all")
	}
}

// TestSweepRacingConcurrentDedupSave hammers both GC modes against a
// stream of dedup saves (fresh steps and in-place replaces) on a shared
// backend. Whatever interleaving the scheduler picks, every save must
// commit, every committed checkpoint must restore bit-exact afterwards,
// and quiescent repair + full GC must converge with a clean index.
func TestSweepRacingConcurrentDedupSave(t *testing.T) {
	b := storage.NewMem()
	const saves = 12
	states := make([]*model.Model, saves+1)
	optims := make([]*optim.AdamW, saves+1)

	var wg sync.WaitGroup
	done := make(chan struct{})
	saveErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 1; i <= saves; i++ {
			m, o := buildOptim(t, modelcfg.Tiny(), uint64(330+i))
			states[i], optims[i] = m, o
			// Every third save replaces the previous directory in place,
			// superseding its generation while sweeps run.
			dir := fmt.Sprintf("run/checkpoint-%d", i*10)
			if i%3 == 0 {
				dir = fmt.Sprintf("run/checkpoint-%d", (i-1)*10)
			}
			if err := Save(b, SaveSpec{Dir: dir, Model: m, Optim: o, WorldSize: 2,
				Strategy: "full", Dedup: true, State: TrainerState{Step: i * 10, Seed: uint64(330 + i)}}); err != nil {
				select {
				case saveErr <- fmt.Errorf("save %s: %w", dir, err):
				default:
				}
				return
			}
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := GC(b, "run"); err != nil {
				t.Errorf("concurrent full gc: %v", err)
				return
			}
			if _, err := GCGenerational(b, "run", false); err != nil {
				t.Errorf("concurrent generational gc: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-saveErr:
		t.Fatal(err)
	default:
	}

	// Quiesce, then verify every committed checkpoint restores bit-exact
	// against the state that produced it.
	if _, err := Repair(b, "run"); err != nil {
		t.Fatal(err)
	}
	if _, err := GC(b, "run"); err != nil {
		t.Fatal(err)
	}
	dirs, err := List(b, "run")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no committed checkpoints survived the race")
	}
	for _, dir := range dirs {
		rm, ro, c, err := Restore(b, dir, tensor.BF16)
		if err != nil {
			t.Fatalf("%s unrestorable after race: %v", dir, err)
		}
		i := c.State.Step / 10
		if i < 1 || i > saves || states[i] == nil {
			t.Fatalf("%s restored unknown step %d", dir, c.State.Step)
		}
		if !model.Equal(rm, states[i]) || !sameOptim(ro, optims[i]) {
			t.Fatalf("%s is a hybrid after racing sweeps", dir)
		}
	}
	if problems := refProblems(t, b, "run"); len(problems) != 0 {
		t.Fatalf("index problems after quiesce: %+v", problems)
	}
}
