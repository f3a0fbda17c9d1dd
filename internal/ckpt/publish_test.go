package ckpt

import (
	"fmt"
	"testing"

	"llmtailor/internal/optim"
	"llmtailor/internal/storage"
	"llmtailor/internal/tensor"
)

// outputByReference writes the committed checkpoint src again at dst through
// an Output — every payload by reference, the trailer files as src holds
// them — the way merge, blend and reshard build their outputs.
func outputByReference(b storage.Backend, src, dst string, dedup bool) (BlobReport, error) {
	c, err := Open(b, src)
	if err != nil {
		return BlobReport{}, err
	}
	out := NewOutput(c.Weights().Model())
	for _, wp := range c.Weights().list {
		dt, err := tensor.ParseDType(wp.dtype)
		if err == nil {
			_, err = out.Tensor(c.Weights(), wp.name, dt)
		}
		if err != nil {
			return BlobReport{}, err
		}
	}
	layout, err := optim.ParseLayoutKind(c.State.Layout)
	if err != nil {
		return BlobReport{}, err
	}
	world := c.WorldSize()
	ranks := make([][]GroupExtent, world)
	var step int
	for r := range ranks {
		if ranks[r], step, err = c.OptimExtents(r); err != nil {
			return BlobReport{}, err
		}
	}
	for r := range ranks {
		rank := out.Rank(r, world, step, layout)
		for gi := range ranks[0] {
			src := make([]GroupExtent, world)
			for sr := range src {
				src[sr] = ranks[sr][gi]
			}
			if _, _, err := rank.Group(src); err != nil {
				return BlobReport{}, err
			}
		}
	}
	tr := &Trailer{Manifest: c.Manifest, Step: c.State.Step}
	if tr.Config, err = b.ReadFile(src + "/config.json"); err == nil {
		tr.State, err = b.ReadFile(src + "/trainer_state.json")
	}
	if err != nil {
		return BlobReport{}, err
	}
	rep, err := out.Commit(b, dst, tr, OutputOptions{Dedup: dedup})
	if err != nil {
		return BlobReport{}, err
	}
	return rep.BlobReport, nil
}

// publishDedup publishes the committed plain checkpoint src content-addressed
// at dst, for fixtures: a by-reference dedup output (latest stays put).
func publishDedup(t testing.TB, b storage.Backend, src, dst string) BlobReport {
	t.Helper()
	rep, err := outputByReference(b, src, dst, true)
	if err != nil {
		t.Fatalf("publish %s content-addressed at %s: %v", src, dst, err)
	}
	return rep
}

// TestCapabilitiesThroughWrappers: a capability belongs to the storage at the
// bottom of a wrapper stack. For every base backend and every stack of
// Meter, Fault, Retry and a commit transaction's recording backend over it —
// each ordered selection, 65 stacks a base — the rename probe, the compose
// probe and the spool kind equal the base's own answers. Before the Unwrap
// chain each wrapper forwarded its own subset by hand: a transaction over an
// object store claimed rename and denied compose, and a Retry over the OS
// backend spooled in memory.
func TestCapabilitiesThroughWrappers(t *testing.T) {
	osb, err := storage.NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wrappers := []struct {
		name string
		wrap func(storage.Backend) storage.Backend
	}{
		{"meter", func(b storage.Backend) storage.Backend { return storage.NewMeter(b, storage.Profile{}) }},
		{"fault", func(b storage.Backend) storage.Backend { return storage.NewFault(b) }},
		{"retry", func(b storage.Backend) storage.Backend { return storage.NewRetry(b, 1) }},
		{"txn", func(b storage.Backend) storage.Backend {
			txn, err := begin(b, "run/checkpoint-1")
			if err != nil {
				t.Fatal(err)
			}
			return txn.Backend()
		}},
	}
	spoolKind := func(b storage.Backend) string {
		sp, err := storage.NewSpool(b)
		if err != nil {
			t.Fatal(err)
		}
		defer sp.Release()
		return fmt.Sprintf("%T", sp)
	}
	bases := []struct {
		name            string
		b               storage.Backend
		rename, compose bool
	}{
		{"os", osb, true, false},
		{"mem", storage.NewMem(), true, false},
		{"objstore", storage.NewObjStore(), false, true},
	}
	for _, base := range bases {
		wantSpool := spoolKind(base.b)
		if got := storage.RenameSupported(base.b); got != base.rename {
			t.Fatalf("%s: RenameSupported = %v", base.name, got)
		}
		if got := storage.ComposeSupported(base.b); got != base.compose {
			t.Fatalf("%s: ComposeSupported = %v", base.name, got)
		}
		stacks := 0
		var grow func(b storage.Backend, name string, used uint)
		grow = func(b storage.Backend, name string, used uint) {
			stacks++
			if got := storage.RenameSupported(b); got != base.rename {
				t.Errorf("%s: RenameSupported = %v, base says %v", name, got, base.rename)
			}
			if got := storage.ComposeSupported(b); got != base.compose {
				t.Errorf("%s: ComposeSupported = %v, base says %v", name, got, base.compose)
			}
			if got := spoolKind(b); got != wantSpool {
				t.Errorf("%s: spool is %s, base's is %s", name, got, wantSpool)
			}
			for i, w := range wrappers {
				if used&(1<<i) == 0 {
					grow(w.wrap(b), w.name+"("+name+")", used|1<<i)
				}
			}
		}
		grow(base.b, base.name, 0)
		if stacks != 65 {
			t.Fatalf("%s: explored %d stacks, want 65", base.name, stacks)
		}
	}
	if a, b := spoolKind(osb), spoolKind(storage.NewMem()); a == b {
		t.Fatalf("OS and Mem spools are both %s: the spool check distinguishes nothing", a)
	}
}
