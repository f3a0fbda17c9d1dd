package ckpt

import (
	"fmt"
	"testing"

	"llmtailor/internal/storage"
)

// stagedFiles is a committed checkpoint's files as read back: what a fixture
// stages again to publish the same state another way.
type stagedFiles struct {
	step  int
	names []string
	data  map[string][]byte
}

func readCommitted(b storage.Backend, dir string) (stagedFiles, error) {
	m, err := ReadCommitMarker(b, dir)
	if err != nil {
		return stagedFiles{}, err
	}
	files := stagedFiles{step: m.Step, names: m.sortedFiles(), data: map[string][]byte{}}
	for _, name := range files.names {
		if files.data[name], err = b.ReadFile(dir + "/" + name); err != nil {
			return stagedFiles{}, err
		}
	}
	return files, nil
}

// publishDedup publishes the files at dir content-addressed the way merge,
// blend and reshard make a dedup output: staged plain in a transaction on dir,
// then Publish with dedup on (latest stays put).
func (files stagedFiles) publishDedup(b storage.Backend, dir string) (DedupifyReport, error) {
	txn, err := Begin(b, dir)
	if err != nil {
		return DedupifyReport{}, err
	}
	defer txn.Abort()
	for _, name := range files.names {
		if err := txn.Backend().WriteFile(txn.Dir()+"/"+name, files.data[name]); err != nil {
			return DedupifyReport{}, err
		}
	}
	return txn.Publish(files.step, false, true)
}

// publishDedup replaces the committed plain checkpoint at dir with its
// content-addressed form, for fixtures. The copy is read before Begin, which
// clears its target where the backend does not rename.
func publishDedup(t testing.TB, b storage.Backend, dir string) DedupifyReport {
	t.Helper()
	files, err := readCommitted(b, dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := files.publishDedup(b, dir)
	if err != nil {
		t.Fatalf("publish %s content-addressed: %v", dir, err)
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
			txn, err := Begin(b, "run/checkpoint-1")
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
		defer sp.Discard()
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
