package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"llmtailor/internal/storage"
)

func TestRunEndToEnd(t *testing.T) {
	root := t.TempDir()
	err := run(root, "demo", "tiny", false, "sft",
		30, 3, 2e-3, 10, "parity", 2, 7, 0, "", false, 0, false, false, 0, 0, "", "", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	// Three parity checkpoints must exist on disk.
	for _, step := range []int{10, 20, 30} {
		p := filepath.Join(root, "demo", "checkpoint-"+itoa(step), "manifest.json")
		if _, err := os.Stat(p); err != nil {
			t.Errorf("missing %s", p)
		}
	}
}

func TestRunFailureInjection(t *testing.T) {
	root := t.TempDir()
	if err := run(root, "demo", "tiny", false, "cpt",
		30, 3, 2e-3, 10, "full", 1, 7, 15, "", false, 0, false, false, 0, 0, "", "", 0, ""); err != nil {
		t.Fatal(err)
	}
	// Crash after step 15: only checkpoint-10 exists.
	if _, err := os.Stat(filepath.Join(root, "demo", "checkpoint-10")); err != nil {
		t.Error("checkpoint-10 missing")
	}
	if _, err := os.Stat(filepath.Join(root, "demo", "checkpoint-20")); err == nil {
		t.Error("checkpoint-20 should not exist after crash at 15")
	}
}

func TestRunResume(t *testing.T) {
	root := t.TempDir()
	if err := run(root, "demo", "tiny", false, "sft",
		20, 2, 2e-3, 10, "full", 1, 7, 0, "", false, 0, false, false, 0, 0, "", "", 0, ""); err != nil {
		t.Fatal(err)
	}
	// Resume from the step-20 checkpoint and continue to 30.
	if err := run(root, "demo", "tiny", false, "sft",
		30, 2, 2e-3, 10, "full", 1, 7, 0, "demo/checkpoint-20", false, 0, false, false, 0, 0, "", "", 0, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "demo", "checkpoint-30")); err != nil {
		t.Error("resumed run did not checkpoint at 30")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", "demo", "tiny", false, "sft", 10, 1, 1e-3, 5, "full", 1, 7, 0, "", false, 0, false, false, 0, 0, "", "", 0, ""); err == nil {
		t.Error("missing root accepted")
	}
	root := t.TempDir()
	if err := run(root, "demo", "no-such-model", false, "sft", 10, 1, 1e-3, 5, "full", 1, 7, 0, "", false, 0, false, false, 0, 0, "", "", 0, ""); err == nil {
		t.Error("unknown model accepted")
	}
	if err := run(root, "demo", "tiny", false, "rl", 10, 1, 1e-3, 5, "full", 1, 7, 0, "", false, 0, false, false, 0, 0, "", "", 0, ""); err == nil {
		t.Error("unknown task accepted")
	}
	if err := run(root, "demo", "tiny", false, "sft", 10, 1, 1e-3, 5, "sometimes", 1, 7, 0, "", false, 0, false, false, 0, 0, "", "", 0, ""); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestRunDedupKeepLast drives the full retention pipeline from the CLI
// surface: dedup saves journal ref records, KeepLast retires old
// generations, and the surviving checkpoints stay resumable.
func TestRunDedupKeepLast(t *testing.T) {
	root := t.TempDir()
	if err := run(root, "demo", "tiny", false, "sft",
		50, 2, 2e-3, 10, "full", 2, 7, 0, "", true, 2, false, false, 0, 0, "", "", 0, ""); err != nil {
		t.Fatal(err)
	}
	for _, step := range []int{10, 20, 30} {
		if _, err := os.Stat(filepath.Join(root, "demo", "checkpoint-"+itoa(step))); err == nil {
			t.Errorf("checkpoint-%d should have been retired", step)
		}
	}
	for _, step := range []int{40, 50} {
		if _, err := os.Stat(filepath.Join(root, "demo", "checkpoint-"+itoa(step), "COMMITTED")); err != nil {
			t.Errorf("checkpoint-%d missing or uncommitted", step)
		}
	}
	// The retained run still resumes and trains on.
	if err := run(root, "demo", "tiny", false, "sft",
		60, 2, 2e-3, 10, "full", 2, 7, 0, "demo/checkpoint-50", true, 2, false, false, 0, 0, "", "", 0, ""); err != nil {
		t.Fatal(err)
	}
}

// TestRunLazyCapture drives the lazy capture path from the CLI surface:
// dedup saves with layer-wise capture overlapped against training, then a
// resume from the final checkpoint.
func TestRunLazyCapture(t *testing.T) {
	root := t.TempDir()
	if err := run(root, "demo", "tiny", false, "sft",
		30, 2, 2e-3, 10, "full", 2, 7, 0, "", true, 0, true, false, 0, 0, "", "", 0, ""); err != nil {
		t.Fatal(err)
	}
	for _, step := range []int{10, 20, 30} {
		if _, err := os.Stat(filepath.Join(root, "demo", "checkpoint-"+itoa(step), "COMMITTED")); err != nil {
			t.Errorf("checkpoint-%d missing or uncommitted", step)
		}
	}
	if err := run(root, "demo", "tiny", false, "sft",
		40, 2, 2e-3, 10, "full", 2, 7, 0, "demo/checkpoint-30", true, 0, true, false, 0, 0, "", "", 0, ""); err != nil {
		t.Fatal(err)
	}
}

// TestRunObjStore drives the ephemeral object-store mode end to end: no
// filesystem root, the no-rename commit protocol underneath, dedup blobs
// digest-sharded across two prefix shards.
func TestRunObjStore(t *testing.T) {
	if err := run("", "demo", "tiny", false, "sft",
		20, 2, 2e-3, 10, "full", 2, 7, 0, "", true, 0, false, true, 0, 2, "", "", 0, ""); err != nil {
		t.Fatal(err)
	}
	// -shards without -dedup must refuse (it lays out the blob store).
	if err := run("", "demo", "tiny", false, "sft",
		10, 1, 1e-3, 5, "full", 1, 7, 0, "", false, 0, false, true, 0, 2, "", "", 0, ""); err == nil {
		t.Error("-shards without -dedup accepted")
	}
}

// TestRunCodec drives xor-parent blob compression from the CLI surface:
// dedup saves with -codec xor, then a resume from the final checkpoint
// (restore must decode the delta chain transparently).
func TestRunCodec(t *testing.T) {
	root := t.TempDir()
	if err := run(root, "demo", "tiny", false, "sft",
		30, 2, 2e-3, 10, "full", 2, 7, 0, "", true, 0, false, false, 0, 0, "", "xor", 0, ""); err != nil {
		t.Fatal(err)
	}
	if err := run(root, "demo", "tiny", false, "sft",
		40, 2, 2e-3, 10, "full", 2, 7, 0, "demo/checkpoint-30", true, 0, false, false, 0, 0, "", "xor", 0, ""); err != nil {
		t.Fatal(err)
	}
	// -codec without -dedup must refuse (compression lives in the blob store).
	if err := run(root, "demo2", "tiny", false, "sft",
		10, 1, 1e-3, 5, "full", 1, 7, 0, "", false, 0, false, false, 0, 0, "", "xor", 0, ""); err == nil {
		t.Error("-codec without -dedup accepted")
	}
}

// TestRunHub drives the checkpoint-hub path from the CLI surface: two runs
// attached to one hub, both saving dedup checkpoints into the shared store,
// both resumable afterwards.
func TestRunHub(t *testing.T) {
	root := t.TempDir()
	for _, r := range []string{"runs/a", "runs/b"} {
		if err := run(root, r, "tiny", false, "sft",
			20, 2, 2e-3, 10, "full", 2, 7, 0, "", true, 0, false, false, 0, 4, "hub", "", 0, ""); err != nil {
			t.Fatal(err)
		}
	}
	// One shared store at the hub; neither run grew a local blob tree.
	if _, err := os.Stat(filepath.Join(root, "hub", "objects")); err != nil {
		t.Fatal("no shared store at the hub")
	}
	for _, r := range []string{"runs/a", "runs/b"} {
		if _, err := os.Stat(filepath.Join(root, r, "objects", "hubref.json")); err != nil {
			t.Errorf("%s not attached: %v", r, err)
		}
	}
	// Both runs resume from the shared store.
	if err := run(root, "runs/b", "tiny", false, "sft",
		30, 2, 2e-3, 10, "full", 2, 7, 0, "runs/b/checkpoint-20", true, 0, false, false, 0, 0, "hub", "", 0, ""); err != nil {
		t.Fatal(err)
	}
	// -hub without -dedup must refuse.
	if err := run(root, "runs/c", "tiny", false, "sft",
		10, 1, 1e-3, 5, "full", 1, 7, 0, "", false, 0, false, false, 0, 0, "hub", "", 0, ""); err == nil {
		t.Error("-hub without -dedup accepted")
	}
}

// TestRunShardsRefusesPopulatedStore: a flat dedup run rerun with -shards N
// -resume used to re-route every digest away from its blob and lose all
// committed payloads in silence. The rerun is refused before it touches
// anything, and the flat run still resumes.
func TestRunShardsRefusesPopulatedStore(t *testing.T) {
	root := t.TempDir()
	if err := run(root, "demo", "tiny", false, "sft",
		20, 2, 2e-3, 10, "full", 2, 7, 0, "", true, 0, false, false, 0, 0, "", "", 0, ""); err != nil {
		t.Fatal(err)
	}
	err := run(root, "demo", "tiny", false, "sft",
		30, 2, 2e-3, 10, "full", 2, 7, 0, "demo/checkpoint-20", true, 0, false, false, 0, 4, "", "", 0, "")
	var populated *storage.PopulatedStoreError
	if !errors.As(err, &populated) || populated.Root != "demo/objects" || populated.Blobs == 0 {
		t.Fatalf("-shards over a populated flat store: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, "demo", "objects", storage.ShardConfigName)); err == nil {
		t.Fatal("refused -shards still declared a shard map")
	}
	if err := run(root, "demo", "tiny", false, "sft",
		30, 2, 2e-3, 10, "full", 2, 7, 0, "demo/checkpoint-20", true, 0, false, false, 0, 0, "", "", 0, ""); err != nil {
		t.Fatalf("flat run no longer resumes: %v", err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
