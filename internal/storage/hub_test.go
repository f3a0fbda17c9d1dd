package storage

import (
	"strings"
	"testing"
)

// attach wires runRoot's objects dir to hubRoot's shared store without
// going through the higher-level hub package (which lives above storage).
func attach(t *testing.T, b Backend, hubRoot, runRoot, id string) {
	t.Helper()
	if err := WriteHubConfig(b, hubRoot); err != nil {
		t.Fatal(err)
	}
	if err := WriteHubRun(b, hubRoot, &HubRun{Version: 1, ID: id, Root: runRoot}); err != nil {
		t.Fatal(err)
	}
	if err := WriteHubRef(b, runRoot+"/objects", &HubRef{Version: 1, Hub: hubRoot, Run: id}); err != nil {
		t.Fatal(err)
	}
}

// TestHubConfigRoundTrip: init is recognisable and versions are checked.
func TestHubConfigRoundTrip(t *testing.T) {
	b := NewMem()
	if _, err := ReadHubConfig(b, "hub"); !IsNotExist(err) {
		t.Fatalf("uninitialised root: %v, want not-exist", err)
	}
	if err := WriteHubConfig(b, "hub"); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHubConfig(b, "hub"); err != nil {
		t.Fatalf("initialised hub not recognised: %v", err)
	}
	if err := b.WriteFile("hub/"+HubConfigName, []byte(`{"version":99}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHubConfig(b, "hub"); err == nil {
		t.Fatal("future hub version accepted")
	}
}

// TestHubRunsRegistry: per-run entries round-trip, list sorts, malformed
// entries are loud errors (a skipped entry would under-pin a shared sweep).
func TestHubRunsRegistry(t *testing.T) {
	b := NewMem()
	if err := WriteHubConfig(b, "hub"); err != nil {
		t.Fatal(err)
	}
	for _, r := range []HubRun{{Version: 1, ID: "zeta", Root: "roots/z"}, {Version: 1, ID: "alpha", Root: "roots/a"}} {
		if err := WriteHubRun(b, "hub", &r); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := ListHubRuns(b, "hub")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].ID != "alpha" || runs[1].ID != "zeta" {
		t.Fatalf("runs = %+v", runs)
	}
	got, err := ReadHubRun(b, "hub", "alpha")
	if err != nil || got.Root != "roots/a" {
		t.Fatalf("ReadHubRun = %+v, %v", got, err)
	}
	if err := RemoveHubRun(b, "hub", "zeta"); err != nil {
		t.Fatal(err)
	}
	if runs, _ = ListHubRuns(b, "hub"); len(runs) != 1 {
		t.Fatalf("after remove: %+v", runs)
	}
	if err := b.WriteFile("hub/runs/bad.json", []byte("{")); err != nil {
		t.Fatal(err)
	}
	if _, err := ListHubRuns(b, "hub"); err == nil {
		t.Fatal("malformed registry entry silently skipped")
	}
}

// TestHubRefAbsentVsCorrupt: missing hubref means unattached (nil, nil);
// an unreadable one must error rather than silently detaching the run.
func TestHubRefAbsentVsCorrupt(t *testing.T) {
	b := NewMem()
	ref, err := ReadHubRef(b, "run/objects")
	if err != nil || ref != nil {
		t.Fatalf("absent hubref: %+v, %v", ref, err)
	}
	if err := b.WriteFile("run/objects/"+HubRefName, []byte("not json")); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHubRef(b, "run/objects"); err == nil {
		t.Fatal("corrupt hubref treated as unattached")
	}
}

// TestOpenCASFollowsHubRef: an attached run's store resolves to the hub's
// shared objects root, including its shard layout.
func TestOpenCASFollowsHubRef(t *testing.T) {
	b := NewMem()
	attach(t, b, "hub", "runs/a", "a")
	if err := InitShards(b, HubObjectsRoot("hub"), 4); err != nil {
		t.Fatal(err)
	}
	store, err := OpenCAS(b, "runs/a/objects")
	if err != nil {
		t.Fatal(err)
	}
	if store.Root() != HubObjectsRoot("hub") {
		t.Fatalf("store root = %s", store.Root())
	}
	if store.Shards() != 4 {
		t.Fatalf("hub shard layout not honoured: %d shards", store.Shards())
	}
	digest, _, err := putBytes(store, []byte("shared payload"))
	if err != nil {
		t.Fatal(err)
	}
	// A second attached run sees the same blob through its own objects dir.
	attach(t, b, "hub", "runs/b", "b")
	other, err := OpenCAS(b, "runs/b/objects")
	if err != nil {
		t.Fatal(err)
	}
	if !other.Has(digest) {
		t.Fatal("cross-run blob not visible through second run's store")
	}
}

// TestOpenCASRejectsChainedHubs: a hub whose own store is attached
// elsewhere is a configuration error, not a second hop.
func TestOpenCASRejectsChainedHubs(t *testing.T) {
	b := NewMem()
	attach(t, b, "hub", "runs/a", "a")
	if err := WriteHubRef(b, HubObjectsRoot("hub"), &HubRef{Version: 1, Hub: "other", Run: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCAS(b, "runs/a/objects"); err == nil || !strings.Contains(err.Error(), "chained") {
		t.Fatalf("chained hub accepted: %v", err)
	}
}

// TestOpenCASCorruptHubRef: a broken attachment must fail loudly — falling
// back to the (empty) local store would re-upload and then sweep wrongly.
func TestOpenCASCorruptHubRef(t *testing.T) {
	b := NewMem()
	if err := b.WriteFile("run/objects/"+HubRefName, []byte(`{"version":2}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCAS(b, "run/objects"); err == nil {
		t.Fatal("corrupt hubref did not fail OpenCAS")
	}
}

// TestHubRunIDValidation mirrors ref-key validation (IDs become path
// segments under refs/).
func TestHubRunIDValidation(t *testing.T) {
	for _, ok := range []string{"runa", "run-1", "a_b.c"} {
		if !ValidHubRunID(ok) {
			t.Errorf("rejected valid id %q", ok)
		}
	}
	for _, bad := range []string{"", "a/b", "a b", "..", strings.Repeat("x", 300)} {
		if ValidHubRunID(bad) {
			t.Errorf("accepted invalid id %q", bad)
		}
	}
}
