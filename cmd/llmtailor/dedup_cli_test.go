package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"llmtailor"
	"llmtailor/internal/ckpt"
	"llmtailor/internal/model"
	"llmtailor/internal/modelcfg"
	"llmtailor/internal/optim"
	"llmtailor/internal/tensor"
)

// writeDedupRun creates two content-addressed tiny checkpoints under
// root/run (shared state, so the second save dedups fully).
func writeDedupRun(t *testing.T, root string) {
	t.Helper()
	b, err := llmtailor.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := modelcfg.Tiny()
	m, _ := model.NewInitialized(cfg, tensor.BF16, 5)
	o, _ := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
	for _, step := range []int{10, 20} {
		if err := ckpt.Save(b, ckpt.SaveSpec{
			Dir: "run/" + ckpt.DirName(step), Model: m, Optim: o, WorldSize: 2,
			Strategy: "full", Dedup: true, State: ckpt.TrainerState{Step: step, Seed: 5},
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCLIGC(t *testing.T) {
	root := t.TempDir()
	writeDedupRun(t, root)
	// Orphan blobs: drop checkpoint-20 entirely (its exclusive refs die),
	// and plant staging residue. Shared content stays referenced by
	// checkpoint-10, so the sweep must keep it.
	b, err := llmtailor.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "run", "objects", ".stage"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "run", "objects", ".stage", "put-5"), []byte("residue"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Dry run reports without removing.
	var out strings.Builder
	if err := runGC([]string{"-root", root, "-run", "run", "-dry-run"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "dry run:") {
		t.Fatalf("output: %s", out.String())
	}
	if _, err := os.Stat(filepath.Join(root, "run", "objects", ".stage", "put-5")); err != nil {
		t.Fatal("dry run removed staging residue")
	}

	out.Reset()
	if err := runGC([]string{"-root", root, "-run", "run"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "staging entries cleaned") {
		t.Fatalf("output: %s", out.String())
	}
	if _, err := os.Stat(filepath.Join(root, "run", "objects", ".stage", "put-5")); !os.IsNotExist(err) {
		t.Fatal("gc left staging residue")
	}
	// Both checkpoints still restore after the sweep.
	for _, dir := range []string{"run/checkpoint-10", "run/checkpoint-20"} {
		if _, _, _, err := ckpt.Restore(b, dir, tensor.BF16); err != nil {
			t.Fatalf("%s after gc: %v", dir, err)
		}
	}
}

// Blob-staging residue is a doctor problem (exit 2) that -fix cleans.
func TestCLIDoctorCountsBlobStaging(t *testing.T) {
	root := t.TempDir()
	writeDedupRun(t, root)
	if err := os.MkdirAll(filepath.Join(root, "run", "objects", ".stage"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "run", "objects", ".stage", "put-8"), []byte("residue"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	problems, err := runDoctor([]string{"-root", root, "-run", "run"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if problems != 1 || !strings.Contains(out.String(), "blob-staging") {
		t.Fatalf("problems = %d\n%s", problems, out.String())
	}
	out.Reset()
	problems, err = runDoctor([]string{"-root", root, "-run", "run", "-fix"}, &out)
	if err != nil || problems != 0 {
		t.Fatalf("fix: %d problems, %v\n%s", problems, err, out.String())
	}
	if _, err := os.Stat(filepath.Join(root, "run", "objects", ".stage", "put-8")); !os.IsNotExist(err) {
		t.Fatal("-fix left blob staging residue")
	}
	out.Reset()
	if problems, err := runDoctor([]string{"-root", root, "-run", "run"}, &out); err != nil || problems != 0 {
		t.Fatalf("post-fix: %d problems, %v", problems, err)
	}
}

// TestCLIGCGenerational: the default gc mode retires the generation a
// replaced checkpoint superseded and sweeps only its blobs; -full then
// finds nothing left.
func TestCLIGCGenerational(t *testing.T) {
	root := t.TempDir()
	b, err := llmtailor.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := modelcfg.Tiny()
	save := func(seed uint64) {
		t.Helper()
		m, _ := model.NewInitialized(cfg, tensor.BF16, seed)
		o, _ := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
		if err := ckpt.Save(b, ckpt.SaveSpec{
			Dir: "run/checkpoint-10", Model: m, Optim: o, WorldSize: 2,
			Strategy: "full", Dedup: true, State: ckpt.TrainerState{Step: 10, Seed: seed},
		}); err != nil {
			t.Fatal(err)
		}
	}
	save(6)
	save(7) // replace: seed-6 generation superseded

	var out strings.Builder
	if err := runGC([]string{"-root", root, "-run", "run", "-dry-run"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "dry run:") || !strings.Contains(out.String(), "would remove blob") {
		t.Fatalf("dry run output: %s", out.String())
	}
	out.Reset()
	if err := runGC([]string{"-root", root, "-run", "run"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "gc (generational):") || !strings.Contains(out.String(), "retired record") {
		t.Fatalf("output: %s", out.String())
	}
	if _, _, _, err := ckpt.Restore(b, "run/checkpoint-10", tensor.BF16); err != nil {
		t.Fatalf("checkpoint unusable after generational gc: %v", err)
	}
	// -full verifies and agrees.
	out.Reset()
	if err := runGC([]string{"-root", root, "-run", "run", "-full"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0 removed (0 bytes freed)") {
		t.Fatalf("full gc output: %s", out.String())
	}
}

// TestCLIGCFullDryRun: -full -dry-run prints the mark phase's full
// accounting (records considered, retirable generations, blobs examined
// and removable) without mutating anything, and a real -full sweep then
// agrees with it.
func TestCLIGCFullDryRun(t *testing.T) {
	root := t.TempDir()
	b, err := llmtailor.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := modelcfg.Tiny()
	save := func(seed uint64) {
		t.Helper()
		m, _ := model.NewInitialized(cfg, tensor.BF16, seed)
		o, _ := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
		if err := ckpt.Save(b, ckpt.SaveSpec{
			Dir: "run/checkpoint-10", Model: m, Optim: o, WorldSize: 2,
			Strategy: "full", Dedup: true, State: ckpt.TrainerState{Step: 10, Seed: seed},
		}); err != nil {
			t.Fatal(err)
		}
	}
	save(6)
	save(7) // replace: seed-6 generation superseded, its blobs orphan

	var out strings.Builder
	if err := runGC([]string{"-root", root, "-run", "run", "-full", "-dry-run"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "dry run (full):") ||
		!strings.Contains(s, "would remove blob") ||
		!strings.Contains(s, "would retire record") ||
		!strings.Contains(s, "1 retirable") {
		t.Fatalf("dry run output: %s", s)
	}
	// Nothing moved: the replaced generation's blobs are still on disk
	// (the real sweep below frees a nonzero byte count).
	out.Reset()
	if err := runGC([]string{"-root", root, "-run", "run", "-full"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "0 removed (0 bytes freed)") {
		t.Fatalf("dry run mutated the store, real sweep found nothing: %s", out.String())
	}
	if _, _, _, err := ckpt.Restore(b, "run/checkpoint-10", tensor.BF16); err != nil {
		t.Fatalf("checkpoint unusable after full gc: %v", err)
	}
}

func TestCLIRetain(t *testing.T) {
	root := t.TempDir()
	b, err := llmtailor.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := modelcfg.Tiny()
	m, _ := model.NewInitialized(cfg, tensor.BF16, 5)
	o, _ := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
	for _, step := range []int{10, 20, 30, 40} {
		ts := m.Tensors()[0]
		ts.Set(0, ts.At(0)+1)
		if err := ckpt.Save(b, ckpt.SaveSpec{
			Dir: "run/" + ckpt.DirName(step), Model: m, Optim: o, WorldSize: 2,
			Strategy: "full", Dedup: true, State: ckpt.TrainerState{Step: step, Seed: 5},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := runRetain([]string{"-root", root, "-run", "run"}, &strings.Builder{}); err == nil {
		t.Fatal("missing -keep-last accepted")
	}
	var out strings.Builder
	if err := runRetain([]string{"-root", root, "-run", "run", "-keep-last", "2", "-dry-run"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "would retire run/checkpoint-10") {
		t.Fatalf("dry run output: %s", out.String())
	}
	if _, err := os.Stat(filepath.Join(root, "run", "checkpoint-10")); err != nil {
		t.Fatal("dry run removed a checkpoint")
	}
	out.Reset()
	if err := runRetain([]string{"-root", root, "-run", "run", "-keep-last", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2 checkpoints retired") {
		t.Fatalf("output: %s", out.String())
	}
	for _, step := range []string{"checkpoint-10", "checkpoint-20"} {
		if _, err := os.Stat(filepath.Join(root, "run", step)); !os.IsNotExist(err) {
			t.Fatalf("%s survived retention", step)
		}
	}
	for _, dir := range []string{"run/checkpoint-30", "run/checkpoint-40"} {
		if _, _, _, err := ckpt.Restore(b, dir, tensor.BF16); err != nil {
			t.Fatalf("%s after retain: %v", dir, err)
		}
	}
	// Doctor agrees the run is healthy afterwards.
	if problems, err := runDoctor([]string{"-root", root, "-run", "run"}, &out); err != nil || problems != 0 {
		t.Fatalf("doctor after retain: %d problems, %v", problems, err)
	}
}

// A stale ref index (missing record for a committed dedup checkpoint plus
// an orphaned record) is a doctor problem that -fix reconciles.
func TestCLIDoctorRefIndex(t *testing.T) {
	root := t.TempDir()
	writeDedupRun(t, root)
	refsDir := filepath.Join(root, "run", "objects", "refs")
	entries, err := os.ReadDir(refsDir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no ref records: %v", err)
	}
	// Stale index: drop one record, plant an orphaned one.
	if err := os.Remove(filepath.Join(refsDir, entries[0].Name())); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(refsDir, "gen-000000000042-checkpoint-42.ref")
	if err := os.WriteFile(orphan, []byte(`{"version":1,"key":"checkpoint-42","generation":42,"digests":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	problems, err := runDoctor([]string{"-root", root, "-run", "run"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if problems != 2 || !strings.Contains(out.String(), "ref-missing") || !strings.Contains(out.String(), "ref-orphaned") {
		t.Fatalf("problems = %d\n%s", problems, out.String())
	}
	out.Reset()
	if problems, err := runDoctor([]string{"-root", root, "-run", "run", "-fix"}, &out); err != nil || problems != 0 {
		t.Fatalf("fix: %d problems, %v\n%s", problems, err, out.String())
	}
	if !strings.Contains(out.String(), "rebuilt ref record") || !strings.Contains(out.String(), "removed stale ref record") {
		t.Fatalf("fix output: %s", out.String())
	}
	out.Reset()
	if problems, err := runDoctor([]string{"-root", root, "-run", "run"}, &out); err != nil || problems != 0 {
		t.Fatalf("post-fix: %d problems, %v\n%s", problems, err, out.String())
	}
}

// saveDedup saves writeRun's state at dir again, content-addressed, over the
// plain checkpoint there.
func saveDedup(t *testing.T, b llmtailor.Backend, dir string, step int) {
	t.Helper()
	cfg := modelcfg.Tiny()
	m, _ := model.NewInitialized(cfg, tensor.BF16, 3)
	o, _ := optim.NewAdamW(m, optim.NewLayerwiseLayout(cfg), optim.DefaultHyper())
	if err := ckpt.Save(b, ckpt.SaveSpec{
		Dir: dir, Model: m, Optim: o, WorldSize: 2, Dedup: true,
		Strategy: "full", State: ckpt.TrainerState{Step: step, Seed: 3},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCLIDoctorFinishesConversion: older binaries converted a published
// directory in place, and a crash in there left a committed, readable
// directory holding files of both forms, which doctor must not call healthy
// (the manifests audit clean, so without the state -fix never ran and the
// leftovers stayed for good). Two of those states, built by hand: it reports
// the directory as converting, and -fix leaves the one form the marker lists.
func TestCLIDoctorFinishesConversion(t *testing.T) {
	const dir = "run/checkpoint-10"
	containers := []string{"model.ltsf", ckpt.ShardFileName(0), ckpt.ShardFileName(1)}
	manifests := []string{ckpt.WeightManifestName, ckpt.ShardManifestName(0), ckpt.ShardManifestName(1)}
	cases := []struct {
		name    string
		putBack []string // of the plain form, over the content-addressed one
		dedup   bool     // the form the marker lists
	}{
		// The manifests staged as unlisted extras, the marker not yet swapped.
		{"manifests staged", append([]string{"manifest.json", ckpt.CommitMarkerName}, containers...), false},
		// Every container but the last rank's removed.
		{"one shard file left", containers[2:], true},
	}
	for _, tc := range cases {
		root := t.TempDir()
		writeRun(t, root)
		b, err := llmtailor.OpenDir(root)
		if err != nil {
			t.Fatal(err)
		}
		plain := map[string][]byte{}
		for _, name := range tc.putBack {
			if plain[name], err = b.ReadFile(dir + "/" + name); err != nil {
				t.Fatal(err)
			}
		}
		saveDedup(t, b, dir, 10)
		for name, data := range plain {
			if err := b.WriteFile(dir+"/"+name, data); err != nil {
				t.Fatal(err)
			}
		}

		var out strings.Builder
		problems, err := runDoctor([]string{"-root", root, "-run", "run"}, &out)
		if err != nil || problems == 0 || !strings.Contains(out.String(), "converting   "+dir) {
			t.Fatalf("%s: %d problems, %v\n%s", tc.name, problems, err, out.String())
		}
		out.Reset()
		if problems, err := runDoctor([]string{"-root", root, "-run", "run", "-fix"}, &out); err != nil || problems != 0 ||
			!strings.Contains(out.String(), "converted "+dir) {
			t.Fatalf("%s: fix: %d problems, %v\n%s", tc.name, problems, err, out.String())
		}
		out.Reset()
		if problems, err := runDoctor([]string{"-root", root, "-run", "run"}, &out); err != nil || problems != 0 {
			t.Fatalf("%s: post-fix: %d problems, %v\n%s", tc.name, problems, err, out.String())
		}
		if ckpt.IsDedup(b, dir) != tc.dedup {
			t.Fatalf("%s: -fix left the form the marker does not list", tc.name)
		}
		for _, name := range containers {
			if b.Exists(dir+"/"+name) == tc.dedup {
				t.Fatalf("%s: %s after -fix: two forms, or the wrong one", tc.name, name)
			}
		}
		for _, name := range manifests {
			if b.Exists(dir+"/"+name) != tc.dedup {
				t.Fatalf("%s: %s after -fix: two forms, or the wrong one", tc.name, name)
			}
		}
		if err := runVerify([]string{"-root", root, "-ckpt", dir}); err != nil {
			t.Fatalf("%s: verify after -fix: %v", tc.name, err)
		}
	}
}

func TestCLIDoctorAdopt(t *testing.T) {
	root := t.TempDir()
	writeRun(t, root)
	// Strip both markers: pre-protocol checkpoints. Corrupt the second so
	// it quarantines.
	for _, step := range []string{"checkpoint-10", "checkpoint-20"} {
		if err := os.Remove(filepath.Join(root, "run", step, ckpt.CommitMarkerName)); err != nil {
			t.Fatal(err)
		}
	}
	ltsf := filepath.Join(root, "run", "checkpoint-20", "model.ltsf")
	data, err := os.ReadFile(ltsf)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(ltsf, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	problems, err := runDoctor([]string{"-root", root, "-run", "run", "-adopt"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if problems != 0 {
		t.Fatalf("problems = %d\n%s", problems, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "adopted run/checkpoint-10") {
		t.Fatalf("output: %s", s)
	}
	if !strings.Contains(s, "quarantined run/checkpoint-20.quarantined") {
		t.Fatalf("output: %s", s)
	}
	// Adopted checkpoint is committed; quarantined dir preserved on disk.
	b, _ := llmtailor.OpenDir(root)
	if err := ckpt.VerifyCommit(b, "run/checkpoint-10"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "run", "checkpoint-20.quarantined")); err != nil {
		t.Fatal("quarantined dir missing")
	}
}

func TestCLIMergeDedupOutput(t *testing.T) {
	root := t.TempDir()
	writeRun(t, root)
	recipePath := filepath.Join(root, "recipe.yaml")
	if err := os.WriteFile(recipePath, []byte(cliRecipe), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runMerge([]string{"-root", root, "-recipe", recipePath, "-dedup"}); err != nil {
		t.Fatalf("merge -dedup: %v", err)
	}
	b, err := llmtailor.OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Exists("run/merged/" + ckpt.WeightManifestName) {
		t.Fatal("merged output is not content-addressed")
	}
	if b.Exists("run/merged/model.ltsf") {
		t.Fatal("merged output kept the payload container")
	}
	// The dedup output restores and verifies like any checkpoint.
	if _, _, _, err := ckpt.Restore(b, "run/merged", tensor.BF16); err != nil {
		t.Fatal(err)
	}
	rep, err := llmtailor.VerifyCheckpoint(b, "run/merged")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("verify: %s", rep.Describe())
	}
	// Inspect works against the dedup layout too.
	if err := runInspect([]string{"-root", root, "-ckpt", "run/merged"}); err != nil {
		t.Fatal(err)
	}
}
