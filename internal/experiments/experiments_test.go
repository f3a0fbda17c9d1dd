package experiments

import (
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"llmtailor/internal/modelcfg"
	"llmtailor/internal/strategy"
	"llmtailor/internal/train"
)

// The use-case pipelines are the most expensive fixtures in the suite; run
// each once and share across tests.
var (
	uc1Once sync.Once
	uc1     *UseCase
	uc1Err  error
	uc2Once sync.Once
	uc2     *UseCase
	uc2Err  error
)

// testScale is Quick — or, under -short (how the race lane runs this
// package), Quick with a quarter of the steps: the pipelines still train,
// crash, merge and resume, at a cost the race detector's ~20× slowdown
// leaves affordable. The use-case-2 and dynamic replays are full-mode only.
func testScale() Scale {
	s := Quick()
	if testing.Short() {
		s.SFT = RunShape{Total: 24, Interval: 6, MergeAt: 12, FailAt: 14}
		s.CPT = RunShape{Total: 32, Interval: 8, MergeAt: 16, FailAt: 18}
	}
	return s
}

func skipInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("full replay runs in `make test`; -short keeps one use case per table")
	}
}

func useCase1(t *testing.T) *UseCase {
	t.Helper()
	uc1Once.Do(func() { uc1, uc1Err = RunUseCase1(testScale()) })
	if uc1Err != nil {
		t.Fatal(uc1Err)
	}
	return uc1
}

func useCase2(t *testing.T) *UseCase {
	t.Helper()
	uc2Once.Do(func() { uc2, uc2Err = RunUseCase2(Quick()) })
	if uc2Err != nil {
		t.Fatal(uc2Err)
	}
	return uc2
}

// The full use-case-1 pipeline: train, crash, merge by parity, resume. The
// paper's Table 1 finds identical final losses at 2 decimals; we bound the
// deltas tightly.
func TestUseCase1LossesMatch(t *testing.T) {
	u := useCase1(t)
	// The merged run re-converges over the steps after the merge; the short
	// scale has a quarter of them, so its bound only catches divergence.
	tol := 0.02
	if testing.Short() {
		tol = 0.15
	}
	for _, arm := range []*UseCaseResult{u.Qwen, u.Llama} {
		if d := math.Abs(arm.OrigLoss - arm.MergedLoss); d > tol {
			t.Errorf("%s: parity loss delta %.4f (orig %.4f merged %.4f)", arm.ModelName, d, arm.OrigLoss, arm.MergedLoss)
		}
		if d := math.Abs(arm.OrigEval - arm.MergedEval); d > tol {
			t.Errorf("%s: parity eval delta %.4f", arm.ModelName, d)
		}
		// Parity halves the stored bytes.
		ratio := float64(arm.PartialBytes) / float64(arm.FullBytes)
		if ratio < 0.42 || ratio > 0.58 {
			t.Errorf("%s: parity bytes ratio %.3f, want ≈0.5", arm.ModelName, ratio)
		}
	}
}

// Use case 2: filter merges stay close but may be slightly worse (paper:
// +0.01..0.02 loss), and storage drops ~4.3×.
func TestUseCase2FilterBehaviour(t *testing.T) {
	skipInShort(t)
	u := useCase2(t)
	for _, arm := range []*UseCaseResult{u.Qwen, u.Llama} {
		if arm.MergedLoss < arm.OrigLoss-0.02 {
			t.Errorf("%s: filtered resume implausibly better: %.4f vs %.4f", arm.ModelName, arm.MergedLoss, arm.OrigLoss)
		}
		if d := arm.MergedLoss - arm.OrigLoss; d > 0.08 {
			t.Errorf("%s: filtered loss degradation %.4f too large", arm.ModelName, d)
		}
		reduction := float64(arm.FullBytes) / float64(arm.PartialBytes)
		if reduction < 3.2 || reduction > 5.5 {
			t.Errorf("%s: filter storage reduction %.2fx, paper ≈4.3x", arm.ModelName, reduction)
		}
	}
}

// Benchmark scores of merged models stay within a few points of originals
// (Tables 2 and 5).
func TestUseCaseBenchmarksStayClose(t *testing.T) {
	u := useCase1(t)
	for _, arm := range []*UseCaseResult{u.Qwen, u.Llama} {
		for name, orig := range arm.OrigCard {
			merged := arm.MergedCard[name]
			if math.Abs(orig-merged) > 6 {
				t.Errorf("%s/%s: score moved %.2f -> %.2f", arm.ModelName, name, orig, merged)
			}
		}
	}
}

// runDynamicUseCase runs the paper's future-work extension through the
// use-case pipeline: the DeltaTopK update-magnitude strategy on the Qwen
// SFT arm. No table or figure reports it, so it lives beside its test.
func runDynamicUseCase(scale Scale) (*UseCase, error) {
	qwen, err := runArm(scale, scale.SFT, train.SFT(), modelcfg.Qwen25_7B(), strategy.NewDeltaTopK(0.5, 4), 105)
	if err != nil {
		return nil, fmt.Errorf("experiments: dynamic use case: %w", err)
	}
	return &UseCase{Qwen: qwen, StrategyName: "delta-topk"}, nil
}

func TestDynamicUseCaseRuns(t *testing.T) {
	skipInShort(t)
	u, err := runDynamicUseCase(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if u.Qwen == nil || u.Qwen.MergedLoss <= 0 {
		t.Fatalf("dynamic arm: %+v", u.Qwen)
	}
	// Dynamic strategy must also reduce storage.
	if u.Qwen.PartialBytes >= u.Qwen.FullBytes {
		t.Error("delta-topk saved no storage")
	}
}

func TestTablesRender(t *testing.T) {
	u := useCase1(t)
	for _, tb := range []interface{ Render() string }{table1(u), Table2(u)} {
		out := tb.Render()
		if !strings.Contains(out, "Qwen2.5-7B") || !strings.Contains(out, "Llama3.1-8B") {
			t.Errorf("table missing models:\n%s", out)
		}
	}
	if !strings.Contains(table3().Render(), "Parity") {
		t.Error("table 3 missing parity row")
	}
	if !strings.Contains(table6().Render(), "Filtered") {
		t.Error("table 6 missing filtered row")
	}
	t7 := table7().Render()
	for _, want := range []string{"Baseline: 1", "parity (2)", "35", "18"} {
		if !strings.Contains(t7, want) {
			t.Errorf("table 7 missing %q:\n%s", want, t7)
		}
	}
}

func TestFigure1Output(t *testing.T) {
	out := figure1()
	for _, want := range []string{"embed_tokens", "layer.0", "layer.31", "lm_head", "8.03B"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure1 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure2Output(t *testing.T) {
	out := figure2()
	for _, want := range []string{"2 parameter groups", "12 bytes/param", "7x model size"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure2 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure3Render(t *testing.T) {
	tb, before, after := figure3()
	out := tb.Render()
	if !strings.Contains(out, "35") || !strings.Contains(out, "2") {
		t.Errorf("figure 3 table:\n%s", out)
	}
	if !strings.Contains(before, "2 parameter groups") {
		t.Errorf("before layout:\n%s", before)
	}
	if !strings.Contains(after, "35 parameter groups") {
		t.Errorf("after layout:\n%s", after)
	}
}

func TestLayerDriftTable(t *testing.T) {
	tb, err := LayerDrift(testScale())
	if err != nil {
		t.Fatal(err)
	}
	out := tb.Render()
	if !strings.Contains(out, "layer.0") || !strings.Contains(out, "embed_tokens") {
		t.Errorf("drift table:\n%s", out)
	}
}

func TestTable7LiveShape(t *testing.T) {
	tb, err := table7Live(modelcfg.Llama32_1B(), 2)
	if err != nil {
		t.Fatal(err)
	}
	out := tb.Render()
	for _, want := range []string{"Baseline: 1", "parity (2)", "8", "18"} {
		if !strings.Contains(out, want) {
			t.Errorf("live table missing %q:\n%s", want, out)
		}
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"", "quick", "paper-shape"} {
		if _, err := ScaleByName(name); err != nil {
			t.Errorf("ScaleByName(%q): %v", name, err)
		}
	}
	if _, err := ScaleByName("huge"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestRunShapeCkpts(t *testing.T) {
	if Quick().SFT.Ckpts() != 16 || Quick().CPT.Ckpts() != 16 {
		t.Fatalf("quick ckpt counts: %d/%d", Quick().SFT.Ckpts(), Quick().CPT.Ckpts())
	}
	if paperShape().SFT.Ckpts() != 16 || paperShape().CPT.Ckpts() != 16 {
		t.Fatal("paper-shape ckpt counts")
	}
}

// TestPaperGolden holds the paper's tables and figures at quick scale, byte
// for byte, to testdata/quick.golden: the stdout of
//
//	go run ./cmd/paperbench -exp all -scale quick -out ''
//
// Every experiment runs through the live save, merge, reshard and restore
// paths on a metered backend, so a change that moves a stored byte or a
// charged request shows as a diff. Refresh the golden with that command
// only in a change meant to move them.
func TestPaperGolden(t *testing.T) {
	skipInShort(t)
	outs, err := Paper(Quick(), func(string) bool { return true }, useCase1(t), useCase2(t))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, o := range outs {
		b.WriteString(o.Content + "\n")
	}
	want, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("output differs from testdata/quick.golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
