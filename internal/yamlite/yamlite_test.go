package yamlite

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func parse(t *testing.T, src string) any {
	t.Helper()
	v, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return v
}

func TestScalars(t *testing.T) {
	cases := map[string]any{
		"k: hello":       map[string]any{"k": "hello"},
		"k: 42":          map[string]any{"k": int64(42)},
		"k: -7":          map[string]any{"k": int64(-7)},
		"k: 3.14":        map[string]any{"k": 3.14},
		"k: 1e3":         map[string]any{"k": 1000.0},
		"k: true":        map[string]any{"k": true},
		"k: false":       map[string]any{"k": false},
		"k: null":        map[string]any{"k": nil},
		"k: ~":           map[string]any{"k": nil},
		"k:":             map[string]any{"k": nil},
		`k: "qu: oted"`:  map[string]any{"k": "qu: oted"},
		`k: 'it''s'`:     map[string]any{"k": "it's"},
		`k: "e\nsc"`:     map[string]any{"k": "e\nsc"},
		"k: ckpt-100":    map[string]any{"k": "ckpt-100"},
		`k: "42"`:        map[string]any{"k": "42"},
		"k: v8.0-beta.1": map[string]any{"k": "v8.0-beta.1"},
	}
	for src, want := range cases {
		if got := parse(t, src); !reflect.DeepEqual(got, want) {
			t.Errorf("Parse(%q) = %#v, want %#v", src, got, want)
		}
	}
}

func TestNestedMaps(t *testing.T) {
	src := `
merge_method: passthrough
tailor:
  optimizer: true
  configs_from: checkpoint-1000
  nested:
    deep: 1
base: checkpoint-900
`
	want := map[string]any{
		"merge_method": "passthrough",
		"tailor": map[string]any{
			"optimizer":    true,
			"configs_from": "checkpoint-1000",
			"nested":       map[string]any{"deep": int64(1)},
		},
		"base": "checkpoint-900",
	}
	if got := parse(t, src); !reflect.DeepEqual(got, want) {
		t.Errorf("got %#v", got)
	}
}

func TestBlockSequences(t *testing.T) {
	src := `
layers:
  - 1
  - 2
  - three
`
	want := map[string]any{"layers": []any{int64(1), int64(2), "three"}}
	if got := parse(t, src); !reflect.DeepEqual(got, want) {
		t.Errorf("got %#v", got)
	}
}

func TestSequenceOfMappings(t *testing.T) {
	src := `
slices:
  - sources:
      - checkpoint: checkpoint-900
        layer_range: [0, 16]
  - sources:
      - checkpoint: checkpoint-1000
        layer_range: [16, 32]
`
	got := parse(t, src)
	slices := got.(map[string]any)["slices"].([]any)
	if len(slices) != 2 {
		t.Fatalf("slices = %#v", slices)
	}
	src0 := slices[0].(map[string]any)["sources"].([]any)[0].(map[string]any)
	if src0["checkpoint"] != "checkpoint-900" {
		t.Errorf("checkpoint = %v", src0["checkpoint"])
	}
	lr := src0["layer_range"].([]any)
	if lr[0] != int64(0) || lr[1] != int64(16) {
		t.Errorf("layer_range = %v", lr)
	}
}

func TestFlowSequences(t *testing.T) {
	cases := map[string]any{
		"k: [1, 2, 3]":         []any{int64(1), int64(2), int64(3)},
		"k: []":                []any{},
		"k: [a, b]":            []any{"a", "b"},
		"k: [[1, 2], [3]]":     []any{[]any{int64(1), int64(2)}, []any{int64(3)}},
		`k: ["a, b", c]`:       []any{"a, b", "c"},
		`k: [1, "a\"b", true]`: []any{int64(1), `a"b`, true},
		"k: [1, 2,]":           []any{int64(1), int64(2)},
		"k: [true, null]":      []any{true, nil},
		"k: [0.5, -1, 1e2]":    []any{0.5, int64(-1), 100.0},
	}
	for src, want := range cases {
		got := parse(t, src).(map[string]any)["k"]
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Parse(%q) = %#v, want %#v", src, got, want)
		}
	}
}

func TestComments(t *testing.T) {
	src := `
# full-line comment
k: v  # trailing comment
s: "a # not a comment"
`
	want := map[string]any{"k": "v", "s": "a # not a comment"}
	if got := parse(t, src); !reflect.DeepEqual(got, want) {
		t.Errorf("got %#v", got)
	}
}

func TestTopLevelSequence(t *testing.T) {
	src := "- a\n- b\n"
	want := []any{"a", "b"}
	if got := parse(t, src); !reflect.DeepEqual(got, want) {
		t.Errorf("got %#v", got)
	}
}

func TestDashOnlyItems(t *testing.T) {
	src := `
items:
  -
    name: x
  -
    name: y
`
	got := parse(t, src).(map[string]any)["items"].([]any)
	if len(got) != 2 || got[0].(map[string]any)["name"] != "x" {
		t.Fatalf("got %#v", got)
	}
}

func TestEmptyDocument(t *testing.T) {
	for _, src := range []string{"", "\n\n", "# only comments\n", "---\n"} {
		v, err := Parse([]byte(src))
		if err != nil || v != nil {
			t.Errorf("Parse(%q) = %v, %v", src, v, err)
		}
	}
}

func TestLeadingDocumentMarker(t *testing.T) {
	got := parse(t, "---\nk: v\n")
	if !reflect.DeepEqual(got, map[string]any{"k": "v"}) {
		t.Errorf("got %#v", got)
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		"k: v\n\tt: tab",         // tab
		"k: v\n---\nj: w",        // multi-doc
		"k: &anchor v",           // anchor
		"k: *alias",              // alias
		"k: [1, 2",               // unterminated flow
		"k: \"unterminated",      // unterminated quote
		"k: 'unterminated",       // unterminated quote
		"k: v\nbare",             // non-mapping line in map
		"k: v\nk: w",             // duplicate key
		"k: {a: 1}",              // flow map
		"k: |",                   // block scalar
		"parent:\n  a: 1\n b: 2", // inconsistent dedent
		"k: [1]]",                // unbalanced
	}
	for _, src := range cases {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestErrorsNameLine(t *testing.T) {
	_, err := Parse([]byte("ok: 1\nbroken line\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v", err)
	}
}

func TestMarshalBasics(t *testing.T) {
	v := map[string]any{
		"merge_method": "passthrough",
		"count":        int64(3),
		"ratio":        0.5,
		"enabled":      true,
		"range":        []any{int64(0), int64(16)},
		"nested":       map[string]any{"a": "b"},
		"items":        []any{map[string]any{"k": "v", "n": int64(1)}},
	}
	out, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(out)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, out)
	}
	if !reflect.DeepEqual(back, v) {
		t.Errorf("roundtrip: got %#v\nwant %#v\nyaml:\n%s", back, v, out)
	}
}

func TestMarshalQuotesAmbiguousStrings(t *testing.T) {
	v := map[string]any{
		"a": "42",
		"b": "true",
		"c": "null",
		"d": "has: colon",
		"e": "",
		"f": "3.14",
		// strconv.Quote escapes: a quote inside a quoted key, flow item or
		// value must not end the scalar for the splitters or the comment
		// stripper.
		`a"b`:   int64(1),
		"g":     []any{int64(1), `a"b`, true},
		`h" #x`: `v" #w`,
	}
	out, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, v) {
		t.Errorf("ambiguous strings roundtrip: %#v\nyaml:\n%s", back, out)
	}
}

func TestMarshalRejectsUnsupported(t *testing.T) {
	if _, err := Marshal(map[string]any{"k": map[string]any{}}); err == nil {
		t.Error("empty map accepted")
	}
	if _, err := Marshal(map[string]any{"k": []any{[]any{int64(1)}, map[string]any{"a": int64(1)}}}); err == nil {
		t.Error("sequence-of-sequences item accepted")
	}
	if _, err := Marshal(struct{}{}); err == nil {
		t.Error("struct accepted")
	}
}

// Property: Marshal → Parse round-trips randomly generated documents.
func TestMarshalParseRoundtripQuick(t *testing.T) {
	f := func(keys []string, ints []int64, strs []string, flag bool) bool {
		doc := map[string]any{}
		for i, k := range keys {
			if k == "" {
				k = "k"
			}
			// Sanitise keys: strip newlines (content chars are fine).
			k = strings.ReplaceAll(k, "\n", "_")
			k = strings.ReplaceAll(k, "\r", "_")
			switch i % 4 {
			case 0:
				if len(ints) > 0 {
					doc[k] = ints[i%len(ints)]
				} else {
					doc[k] = int64(i)
				}
			case 1:
				if len(strs) > 0 {
					s := strings.ReplaceAll(strs[i%len(strs)], "\r", "")
					doc[k] = strings.ReplaceAll(s, "\n", " ")
				} else {
					doc[k] = "s"
				}
			case 2:
				doc[k] = flag
			case 3:
				doc[k] = []any{int64(i), "x", flag}
			}
		}
		if len(doc) == 0 {
			return true
		}
		out, err := Marshal(doc)
		if err != nil {
			return false
		}
		back, err := Parse(out)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(back, doc)
	}
	// A fixed, printed seed: a counter-example found once reproduces.
	const seed = 20
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

func TestRealMergekitStyleRecipe(t *testing.T) {
	src := `
# LLMTailor parity recipe
merge_method: passthrough
base_checkpoint: run/checkpoint-1000
dtype: bfloat16
slices:
  - sources:
      - checkpoint: run/checkpoint-900
        layer_range: [0, 16]
        stride: 2     # odd layers
  - sources:
      - checkpoint: run/checkpoint-1000
        layer_range: [16, 32]
tailor:
  embed_tokens: run/checkpoint-900
  lm_head: run/checkpoint-1000
  final_norm: run/checkpoint-1000
  optimizer: true
  configs_from: run/checkpoint-1000
output: merged/checkpoint-1000
`
	v := parse(t, src).(map[string]any)
	if v["merge_method"] != "passthrough" || v["dtype"] != "bfloat16" {
		t.Fatalf("header: %#v", v)
	}
	tailor := v["tailor"].(map[string]any)
	if tailor["optimizer"] != true {
		t.Fatalf("tailor: %#v", tailor)
	}
	slices := v["slices"].([]any)
	if len(slices) != 2 {
		t.Fatalf("slices: %#v", slices)
	}
}
