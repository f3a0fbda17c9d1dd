package llmtailor_test

// The architecture rules. Every stage of a checkpoint's life — save, merge,
// restore, collect — has one writer and one reader, and each rule below
// keeps one of them singular: a symbol, the only files or functions allowed
// to use it, and an exact count where there must be exactly one. The rules
// read the code through go/parser, so a comment or a string that names a
// symbol is not a use of it.
//
// Beside the table: every -run/-fuzz alternative of the Makefile's test
// lanes names a test that exists, and every invariant in DESIGN.md names
// the tests or rules that prove it.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

type symKind int

const (
	kCall   symKind = iota // a call: "f" (f(…) or x.f(…)), ".f" (x.f(…) only), "pkg.f"
	kRef                   // any identifier: a use, a type, a declaration
	kWord                  // kRef, or a word in a comment or string literal
	kDecl                  // a func declaration: "f", or a method "(*T).m" / "T.m"
	kField                 // a declared struct field, var or const
	kIface                 // an interface method
	kRange                 // a range over x.name, name(…) or x.name(…)
	kReturn                // a func declaration with a result of that type
	kImport                // an import path
	kQual                  // a module package's name, qualified: "internal/x.Name"
)

// sym is one kind of use of some names. Names and args are globs in which
// '*' matches any text.
type sym struct {
	kind  symKind
	names []string
	args  []string // kCall: counts only when the argument list's source matches one
}

func calls(names ...string) sym   { return sym{kind: kCall, names: names} }
func refs(names ...string) sym    { return sym{kind: kRef, names: names} }
func words(names ...string) sym   { return sym{kind: kWord, names: names} }
func decls(names ...string) sym   { return sym{kind: kDecl, names: names} }
func fields(names ...string) sym  { return sym{kind: kField, names: names} }
func ifaces(names ...string) sym  { return sym{kind: kIface, names: names} }
func ranges(names ...string) sym  { return sym{kind: kRange, names: names} }
func returns(types ...string) sym { return sym{kind: kReturn, names: types} }
func imports(paths ...string) sym { return sym{kind: kImport, names: paths} }
func quals(names ...string) sym   { return sym{kind: kQual, names: names} }

func (s sym) withArgs(globs ...string) sym { s.args = globs; return s }

type archRule struct {
	name  string // <the make target it replaced>/<clause>
	why   string
	find  []sym
	with  []sym    // counts only in files where these occur too
	in    []string // path globs the rule reads; nil: the whole module
	tests bool     // read _test.go files too
	// allow lists the places a use may sit, as globs over "path",
	// "path:func" or "path:func:source", func in Go's (*T).m notation.
	allow []string
	count int // > 0: the exact number of uses, allowed ones included
	// check replaces find/allow/count for a rule that reads the whole
	// module at once.
	check func(t *testing.T, files []*srcFile)
}

var archRules = []archRule{
	{
		name:  "one-journal/append-ref-record",
		why:   "the write stage is the only code that journals a ref record: a second call site is a second copy of the journal → publish → seal protocol, free to drift from the first",
		find:  []sym{calls("appendRefRecord")},
		allow: []string{"internal/ckpt/write.go"},
		count: 1,
	},
	{
		name:  "one-pins/pin-assembly",
		why:   "the pin query (pins.go) is the only code that turns journal records or manifests into a keep set: a loop over a digest list or a PinDigests() call anywhere else is a private pin assembly, free to forget a fallback the query has (xor ancestors, peer runs, uncovered directories); refindex.go only validates and serialises the list it stores",
		find:  []sym{calls(".PinDigests"), ranges("Digests")},
		allow: []string{"internal/ckpt/pins.go", "internal/storage/refindex.go"},
	},
	{
		name: "one-store/second-store",
		why:  "BlobStore is the only content-addressed store: a second store type, or an interface (storage.CAS, a PutStreamOpts method) that lets one stand in for another, is a surface mirrored across variants, free to drift; sharding is a routing decision inside the one store (BlobStore.subRoot)",
		find: []sym{words("*ShardedStore*", "*CachedCAS*", "storage.CAS", "storage.CAS.*"), refs("CAS"), ifaces("PutStreamOpts")},
	},
	{
		name:  "one-store/put-methods",
		why:   "PutStreamOpts is the store's only put: a second put entry point is a second way to land a blob, free to drift",
		find:  []sym{decls("(*BlobStore).Put*", "BlobStore.Put*")},
		allow: []string{"internal/storage/blobstore.go:(*BlobStore).PutStreamOpts"},
		count: 1,
	},
	{
		name:  "one-reader/manifest-reads",
		why:   "the read stage decides whether a committed checkpoint's payloads sit in containers or in blobs: a manifest or container header read anywhere but there and the codec files is a private reader, free to drift from the stage's (a missed CRC, a forgotten bounds check)",
		find:  []sym{refs("ReadWeightManifest", "ReadShardManifest", "readContainerHeader")},
		allow: []string{"internal/ckpt/read.go", "internal/ckpt/manifest.go", "internal/ckpt/ltsf.go", "internal/ckpt/ltos.go"},
	},
	{
		name:  "one-reader/shard-header",
		why:   "readShardHeader is the read stage's own",
		find:  []sym{refs("ReadShardHeader", "readShardHeader")},
		allow: []string{"internal/ckpt/read.go", "internal/ckpt/ltos.go:readShardHeader"},
	},
	{
		name: "one-reader/weights-types",
		why:  "one Weights type reads weights: a second reader type, or an interface over it, is a second reader",
		find: []sym{words("*WeightsReader*", "*DedupWeights*")},
	},
	{
		name:  "one-reader/read-tensor-methods",
		why:   "one Weights type has the one ReadTensor",
		find:  []sym{decls("*.ReadTensor", "ReadTensor")},
		allow: []string{"internal/ckpt/read.go:(*Weights).ReadTensor"},
		count: 1,
	},
	{
		name:  "one-reader/optim-shard-reads",
		why:   "ReadOptimShard is the load driver over one rank, keeping the checked bytes of the groups asked for: a whole checkpoint loads in one pass of the driver (Restore, ReadState), so only merge's per-source-rank load — the paper's whole shard-file load (§5.4) — calls it",
		find:  []sym{refs("ReadOptimShard")},
		allow: []string{"internal/ckpt/read.go", "internal/tailor/merge.go:buildRankShards"},
	},
	{
		name: "one-reader/placement",
		why:  "a rank's group bytes leave the read stage only through the load driver's placer, behind its layout and padding checks: a zero.GroupShard outside internal/zero is a decoded shard of a rank's own, a second placement free to skip them (the deleted ShardFile kept one per group, checked no padding, and merge re-encoded it), and the deleted names are that path back",
		find: []sym{quals("internal/zero.GroupShard"), refs("ShardFile", "ReadShardFile", "ownShards", "EncodeGroup")},
	},
	{
		name:  "one-restore/no-rewrite",
		why:   "Restore returns the weights it decoded and CRC-checked: every writer stores each weight as its master's rounding (TestWritersKeepModelRounded) and Verify checks that it does, so a model rewrite from the master outside the optimizer is a second source of the weights, and on the resume path a serial pass over every model byte",
		find:  []sym{calls(".SyncModelFromMaster")},
		allow: []string{"internal/optim/*"},
	},
	{
		name: "one-reader/names-walk",
		why:  "the whole-checkpoint walk lives in the load driver (payloadSet.load): a file that loops over Names() and calls ReadTensor holds a serial walk of its own",
		find: []sym{ranges("*Names")},
		with: []sym{refs("ReadTensor")},
	},
	{
		name:  "one-publish/rename-probes",
		why:   "outside the backends, only the two platform forks (ckpt.begin, NewBlobStore) ask whether the backend renames: a test anywhere else is a hand-derived \"make these bytes visible all-or-nothing\", proven on one kind of backend only",
		find:  []sym{refs("RenameSupported")},
		allow: []string{"internal/storage/*", "internal/ckpt/commit.go:begin"},
	},
	{
		name: "one-publish/renames",
		why:  "storage.PublishFile is the only code that replaces a small file by staging it and renaming it over the final name; renames of whole directories stay in commit.go (publish, roll-forward) and AdoptAll's quarantine, blob moves in blobstore.go",
		find: []sym{calls(".Rename")},
		allow: []string{
			"internal/storage/backend.go", "internal/storage/mem.go", "internal/storage/objstore.go",
			"internal/storage/fault.go", "internal/storage/meter.go", "internal/storage/retry.go",
			"internal/storage/publish.go", "internal/storage/blobstore.go",
			"internal/ckpt/commit.go", "internal/ckpt/adopt.go:AdoptAll:*Rename(st.Path, q)",
		},
	},
	{
		name:  "one-publish/capability-methods",
		why:   "capabilities are answered by the backend at the bottom of a wrapper stack: a wrapper declares Unwrap, never a probe of its own",
		find:  []sym{decls("*.RenameSupported", "*.ComposeSupported", "*.NewSpool")},
		allow: []string{"internal/storage/*:(*ObjStore).*", "internal/storage/*:(*OS).*"},
	},
	{
		name: "one-publish/conversions",
		why:  "a published checkpoint directory never changes: nothing converts one in place; a dedup output takes its form before Commit, in the write stage",
		find: []sym{words("*Dedupify", "*dedupifyInPlace*", "*sweepUnlistedShardFiles*")},
	},
	{
		name: "one-publish/marker-writers",
		why:  "the COMMITTED marker is written by txn.Commit and AdoptAll's seal only",
		find: []sym{calls("writeJSON", "publishJSON", "PublishFile").withArgs("*CommitMarkerName*")},
		allow: []string{
			"internal/ckpt/adopt.go",
			`internal/ckpt/commit.go:(*txn).Commit:writeJSON(t.base, t.staging+"/"+CommitMarkerName*`,
		},
	},
	{
		name: "one-catalog/run-walkers",
		why:  "the run catalog is the only code that lists a run root, parses a checkpoint-<step> name or sorts a directory into final / staging / quarantined: a second walker is a second definition of \"which directories are usable\", free to disagree with the first; ckpt.begin refuses a staging name as its target",
		find: []sym{
			calls("*Sscanf").withArgs("*checkpoint-%d*"),
			refs("*IsStagingPath", "*IsQuarantinePath", "isStagingPath", "isQuarantinePath"),
			words("*runDirs", "*checkpointDirs", "*dirStep", "*stepOf", "*collectDirRefs"),
			calls(".List").withArgs("runRoot", "r.root", "c.root"),
		},
		allow: []string{"internal/ckpt/catalog.go", "internal/ckpt/commit.go:begin:isStagingPath(dir)"},
	},
	{
		name:  "one-catalog/layout-tests",
		why:   "read.go's decideLayout is the only code that tells plain from content-addressed: a second layout test is a second definition of the layout, free to disagree",
		find:  []sym{calls("*Exists").withArgs("*WeightManifestName*", `*/model.ltsf"*`)},
		allow: []string{"internal/ckpt/read.go"},
	},
	{
		name:  "one-report/sweep-fields",
		why:   "every collecting operation reports in the one GCReport, which embeds storage.SweepReport once: a field named like the sweep's accounting elsewhere is a second copy of it, free to drift",
		find:  []sym{fields("RemovedBlobs", "BytesFreed", "Examined")},
		allow: []string{"internal/storage/blobstore.go"},
	},
	{
		name:  "one-report/sweep-calls",
		why:   "every collecting operation (full and generational GC, Retain, hub GC) is a policy run by the one collection driver: a sweep call outside collect is a second phase order, free to drift",
		find:  []sym{calls(".sweep")},
		allow: []string{"internal/ckpt/pins.go:(*pinScope).collect"},
		count: 1,
	},
	{
		name:  "one-saver/constructors",
		why:   "lazy capture is the only asynchronous save: a second saver constructor is a second async mode, free to drift from the first",
		find:  []sym{decls("New*Saver", "*.New*Saver"), returns("*AsyncSaver")},
		allow: []string{"internal/ckpt/async.go:NewLazyAsyncSaver"},
	},
	{
		name: "one-saver/live-clones",
		why:  "a Clone in internal/ckpt is a deep copy of the live state — a snapshot stall of O(model size) where capture costs O(changed layers)",
		find: []sym{calls(".Clone")},
		in:   []string{"internal/ckpt/*"},
	},
	{
		name:  "one-stage/staged-wave",
		why:   "the write stage writes every file it stages before the marker — manifests and trailer — in one wave side by side (writeStaged): a Trailer.stage, or a WriteFile of write.go outside the wave, is the deleted serial path, one request round trip per file",
		find:  []sym{decls("(*Trailer).stage", "Trailer.stage"), calls("*WriteFile", "writeJSON", "*writeWeightManifest", "*writeShardManifest")},
		in:    []string{"internal/ckpt/write.go"},
		allow: []string{"internal/ckpt/write.go:writeStaged"},
		count: 1,
	},
	{
		name:  "one-output/second-writers",
		why:   "merge, blend and reshard fill a ckpt.Output and commit it through the write stage: a commit transaction, container writer, Publish or content-addressing pass of their own is a second checkpoint writer, free to drift (a CRC carried forward unchecked, a stored blob re-read and re-hashed)",
		find:  []sym{calls("ckpt.Begin", "*NewLTSFWriter", "*NewShardFileWriter", ".Publish"), refs("*contentAddress*")},
		allow: []string{"internal/ckpt/*"},
	},
	{
		name:  "one-container/header-first",
		why:   "a plain container is written header first, once: every section has its CRC before Backend.Create (a save's from the CRC pass, a stored payload's from its source), and only a section that has none, an output's computed payload, passes through the container's scratch spool; under these names is the deleted writer that spooled every payload and then copied the spool into the file, writing each byte twice",
		find:  []sym{words("spoolSection", "writeContainerStream")},
		tests: true,
	},
	{
		name: "one-decoder/read-all",
		why:  "a coded blob is read through the one chunk-streaming decoder, a chunk at a time: an io.ReadAll in the blob store or the codec is a whole-blob read back in",
		find: []sym{calls("io.ReadAll")},
		in:   []string{"internal/storage/blobstore.go", "internal/storage/codec.go"},
	},
	{
		name:  "one-decoder/chain-resolvers",
		why:   "the deleted whole-chain resolvers are a whole-blob read under their old names",
		find:  []sym{words("resolveLocal", "decodeContainerBlob", "readDecoded")},
		tests: true,
	},
	{
		name: "one-decoder/strided-fold",
		why:  "the deleted strided fold XORed every plane into the interleaved chunk a byte at a time, once per level: under its old names it is that fold back beside the plane-major one (its reference lives in codec_fuzz_test.go)",
		find: []sym{words("XORPlane", "XORPlaneRLE", "xorStrided", "decodeChunk")},
	},
	{
		name:  "one-decoder/decode-chunk-callers",
		why:   "a second caller of decodePlanes, the per-level chunk decoder under the plane-major fold, is a second decoder, free to skip the first's size, depth and EOF checks",
		find:  []sym{calls("decodePlanes")},
		allow: []string{"internal/storage/codec.go"},
		count: 1,
	},
	{
		name:  "one-spool/create-temp",
		why:   "an os.CreateTemp outside the file spool's constructor is a second file spool, free to forget the first's removal on Release",
		find:  []sym{calls("os.CreateTemp")},
		allow: []string{"internal/storage/stream.go:newFileSpool"},
	},
	{
		name:  "one-spool/spool-families",
		why:   "storage.Spool is the only spool: a deleted spool type is a second spool family back",
		find:  []sym{words("*CaptureSpool*", "*PooledSpool*", "*pooledSpool*", "FileSpool")},
		tests: true,
	},
	{
		name:  "one-spool/admission",
		why:   "BufferPool.Spool is the one memory-or-file admission rule: a TryAcquire in internal/ckpt is a private copy of it",
		find:  []sym{calls("*TryAcquire")},
		in:    []string{"internal/ckpt/*"},
		tests: true,
	},
	{
		name: "one-repartition/decode",
		why:  "optimizer shards cross a world-size change as byte extents (OutputRank.Group), never decoded: a non-test caller of zero.Reshard is a second repartition that loads and decodes every source rank's whole shard file; it stays only as the decode reference the splice is tested against",
		find: []sym{calls("zero.Reshard")},
	},
	{
		name:  "one-repartition/splice",
		why:   "OutputRank.Group is the one repartition — carry, zero or splice — that reshard and a merge across world sizes share: a second call of the splice is a second per-shard path, free to skip the group's whole-payload check before its first stitched shard",
		find:  []sym{calls("spliceShard")},
		allow: []string{"internal/ckpt/write.go:OutputRank.Group"},
		count: 1,
	},
	{
		name:  "one-carry/by-reference",
		why:   "a digest enters a checkpoint without its bytes only through payload.carry, which proves the blob present at its size and its padding zero: a stored payload replays through its checks by construction (payload.replays), so a per-site arming — the deleted payload.checked — is a way to take a payload by reference that carry does not see, and the output's knownBlobs view and the saver's tryReuse were the two private rules carry replaced",
		find:  []sym{calls(".checked"), refs("knownBlobs", "tryReuse")},
		allow: []string{"internal/ckpt/*:*:*.checked()"},
	},
	{
		name:  "one-carry/probes",
		why:   "the write stage and its save feeders ask the store whether it holds a blob only inside carry: a second Has or Stat there is a digest admitted on presence alone, without the size and padding proofs",
		find:  []sym{calls(".Has", ".Stat")},
		in:    []string{"internal/ckpt/write.go", "internal/ckpt/capture.go", "internal/ckpt/checkpoint.go", "internal/ckpt/async.go"},
		allow: []string{"internal/ckpt/write.go:(*payload).carry"},
		count: 1,
	},
	{
		name:  "one-unsafe/imports",
		why:   "FP32/BF16 encode and decode view a slice's memory in one place (tensor.WriteLE/DecodeLE); a second unsafe is a second set of aliasing and endianness assumptions to audit",
		find:  []sym{imports("unsafe")},
		allow: []string{"internal/tensor/le.go"},
		tests: true,
	},
	{
		name:  "one-surface/exports",
		why:   "an exported name nothing outside its package uses is surface to keep stable and read past for nothing: dead code behind a capital letter, or a helper wearing the package's API",
		check: checkSurface,
	},
}

func TestArchitecture(t *testing.T) {
	files := loadModule(t)
	for _, r := range archRules {
		t.Run(r.name, func(t *testing.T) {
			if r.check != nil {
				r.check(t, files)
				return
			}
			var uses, bad []string
			for _, f := range files {
				if !r.reads(f) {
					continue
				}
				for _, y := range r.find {
					for _, s := range f.find(y) {
						uses = append(uses, s.String())
						if !r.allows(s) {
							bad = append(bad, s.String())
						}
					}
				}
			}
			if len(bad) > 0 {
				t.Errorf("%s\nnot allowed here:\n\t%s", r.why, strings.Join(bad, "\n\t"))
			}
			if r.count > 0 && len(uses) != r.count {
				t.Errorf("%s\nwant exactly %d, found %d:\n\t%s", r.why, r.count, len(uses), strings.Join(uses, "\n\t"))
			}
		})
	}
}

// The surface rule. An exported top-level func, type, var or const of a
// non-test file under internal/ is part of the product's surface only if
// code outside its package names it: another package's code or tests,
// cmd/, examples/, the root package, or bench/ (a nested module that
// compiles against the product). Methods are exempt. A type that a used
// name's signature or exported fields name is used, and the consts of one
// const block of an exported type are used together.

// verdict says why an export is used; "" is unused.
type verdict string

const (
	vUsed    verdict = "used"    // another package's code names it
	vTests   verdict = "tests"   // only other packages' tests name it
	vBench   verdict = "bench"   // only bench/ names it
	vReached verdict = "reached" // a used name's signature or fields name it
	vBlock   verdict = "block"   // another const of its block is used
)

// surfaceAllow lists the exports that stay unused outside their package,
// each with the reason. At most maxSurfaceAllow.
var surfaceAllow = map[string]string{
	"internal/storage.ErrTransient": "the Backend contract's retryable failure: a Backend written outside the package (a decorator, a test double) wraps it to let Retry replay the request",
}

const maxSurfaceAllow = 10

func checkSurface(t *testing.T, files []*srcFile) {
	files = append(files[:len(files):len(files)], loadBench(t)...)
	verdicts, where := surface(files)
	if len(surfaceAllow) > maxSurfaceAllow {
		t.Errorf("%d allow entries, want at most %d", len(surfaceAllow), maxSurfaceAllow)
	}
	var bad []string
	for name, v := range verdicts {
		_, allowed := surfaceAllow[name]
		switch {
		case v == "" && !allowed:
			bad = append(bad, where[name]+": "+name)
		case v != "" && allowed:
			t.Errorf("%s is allowed, but it is used (%s): drop its allow entry", name, v)
		}
	}
	for name := range surfaceAllow {
		if _, ok := verdicts[name]; !ok {
			t.Errorf("%s is allowed, but no such export exists: drop its allow entry", name)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		t.Errorf("exported, yet nothing outside its package names it: unexport it, delete it, or allow it with a reason:\n\t%s",
			strings.Join(bad, "\n\t"))
	}
}

// surface gives every export of files its verdict, and where it is
// declared.
func surface(files []*srcFile) (map[string]verdict, map[string]string) {
	verdicts, where := map[string]verdict{}, map[string]string{}
	reach, blocks := map[string][]string{}, map[string][]string{}
	for _, f := range files {
		pkg := path.Dir(f.path)
		for _, e := range f.exports {
			verdicts[e.name] = ""
			where[e.name] = f.path + ":" + strconv.Itoa(e.line)
			for _, r := range e.reach {
				reach[e.name] = append(reach[e.name], pkg+"."+r)
			}
			if e.block != "" {
				blocks[e.block] = append(blocks[e.block], e.name)
			}
		}
		for recv, types := range f.methods {
			for _, r := range types {
				reach[pkg+"."+recv] = append(reach[pkg+"."+recv], pkg+"."+r)
			}
		}
	}
	rank := map[verdict]int{"": 0, vBench: 1, vTests: 2, vUsed: 3}
	for _, f := range files {
		v := vUsed
		switch {
		case strings.HasPrefix(f.path, "bench/"):
			v = vBench
		case f.test:
			v = vTests
		}
		for _, s := range f.sites[kQual] {
			name := s.names[0]
			old, ok := verdicts[name]
			if ok && path.Dir(f.path) != name[:strings.LastIndex(name, ".")] && rank[v] > rank[old] {
				verdicts[name] = v
			}
		}
	}
	for changed := true; changed; {
		changed = false
		mark := func(name string, v verdict) {
			if old, ok := verdicts[name]; ok && old == "" {
				verdicts[name], changed = v, true
			}
		}
		for name, v := range verdicts {
			if v != "" {
				for _, r := range reach[name] {
					mark(r, vReached)
				}
			}
		}
		for _, names := range blocks {
			for _, name := range names {
				if verdicts[name] != "" {
					for _, other := range names {
						mark(other, vBlock)
					}
				}
			}
		}
	}
	return verdicts, where
}

// loadBench parses the nested bench/ module, whose code names the
// product's exports like any other package.
func loadBench(t *testing.T) []*srcFile {
	t.Helper()
	var out []*srcFile
	fset := token.NewFileSet()
	paths, err := filepath.Glob("bench/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, scan(fset, filepath.ToSlash(p), src, f))
	}
	return out
}

// TestSurfaceVerdicts holds the surface rule to a small file set with one
// export of each kind, so that a rule matching nothing cannot pass.
func TestSurfaceVerdicts(t *testing.T) {
	sources := map[string]string{
		"internal/a/a.go": `package a

func Unused()    {}
func TestOnly()  {}
func BenchOnly() {}
func Used() *Reached { return nil }

type Reached struct {
	Field   Inner
	private Private
}

type Inner int
type Private int

func (Reached) Method() {}

type Kind int

const (
	KindA Kind = iota
	KindB
)
`,
		"internal/a/a_test.go": "package a\n\nfunc useOwn() { Unused() }\n",
		"internal/b/b.go": `package b

import "llmtailor/internal/a"

var k = a.KindA
`,
		"internal/b/b_test.go": `package b

import alias "llmtailor/internal/a"

func useTest() { alias.TestOnly() }
`,
		"cmd/c/main.go": `package main

import "llmtailor/internal/a"

func main() { a.Used().Method() }
`,
		"bench/x.go": `package main

import "llmtailor/internal/a"

func x() { a.BenchOnly() }
`,
	}
	fset := token.NewFileSet()
	var files []*srcFile
	for p, src := range sources {
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, scan(fset, p, []byte(src), f))
	}
	got, _ := surface(files)
	want := map[string]verdict{
		"internal/a.Unused":    "", // its own package's test is no use
		"internal/a.TestOnly":  vTests,
		"internal/a.BenchOnly": vBench,
		"internal/a.Used":      vUsed,
		"internal/a.Reached":   vReached, // Used's result; its method is no export
		"internal/a.Inner":     vReached, // Reached's exported field
		"internal/a.Private":   "",       // an unexported field only
		"internal/a.Kind":      vReached, // the type of a used const
		"internal/a.KindA":     vUsed,
		"internal/a.KindB":     vBlock,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("verdicts:\n got %v\nwant %v", got, want)
	}
}

// reads reports whether r looks at f. No rule reads this file: the table
// spells out every name it forbids.
func (r *archRule) reads(f *srcFile) bool {
	if f.path == "arch_test.go" || f.test && !r.tests || r.in != nil && !anyGlob(r.in, f.path) {
		return false
	}
	for _, y := range r.with {
		if len(f.find(y)) == 0 {
			return false
		}
	}
	return true
}

func (r *archRule) allows(s site) bool {
	for _, a := range r.allow {
		parts := strings.SplitN(a, ":", 3)
		if !glob(parts[0], s.path) ||
			len(parts) > 1 && !glob(parts[1], s.fn) ||
			len(parts) > 2 && !glob(parts[2], s.text) {
			continue
		}
		return true
	}
	return false
}

// site is one occurrence of a symbol in the source.
type site struct {
	names []string // the forms a glob may match, e.g. "f", ".f", "pkg.f"
	args  string   // kCall: the argument list's source
	text  string   // the source of the call it names or makes, else the name
	path  string
	fn    string // the enclosing func declaration, "" at package level
	line  int
}

// find returns the sites of f that y matches.
func (f *srcFile) find(y sym) []site {
	var out []site
	kinds := []symKind{y.kind}
	if y.kind == kWord {
		kinds = []symKind{kRef, kWord}
	}
	for _, k := range kinds {
		for _, s := range f.sites[k] {
			if anyNameGlob(y.names, s.names) && (y.args == nil || anyGlob(y.args, s.args)) {
				out = append(out, s)
			}
		}
	}
	return out
}

func (s site) String() string {
	where := s.path + ":" + strconv.Itoa(s.line)
	if s.fn != "" {
		where += " in " + s.fn
	}
	return where + ": " + s.text
}

type srcFile struct {
	path  string // slash-separated, relative to the module root
	test  bool
	sites map[symKind][]site
	funcs []string // top-level func names (Test*, Fuzz* among them)
	// exports are the file's exported top-level funcs, types, vars and
	// consts; methods holds, per receiver type, the types its exported
	// methods' signatures name.
	exports []export
	methods map[string][]string
}

// export is one exported top-level name.
type export struct {
	name  string // "internal/x.Name"
	line  int
	reach []string // the exported types of its package that its signature or exported fields name
	block string   // a const of an exported type: its const block, "path:line"
}

var (
	moduleOnce  sync.Once
	moduleFiles []*srcFile
	moduleErr   error
)

// loadModule parses every .go file of the module the way the go command
// sees it: testdata and directories named with a leading '.' or '_' are
// skipped, and so is a nested module (bench/).
func loadModule(t *testing.T) []*srcFile {
	t.Helper()
	moduleOnce.Do(func() {
		fset := token.NewFileSet()
		moduleErr = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if p == "." {
					return nil
				}
				name := d.Name()
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") {
				return nil
			}
			src, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			f, err := parser.ParseFile(fset, p, src, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			moduleFiles = append(moduleFiles, scan(fset, filepath.ToSlash(p), src, f))
			return nil
		})
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleFiles
}

// scan lists every site in one file.
func scan(fset *token.FileSet, p string, src []byte, f *ast.File) *srcFile {
	out := &srcFile{path: p, test: strings.HasSuffix(p, "_test.go"), sites: map[symKind][]site{}}
	source := func(from, to token.Pos) string {
		return string(src[fset.Position(from).Offset:fset.Position(to).Offset])
	}
	var fn string
	add := func(kind symKind, pos token.Pos, text string, names ...string) *site {
		out.sites[kind] = append(out.sites[kind], site{names: names, text: text,
			path: p, fn: fn, line: fset.Position(pos).Line})
		return &out.sites[kind][len(out.sites[kind])-1]
	}
	// A word is a name or a dotted path of names ("storage.CAS"); a dotted
	// one answers to each of its names too.
	word := regexp.MustCompile(`[A-Za-z0-9_]+(\.[A-Za-z0-9_]+)*`)
	addWords := func(pos token.Pos, text string) {
		for _, m := range word.FindAllStringIndex(text, -1) {
			w := text[m[0]:m[1]]
			names := []string{w}
			if strings.Contains(w, ".") {
				names = append(names, strings.Split(w, ".")...)
			}
			add(kWord, pos+token.Pos(m[0]), w, names...)
		}
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			addWords(c.Pos(), c.Text)
		}
	}
	qualifiers := map[string]string{} // import name → "internal/x"
	for _, im := range f.Imports {
		ip := strings.Trim(im.Path.Value, `"`)
		add(kImport, im.Pos(), im.Path.Value, ip)
		if rel, ok := strings.CutPrefix(ip, modulePath+"/"); ok {
			name := path.Base(rel)
			if im.Name != nil {
				name = im.Name.Name
			}
			qualifiers[name] = rel
		}
	}
	scanExports(out, fset, f)
	called := map[*ast.Ident]string{} // a called name's call source
	visit := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if names := callNames(n.Fun); names != nil {
				text := source(n.Pos(), n.End())
				add(kCall, n.Pos(), text, names...).args = source(n.Lparen+1, n.Rparen)
				id, _ := callee(n.Fun)
				called[id] = text
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && qualifiers[x.Name] != "" {
				q := qualifiers[x.Name] + "." + n.Sel.Name
				add(kQual, n.Pos(), source(n.Pos(), n.End()), q)
			}
		case *ast.BasicLit:
			if n.Kind == token.STRING {
				addWords(n.Pos(), n.Value)
			}
		case *ast.Ident:
			text, ok := called[n]
			if !ok {
				text = n.Name
			}
			add(kRef, n.Pos(), text, n.Name)
		case *ast.StructType:
			for _, fd := range n.Fields.List {
				for _, id := range fd.Names {
					add(kField, id.Pos(), id.Name, id.Name)
				}
			}
		case *ast.ValueSpec:
			for _, id := range n.Names {
				add(kField, id.Pos(), id.Name, id.Name)
			}
		case *ast.InterfaceType:
			for _, fd := range n.Methods.List {
				for _, id := range fd.Names {
					add(kIface, id.Pos(), id.Name, id.Name)
				}
			}
		case *ast.RangeStmt:
			var names []string
			switch x := n.X.(type) {
			case *ast.CallExpr:
				names = callNames(x.Fun)
			case *ast.SelectorExpr:
				names = []string{x.Sel.Name}
			case *ast.Ident:
				names = []string{x.Name}
			}
			if names != nil {
				add(kRange, n.Pos(), "range "+source(n.X.Pos(), n.X.End()), names...)
			}
		}
		return true
	}
	for _, d := range f.Decls {
		fn = ""
		if fd, ok := d.(*ast.FuncDecl); ok {
			fn = funcName(fd)
			add(kDecl, fd.Name.Pos(), "func "+fn, fn)
			if fd.Recv == nil {
				out.funcs = append(out.funcs, fd.Name.Name)
			}
			if fd.Type.Results != nil {
				for _, res := range fd.Type.Results.List {
					add(kReturn, res.Type.Pos(), "func "+fn, source(res.Type.Pos(), res.Type.End()))
				}
			}
		}
		ast.Inspect(d, visit)
	}
	return out
}

// modulePath is the module's import path, the prefix of a qualified use.
const modulePath = "llmtailor"

// scanExports lists f's exported top-level funcs, types, vars and consts,
// and the types its exported methods name, into out. Test files and files
// outside internal/ have no surface to check.
func scanExports(out *srcFile, fset *token.FileSet, f *ast.File) {
	if out.test || !strings.HasPrefix(out.path, "internal/") {
		return
	}
	pkg := path.Dir(out.path)
	add := func(id *ast.Ident, block string, types ...ast.Node) {
		if id.IsExported() {
			out.exports = append(out.exports, export{name: pkg + "." + id.Name,
				line: fset.Position(id.Pos()).Line, reach: typeNames(types...), block: block})
		}
	}
	out.methods = map[string][]string{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name, "", d.Type)
			} else if d.Name.IsExported() {
				recv := strings.TrimPrefix(funcName(d), "(*")
				recv = recv[:strings.IndexAny(recv, ").")]
				out.methods[recv] = append(out.methods[recv], typeNames(d.Type)...)
			}
		case *ast.GenDecl:
			block := constBlock(out.path, fset, d)
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name, "", exportedParts(spec.Type)...)
				case *ast.ValueSpec:
					types := []ast.Node{spec.Type}
					for _, v := range spec.Values {
						if lit, ok := v.(*ast.CompositeLit); ok {
							types = append(types, lit.Type)
						}
					}
					for _, id := range spec.Names {
						add(id, block, types...)
					}
				}
			}
		}
	}
}

// constBlock names d when it is a parenthesised const block of one
// exported type of its own package, "" otherwise.
func constBlock(p string, fset *token.FileSet, d *ast.GenDecl) string {
	if d.Tok != token.CONST || !d.Lparen.IsValid() {
		return ""
	}
	var typ string
	for i, spec := range d.Specs {
		vs := spec.(*ast.ValueSpec)
		id, ok := vs.Type.(*ast.Ident)
		switch {
		case i == 0 && (!ok || !id.IsExported()):
			return ""
		case i == 0:
			typ = id.Name
		case vs.Type != nil && (!ok || id.Name != typ):
			return ""
		}
	}
	return p + ":" + strconv.Itoa(fset.Position(d.Pos()).Line)
}

// exportedParts returns what of a type declaration another package sees:
// a struct's exported and embedded fields, an interface's methods, or
// the whole type.
func exportedParts(typ ast.Expr) []ast.Node {
	st, ok := typ.(*ast.StructType)
	if !ok {
		return []ast.Node{typ}
	}
	var out []ast.Node
	for _, fd := range st.Fields.List {
		if len(fd.Names) == 0 || ast.IsExported(fd.Names[0].Name) {
			out = append(out, fd.Type)
		}
	}
	return out
}

// typeNames returns the exported unqualified names the nodes mention in
// type position: the types of their own package they expose.
func typeNames(nodes ...ast.Node) []string {
	var out []string
	for _, n := range nodes {
		if n == nil {
			continue
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				return false // another package's name, or a field
			case *ast.Field:
				out = append(out, typeNames(n.Type)...)
				return false // its names are parameters or fields
			case *ast.Ident:
				if n.IsExported() {
					out = append(out, n.Name)
				}
			}
			return true
		})
	}
	return out
}

// callNames returns the forms a call's function answers to: "f" for f(…);
// "f", ".f" and, when x is a name, "x.f" for x.f(…).
func callNames(fun ast.Expr) []string {
	id, x := callee(fun)
	switch {
	case id == nil:
		return nil
	case x == nil:
		return []string{id.Name}
	}
	names := []string{id.Name, "." + id.Name}
	if x, ok := x.(*ast.Ident); ok {
		names = append(names, x.Name+"."+id.Name)
	}
	return names
}

// callee returns the name a call's function ends in and, for x.f, x.
func callee(fun ast.Expr) (*ast.Ident, ast.Expr) {
	switch f := fun.(type) {
	case *ast.ParenExpr:
		return callee(f.X)
	case *ast.IndexExpr:
		return callee(f.X)
	case *ast.IndexListExpr:
		return callee(f.X)
	case *ast.SelectorExpr:
		return f.Sel, f.X
	case *ast.Ident:
		return f, nil
	}
	return nil, nil
}

// funcName renders a func declaration's name as Go does: f, T.m or (*T).m.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, true
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	name := "?"
	if id, ok := typ.(*ast.Ident); ok {
		name = id.Name
	}
	if star {
		return "(*" + name + ")." + fd.Name.Name
	}
	return name + "." + fd.Name.Name
}

// glob matches s against a pattern in which '*' stands for any text.
func glob(pattern, s string) bool {
	parts := strings.Split(pattern, "*")
	if len(parts) == 1 {
		return s == pattern
	}
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	for _, p := range parts[1 : len(parts)-1] {
		i := strings.Index(s, p)
		if i < 0 {
			return false
		}
		s = s[i+len(p):]
	}
	return strings.HasSuffix(s, parts[len(parts)-1])
}

func anyGlob(patterns []string, s string) bool {
	for _, p := range patterns {
		if glob(p, s) {
			return true
		}
	}
	return false
}

func anyNameGlob(patterns, names []string) bool {
	for _, n := range names {
		if anyGlob(patterns, n) {
			return true
		}
	}
	return false
}

// testFuncs maps each package directory of the module to its Test* and
// Fuzz* funcs.
func testFuncs(t *testing.T) map[string][]string {
	out := map[string][]string{}
	for _, f := range loadModule(t) {
		if !f.test {
			continue
		}
		for _, name := range f.funcs {
			if strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Fuzz") {
				dir := path.Dir(f.path)
				out[dir] = append(out[dir], name)
			}
		}
	}
	return out
}

// laneTargets are the Makefile targets that select tests by -run or -fuzz
// pattern. A renamed test makes such a lane pass while running nothing, so
// every alternative of every pattern must match a test in the packages the
// command names.
var laneTargets = []string{"request-budget", "race-read", "race-maint", "objstore", "fuzz-smoke"}

func TestLanesRunTests(t *testing.T) {
	funcs := testFuncs(t)
	recipes := makeRecipes(t)
	for _, target := range laneTargets {
		t.Run(target, func(t *testing.T) {
			checked := 0
			for _, cmd := range recipes[target] {
				args := shellWords(cmd)
				var pkgs []string
				for _, a := range args {
					if a == "." || strings.HasPrefix(a, "./") {
						pkgs = append(pkgs, path.Clean(a))
					}
				}
				for i := 0; i+1 < len(args); i++ {
					if args[i] != "-run" && args[i] != "-fuzz" {
						continue
					}
					pattern := strings.ReplaceAll(args[i+1], "$$", "$")
					if pattern == "^$" {
						continue
					}
					for _, alt := range alternatives(pattern) {
						checked++
						re, err := regexp.Compile(alt)
						if err != nil {
							t.Errorf("%s: %v", cmd, err)
							continue
						}
						if !anyMatch(re, funcs, pkgs, args[i] == "-fuzz") {
							t.Errorf("%s %s %q matches no test in %v", target, args[i], alt, pkgs)
						}
					}
				}
			}
			if checked == 0 {
				t.Errorf("make %s: no -run or -fuzz pattern found", target)
			}
		})
	}
}

func anyMatch(re *regexp.Regexp, funcs map[string][]string, pkgs []string, fuzzOnly bool) bool {
	for _, p := range pkgs {
		for _, name := range funcs[p] {
			if (!fuzzOnly || strings.HasPrefix(name, "Fuzz")) && re.MatchString(name) {
				return true
			}
		}
	}
	return false
}

// alternatives splits "A|B" into its branches and "^(A|B)$" into "^A$" and
// "^B$".
func alternatives(pattern string) []string {
	if strings.HasPrefix(pattern, "^(") && strings.HasSuffix(pattern, ")$") {
		var out []string
		for _, a := range strings.Split(pattern[2:len(pattern)-2], "|") {
			out = append(out, "^"+a+"$")
		}
		return out
	}
	return strings.Split(pattern, "|")
}

// makeRecipes returns each Makefile target's recipe lines, continuation
// lines joined.
func makeRecipes(t *testing.T) map[string][]string {
	t.Helper()
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]string{}
	target, cont := "", ""
	for _, line := range strings.Split(string(data), "\n") {
		if cont != "" {
			line, cont = cont+" "+strings.TrimSpace(line), ""
		}
		if strings.HasSuffix(line, "\\") {
			cont = strings.TrimSuffix(line, "\\")
			continue
		}
		switch {
		case strings.HasPrefix(line, "\t"):
			if target != "" {
				out[target] = append(out[target], strings.TrimSpace(line))
			}
		case strings.Contains(line, ":") && !strings.HasPrefix(line, "#") && !strings.Contains(line, "="):
			target = strings.TrimSpace(line[:strings.Index(line, ":")])
		default:
			target = ""
		}
	}
	return out
}

// shellWords splits a recipe line on blanks, single quotes grouping.
func shellWords(s string) []string {
	var out []string
	var cur strings.Builder
	quoted, inWord := false, false
	for _, r := range s {
		switch {
		case r == '\'':
			quoted, inWord = !quoted, true
		case (r == ' ' || r == '\t') && !quoted:
			if inWord {
				out = append(out, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		out = append(out, cur.String())
	}
	return out
}

// TestInvariantsNameTheirProof holds DESIGN.md's "Invariants to preserve"
// to its proofs: every bullet names at least one test or architecture rule
// in backquotes, and every name it gives exists.
func TestInvariantsNameTheirProof(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	const heading = "\n## Invariants to preserve\n"
	_, section, ok := strings.Cut(string(data), heading)
	if !ok {
		t.Fatalf("DESIGN.md has no %q section", strings.TrimSpace(heading))
	}
	section, _, _ = strings.Cut(section, "\n## ")

	tests := map[string]bool{}
	for _, names := range testFuncs(t) {
		for _, n := range names {
			tests[n] = true
		}
	}
	rules := map[string]bool{}
	for _, r := range archRules {
		rules[r.name] = true
		rules[r.name[:strings.Index(r.name, "/")]] = true
	}
	quoted := regexp.MustCompile("`([^`]+)`")
	proof := regexp.MustCompile(`^(Test|Fuzz)[A-Za-z0-9_]+$|^one-[a-z]+(/[a-z-]+)?$`)
	bullets := strings.Split(section, "\n- ")[1:]
	if len(bullets) == 0 {
		t.Fatal("DESIGN.md lists no invariants")
	}
	for _, b := range bullets {
		named := 0
		for _, m := range quoted.FindAllStringSubmatch(b, -1) {
			name := m[1]
			if !proof.MatchString(name) {
				continue
			}
			named++
			if !tests[name] && !rules[name] {
				t.Errorf("invariant names %s, which is neither a test nor an architecture rule:\n- %s", name, b)
			}
		}
		if named == 0 {
			t.Errorf("invariant names no test or architecture rule:\n- %s", b)
		}
	}
}
