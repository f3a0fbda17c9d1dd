# Tier-1 verification plus the perf-record targets. `make ci` is what a CI
# workflow should run.

GO ?= go

.PHONY: all build test race race-read race-maint vet fmt-check one-journal one-pins one-store one-reader one-publish one-catalog one-report one-saver one-output one-decoder request-budget loc ci ci-fast ci-slow cover fuzz-smoke doctor-smoke objstore bench bench-vet bench-smoke bench-check bench-record clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -short only changes internal/experiments (nothing else reads it): the
# package replays whole paper use-cases and alone needs ~25 minutes under
# the race detector, so here it runs one use case at a quarter of the steps.
# The full replay stays in `make test`. internal/ckpt's crash explorations
# need ~7.5 minutes under the detector, so go test's 10-minute default is raised.
race:
	$(GO) test -race -short -timeout 20m ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The checkpoint write stage (internal/ckpt/write.go) is the only code that
# may journal a ref record: a second call site is a second copy of the
# journal -> publish -> seal protocol, free to drift from the first.
one-journal:
	@n=$$(grep -rn --include='*.go' --exclude='*_test.go' 'appendRefRecord(' internal cmd *.go \
		| grep -vc 'func appendRefRecord('); \
	if [ "$$n" -ne 1 ]; then \
		echo "appendRefRecord( has $$n non-test call sites, want exactly 1 (the write stage):"; \
		grep -rn --include='*.go' --exclude='*_test.go' 'appendRefRecord(' internal cmd *.go \
			| grep -v 'func appendRefRecord('; exit 1; fi

# The pin query (internal/ckpt/pins.go) is the only code that may turn
# journal records or manifests into a keep set: a loop over a record's or a
# directory's digest list, or a PinDigests() call, anywhere else is a private
# pin assembly, free to forget a fallback the query has (xor ancestors, peer
# runs, uncovered directories). storage/refindex.go only validates and
# serialises the list it stores.
one-pins:
	@bad=$$(grep -rnE --include='*.go' --exclude='*_test.go' '\.PinDigests\(\)|range [A-Za-z_.]*\.Digests \{' internal cmd *.go \
		| grep -v -e '^internal/ckpt/pins.go:' -e '^internal/storage/refindex.go:'); \
	if [ -n "$$bad" ]; then \
		echo "pin assembly outside internal/ckpt/pins.go:"; echo "$$bad"; exit 1; fi

# BlobStore (internal/storage/blobstore.go) is the only content-addressed
# store and PutStreamOpts its only put: a second store type, an interface
# that lets one stand in for another, or a second put entry point is a
# surface mirrored across variants, free to drift. Sharding is a routing
# decision inside the one store (BlobStore.subRoot).
one-store:
	@bad=$$(grep -rnE --include='*.go' --exclude='*_test.go' \
		'ShardedStore|CachedCAS|storage\.CAS([^A-Za-z0-9_]|$$)|^[[:space:]]+PutStreamOpts\(' internal cmd *.go); \
	if [ -n "$$bad" ]; then \
		echo "a second store type, a store interface, or a PutStreamOpts interface method:"; echo "$$bad"; exit 1; fi; \
	n=$$(grep -hE --exclude='*_test.go' '^func \([a-z]+ \*BlobStore\) Put[A-Za-z]*\(' internal/storage/*.go | wc -l); \
	if [ "$$n" -ne 1 ]; then \
		echo "BlobStore has $$n Put methods, want exactly 1 (PutStreamOpts):"; \
		grep -nE --exclude='*_test.go' '^func \([a-z]+ \*BlobStore\) Put[A-Za-z]*\(' internal/storage/*.go; exit 1; fi

# The checkpoint read stage (internal/ckpt/read.go) is the only code that
# decides whether a committed checkpoint's payloads sit in containers or in
# blobs: a manifest or container header read anywhere else but there and the
# codec files is a private reader, free to drift from the stage's (a missed
# CRC, a forgotten bounds check). ReadShardHeader is the stage's own (and
# the whole-file loader's); one Weights type has the one ReadTensor. The whole-checkpoint walk
# lives in the stage's load driver (payloadSet.load): ReadOptimShard is called
# by the stage and by merge's per-source-rank load only, and nothing loops
# over Names() calling ReadTensor.
one-reader:
	@bad=$$(grep -rnE --include='*.go' --exclude='*_test.go' \
		'(ReadWeightManifest|ReadShardManifest|readContainerHeader)\(' internal cmd *.go \
		| grep -v -e '^internal/ckpt/read.go:' -e '^internal/ckpt/manifest.go:' \
			-e '^internal/ckpt/ltsf.go:' -e '^internal/ckpt/ltos.go:'); \
	if [ -n "$$bad" ]; then \
		echo "manifest or container header read outside the read stage and the codec files:"; echo "$$bad"; exit 1; fi; \
	bad=$$(grep -rn --include='*.go' --exclude='*_test.go' 'ReadShardHeader(' internal cmd *.go \
		| grep -v -e 'func ReadShardHeader(' -e '^internal/ckpt/read.go:'); \
	if [ -n "$$bad" ]; then \
		echo "ReadShardHeader( outside the read stage:"; echo "$$bad"; exit 1; fi; \
	bad=$$(grep -rnE --include='*.go' --exclude='*_test.go' 'WeightsReader|DedupWeights' internal cmd *.go); \
	if [ -n "$$bad" ]; then \
		echo "a second weights reader type or an interface over it:"; echo "$$bad"; exit 1; fi; \
	n=$$(grep -rhE --include='*.go' --exclude='*_test.go' '^func \([a-z]+ \*?[A-Za-z]+\) ReadTensor\(' internal cmd *.go | wc -l); \
	if [ "$$n" -ne 1 ]; then \
		echo "$$n ReadTensor methods, want exactly 1 (ckpt.Weights):"; \
		grep -rnE --include='*.go' --exclude='*_test.go' '^func \([a-z]+ \*?[A-Za-z]+\) ReadTensor\(' internal cmd *.go; exit 1; fi; \
	bad=$$(grep -rn --include='*.go' --exclude='*_test.go' 'ReadOptimShard(' internal cmd *.go \
		| grep -v -e 'func (c \*Checkpoint) ReadOptimShard(' -e '^internal/ckpt/read.go:' -e '^internal/tailor/merge.go:'); \
	if [ -n "$$bad" ]; then \
		echo "ReadOptimShard( outside the read stage and merge's per-source-rank load (whole checkpoints go through ReadState):"; echo "$$bad"; exit 1; fi; \
	bad=$$(grep -rlE --include='*.go' --exclude='*_test.go' 'range [A-Za-z_.()]*Names\(\)' internal cmd *.go \
		| xargs -r grep -ln 'ReadTensor('); \
	if [ -n "$$bad" ]; then \
		echo "a loop over Names() beside ReadTensor( calls — a serial whole-checkpoint walk outside the load driver:"; echo "$$bad"; exit 1; fi

# storage.PublishFile (internal/storage/publish.go) is the only code that
# replaces a small file by staging it and renaming it over the final name,
# and the only place outside the two platform forks (Txn.Begin, NewBlobStore)
# that asks whether the backend renames: a RenameSupported( test or a
# .Rename( call anywhere else is a hand-derived "make these bytes visible
# all-or-nothing", proven on one kind of backend only. Renames of whole
# directories stay where they are (commit.go's publish and roll-forward,
# Adopt's quarantine) and blob moves in blobstore.go. Capabilities are
# answered by the backend at the bottom of a wrapper stack: a wrapper
# declares Unwrap, never a probe of its own. A published checkpoint directory
# never changes: nothing converts one (no Dedupify), and the COMMITTED marker
# is written by Txn.Commit and Adopt's seal only.
one-publish:
	@bad=$$(grep -rn --include='*.go' --exclude='*_test.go' 'RenameSupported(' internal cmd *.go \
		| grep -v -e '^internal/storage/' -e '^internal/ckpt/commit.go:'); \
	if [ -n "$$bad" ]; then \
		echo "RenameSupported( outside internal/storage and the commit transaction:"; echo "$$bad"; exit 1; fi; \
	bad=$$(grep -rn --include='*.go' --exclude='*_test.go' '\.Rename(' internal cmd *.go \
		| grep -v -E '^internal/storage/(backend|mem|objstore|fault|meter|retry|publish|blobstore)\.go:|^internal/ckpt/commit\.go:|^internal/ckpt/adopt\.go:.*Rename\(st\.Path, q\)'); \
	if [ -n "$$bad" ]; then \
		echo "a rename outside the backends, PublishFile, the blob store, the commit transaction and Adopt's quarantine:"; echo "$$bad"; exit 1; fi; \
	bad=$$(grep -rnE --include='*.go' --exclude='*_test.go' '^func \([a-z]+ \*?[A-Za-z]+\) (RenameSupported|ComposeSupported|NewSpool)\(' internal cmd *.go \
		| grep -v -E 'func \([a-z]+ \*(ObjStore|OS)\) '); \
	if [ -n "$$bad" ]; then \
		echo "a capability method on something other than ObjStore/OS (wrappers declare Unwrap):"; echo "$$bad"; exit 1; fi; \
	bad=$$(grep -rnE --include='*.go' --exclude='*_test.go' 'Dedupify\(|dedupifyInPlace|sweepUnlistedShardFiles' internal cmd *.go); \
	if [ -n "$$bad" ]; then \
		echo "a conversion of a published directory is back (a dedup output takes its form before Commit, in the write stage):"; echo "$$bad"; exit 1; fi; \
	bad=$$(grep -rnE --include='*.go' --exclude='*_test.go' '(writeJSON|publishJSON|PublishFile)\(.*CommitMarkerName' internal cmd *.go \
		| grep -v -e '^internal/ckpt/adopt.go:' -e '^internal/ckpt/commit.go:.*writeJSON(t\.base, t\.staging+"/"+CommitMarkerName'); \
	if [ -n "$$bad" ]; then \
		echo "the COMMITTED marker is written outside Txn.Commit and Adopt's seal:"; echo "$$bad"; exit 1; fi

# The run catalog (internal/ckpt/catalog.go) is the only code that lists a run
# root to enumerate its checkpoint directories, parses the `checkpoint-<step>`
# name or sorts a directory into final / staging / quarantined, and read.go's
# decideLayout the only code that tells plain from content-addressed: a
# second walker or a second layout test is a second definition of "which
# directories are usable", free to disagree with the first (PR 21's blob leak
# was two of them disagreeing about an interrupted conversion). Txn.Begin
# refuses a staging name as its target; the write stage creates and removes
# model.ltsf in staging, which is a file operation, not a layout test.
one-catalog:
	@bad=$$(grep -rnE --include='*.go' --exclude='*_test.go' \
		'Sscanf\([^)]*"checkpoint-%d|IsStagingPath\(|IsQuarantinePath\(|(runDirs|checkpointDirs|dirStep|stepOf|collectDirRefs)\(|\.List\((runRoot|r\.root|c\.root)\)' internal cmd *.go \
		| grep -v -e '^internal/ckpt/catalog.go:' -e '^internal/ckpt/commit.go:.*if IsStagingPath(dir) {'); \
	if [ -n "$$bad" ]; then \
		echo "a run-root walker, a checkpoint-<step> parse or a directory-kind test outside internal/ckpt/catalog.go:"; echo "$$bad"; exit 1; fi; \
	bad=$$(grep -rnE --include='*.go' --exclude='*_test.go' \
		'Exists\(.*(WeightManifestName|/model\.ltsf")' internal cmd *.go \
		| grep -v -e '^internal/ckpt/read.go:'); \
	if [ -n "$$bad" ]; then \
		echo "a plain/dedup layout test outside read.go decideLayout:"; echo "$$bad"; exit 1; fi

# Every collecting operation (full and generational GC, Retain, hub GC) is a
# policy run by the one collection driver, collect in internal/ckpt/pins.go,
# and reports in the one GCReport, which embeds storage.SweepReport once: a
# struct field named RemovedBlobs, BytesFreed or Examined outside
# internal/storage/blobstore.go is a second copy of the sweep's accounting,
# and a sweeper.sweep call outside collect is a second phase order, each free
# to drift from the first.
one-report:
	@bad=$$(grep -rnE --include='*.go' --exclude='*_test.go' \
		'^[[:space:]]+([A-Za-z_]+, *)*(RemovedBlobs|BytesFreed|Examined)(, *[A-Za-z_]+)* +(\[\])?[A-Za-z0-9_.]+[[:space:]]*(//.*)?$$' internal cmd *.go \
		| grep -v '^internal/storage/blobstore.go:'); \
	if [ -n "$$bad" ]; then \
		echo "sweep accounting declared outside storage.SweepReport:"; echo "$$bad"; exit 1; fi; \
	calls=$$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs awk '/^func /{f=FILENAME": "$$0} /\.sweep\(/{print f}'); \
	if [ "$$(echo "$$calls" | grep -c .)" -ne 1 ] || ! echo "$$calls" | grep -q '^internal/ckpt/pins.go: func (s \*pinScope) collect('; then \
		echo "sweeper.sweep called outside the collection driver (pins.go collect):"; echo "$$calls"; exit 1; fi

# Lazy capture is the only asynchronous save: NewLazyAsyncSaver is the one
# saver constructor, and AsyncSaver owns its capture workers, spools and
# ordered writes directly. A second constructor is a second async mode,
# free to drift from the first (the deleted snapshot mode was exercised by
# tests only, and the lazy mode's Save/Wait race hid beside it); a .Clone(
# call in internal/ckpt is a deep copy of the live state — a snapshot stall
# of O(model size) where capture costs O(changed layers).
one-saver:
	@bad=$$(grep -rnE --include='*.go' --exclude='*_test.go' \
		'^func (\([^)]*\) )?New[A-Za-z]*Saver\(|^func [^{]*\) \*(ckpt\.)?AsyncSaver \{' internal cmd *.go \
		| grep -v 'func NewLazyAsyncSaver('); \
	if [ -n "$$bad" ]; then \
		echo "a saver constructor other than NewLazyAsyncSaver:"; echo "$$bad"; exit 1; fi; \
	bad=$$(grep -rn --include='*.go' --exclude='*_test.go' '\.Clone(' internal/ckpt); \
	if [ -n "$$bad" ]; then \
		echo "a deep copy of live state in internal/ckpt:"; echo "$$bad"; exit 1; fi

# Merge, blend and reshard are feeders of the write stage: they fill a
# ckpt.Output — payloads by reference or computed — and commit it there. A
# commit transaction, a container writer, a Publish or a content-addressing
# pass of their own outside internal/ckpt is a second checkpoint writer, free
# to drift from the stage (a CRC carried forward unchecked, a blob the store
# already holds re-read and re-hashed).
one-output:
	@bad=$$(grep -rnE --include='*.go' --exclude='*_test.go' \
		'ckpt\.Begin\(|NewLTSFWriter\(|NewShardFileWriter\(|\.Publish\(|contentAddress' internal cmd *.go \
		| grep -v '^internal/ckpt/'); \
	if [ -n "$$bad" ]; then \
		echo "a checkpoint writer outside the write stage (internal/ckpt):"; echo "$$bad"; exit 1; fi

# A coded blob is read through the one chunk-streaming decoder (codec.go:
# openLevel → openChain → chainReader), a chunk at a time, every xor ancestor
# folded into the caller's buffer. An io.ReadAll in the blob store or the
# codec is a whole-blob read back in, the deleted whole-chain resolvers are
# that read under their old names, and a second caller of decodeChunk is a
# second decoder, free to skip the first's size, depth and EOF checks.
one-decoder:
	@bad=$$(grep -n 'io\.ReadAll(' internal/storage/blobstore.go internal/storage/codec.go); \
	if [ -n "$$bad" ]; then \
		echo "a whole-blob io.ReadAll in the blob store or the codec:"; echo "$$bad"; exit 1; fi; \
	bad=$$(grep -rnwE --include='*.go' 'resolveLocal|decodeContainerBlob|readDecoded' internal cmd *.go); \
	if [ -n "$$bad" ]; then \
		echo "a whole-chain blob resolver:"; echo "$$bad"; exit 1; fi; \
	calls=$$(grep -rn --include='*.go' --exclude='*_test.go' 'decodeChunk(' internal cmd *.go | grep -v 'func decodeChunk('); \
	if [ "$$(echo "$$calls" | grep -c .)" -gt 1 ]; then \
		echo "decodeChunk called from more than one place:"; echo "$$calls"; exit 1; fi

# A dedup save's backend requests are a function of the payloads that
# changed, not of the payloads that exist: the counting-backend test that
# holds config reads, parent-manifest reads, blob probes and blob GETs to
# the table in DESIGN.md "The write stage". The read side: a restore's GETs
# are its payloads plus a constant, several in flight and never more than the
# load driver's width, a plain rank one stream, and the bytes the driver
# admits at once stay under its gate. Maintenance: one retention pass on a
# latency-shaped object store issues a fixed count of requests per kind.
request-budget:
	$(GO) test ./internal/ckpt -run '^(TestDedupSaveRequestBudget|TestRestoreRequestBudget|TestLoadGateBoundsBytesInFlight|TestRetainRequestBudget)$$'
	$(GO) test ./internal/tailor -run '^TestTailorByReferenceRequestBudget$$'

# The read stage is concurrent: its tests, and the resume paths above it, run
# under the race detector on every push.
race-read:
	$(GO) test -race -run 'Restore|Resume|ReadStage|RequestBudget|LoadGate' ./internal/ckpt ./internal/train

# The maintenance phases are concurrent too: the sweep driver's tests (the
# same root swept twice reporting the same, TestSweepReportDeterministic,
# among them), retention, the policies racing live savers and the dry-run
# equality (in the root package) run under the race detector on every push.
race-maint:
	$(GO) test -race -run 'Sweep|RetainKeepLast|RetainPinsInFlight|HubGCRacing|ShardedGCRacing|DryRunMatchesRealRun|ForEach' . ./internal/ckpt ./internal/storage ./internal/parallel

# Non-test Go lines per package, bench/ excluded — the number ROADMAP's
# simplicity gate is stated in.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' \
		-exec wc -l {} + | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); s[d] += $$1; t += $$1 } \
		END { for (d in s) printf "%7d %s\n", s[d], d; printf "%7d total\n", t }' | sort -k2

# CI is split into two lanes so the workflow can run them as parallel
# jobs: ci-fast is the quick correctness gate (a couple of minutes),
# ci-slow carries the race detector, smokes, perf floors and coverage.
# `ci` stays the union for local one-shot verification.
ci-fast: fmt-check vet one-journal one-pins one-store one-reader one-publish one-catalog one-report one-saver one-output one-decoder request-budget build test race-read race-maint objstore

ci-slow: race fuzz-smoke doctor-smoke bench-vet bench-check cover

ci: ci-fast ci-slow

# Coverage over the internal packages: per-function table, an HTML report
# (cover.html) and a hard floor so coverage cannot silently regress. The
# floor sits below the current total (~85%) to absorb noise, not drift.
COVER_FLOOR ?= 80
cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	$(GO) tool cover -func=cover.out | tail -1
	$(GO) tool cover -html=cover.out -o cover.html
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { \
		if (t+0 < f+0) { printf "coverage %.1f%% is below the %s%% floor\n", t, f; exit 1 } \
		printf "coverage %.1f%% (floor %s%%)\n", t, f }'

# Brief run of every fuzz target (the checked-in testdata/fuzz corpus plus
# ~5s of new coverage each); any reader panic fails the build.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test ./internal/ckpt -run '^$$' -fuzz '^FuzzReadShardFile$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ckpt -run '^$$' -fuzz '^FuzzLTSFReader$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ckpt -run '^$$' -fuzz '^FuzzManifest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage -run '^$$' -fuzz '^FuzzBlobCodec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage -run '^$$' -fuzz '^FuzzXORResolver$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/recipe -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)

# Exercise the doctor exit-code contract end to end: 2 when torn/orphaned
# checkpoint directories are found, 0 after -fix repairs them. The second
# scenario covers the dedup path: a real content-addressed run is seeded
# with a stray blob and a stale ref index (a record deleted out from under
# a committed checkpoint); doctor must exit 2, and -fix must rebuild the
# index from the manifests and exit 0. The third scenario covers the hub
# path: two runs attached to one shared store, a stray blob planted at the
# HUB's objects tree plus one run's namespaced ref journal deleted; doctor
# on that run must exit 2, -fix must rebuild its journal at the hub, and
# the peer run must stay healthy throughout.
doctor-smoke:
	@tmp=$$(mktemp -d); trap "rm -rf $$tmp" EXIT; \
	$(GO) build -o $$tmp/llmtailor ./cmd/llmtailor || exit 1; \
	mkdir -p $$tmp/root/run/checkpoint-10 $$tmp/root/run/checkpoint-20.tmp; \
	echo '{}' > $$tmp/root/run/checkpoint-10/manifest.json; \
	$$tmp/llmtailor doctor -root $$tmp/root -run run > /dev/null; rc=$$?; \
	if [ $$rc -ne 2 ]; then echo "doctor-smoke: want exit 2 on sick root, got $$rc"; exit 1; fi; \
	$$tmp/llmtailor doctor -root $$tmp/root -run run -fix > /dev/null || \
		{ echo "doctor-smoke: -fix failed"; exit 1; }; \
	$$tmp/llmtailor doctor -root $$tmp/root -run run > /dev/null || \
		{ echo "doctor-smoke: root still sick after -fix"; exit 1; }; \
	$(GO) build -o $$tmp/trainsim ./cmd/trainsim || exit 1; \
	$$tmp/trainsim -root $$tmp/root -run drun -model tiny -sim=false -steps 12 -interval 6 -dedup > /dev/null || \
		{ echo "doctor-smoke: dedup trainsim failed"; exit 1; }; \
	mkdir -p $$tmp/root/drun/objects/zz; \
	echo junk > $$tmp/root/drun/objects/zz/not-a-blob; \
	rec=$$(ls $$tmp/root/drun/objects/refs/gen-*.ref | head -1); \
	rm "$$rec"; \
	$$tmp/llmtailor doctor -root $$tmp/root -run drun > /dev/null; rc=$$?; \
	if [ $$rc -ne 2 ]; then echo "doctor-smoke: want exit 2 on stale ref index, got $$rc"; exit 1; fi; \
	$$tmp/llmtailor doctor -root $$tmp/root -run drun -fix > /dev/null || \
		{ echo "doctor-smoke: dedup -fix failed"; exit 1; }; \
	$$tmp/llmtailor doctor -root $$tmp/root -run drun > /dev/null || \
		{ echo "doctor-smoke: dedup root still sick after -fix"; exit 1; }; \
	ls $$tmp/root/drun/objects/refs/gen-*.ref > /dev/null || \
		{ echo "doctor-smoke: -fix did not rebuild the ref index"; exit 1; }; \
	$$tmp/llmtailor hub init -root $$tmp/root -hub hub -shards 4 > /dev/null || \
		{ echo "doctor-smoke: hub init failed"; exit 1; }; \
	for r in ha hb; do \
		$$tmp/llmtailor hub attach -root $$tmp/root -hub hub -run $$r > /dev/null || \
			{ echo "doctor-smoke: hub attach $$r failed"; exit 1; }; \
		$$tmp/trainsim -root $$tmp/root -run $$r -model tiny -sim=false -steps 12 -interval 6 -dedup -hub hub > /dev/null || \
			{ echo "doctor-smoke: hub trainsim $$r failed"; exit 1; }; \
	done; \
	mkdir -p $$tmp/root/hub/objects/zz; \
	echo junk > $$tmp/root/hub/objects/zz/not-a-blob; \
	rm $$tmp/root/hub/objects/refs/ha/gen-*.ref; \
	$$tmp/llmtailor doctor -root $$tmp/root -run ha > /dev/null; rc=$$?; \
	if [ $$rc -ne 2 ]; then echo "doctor-smoke: want exit 2 on stale hub ref journal, got $$rc"; exit 1; fi; \
	$$tmp/llmtailor doctor -root $$tmp/root -run ha -fix > /dev/null || \
		{ echo "doctor-smoke: hub -fix failed"; exit 1; }; \
	$$tmp/llmtailor doctor -root $$tmp/root -run ha > /dev/null || \
		{ echo "doctor-smoke: hub run still sick after -fix"; exit 1; }; \
	$$tmp/llmtailor doctor -root $$tmp/root -run hb > /dev/null || \
		{ echo "doctor-smoke: peer run hb sick after ha repair"; exit 1; }; \
	ls $$tmp/root/hub/objects/refs/ha/gen-*.ref > /dev/null || \
		{ echo "doctor-smoke: -fix did not rebuild the namespaced ref journal"; exit 1; }; \
	echo "doctor-smoke: OK"

# Object-store lane: the cross-backend conformance matrix, the object
# store's own suites (atomic PUTs, compose, multipart, retry metering),
# the no-rename commit-protocol crash explorations (save and elastic
# reshard) and the reshard round-trip — re-run with injected
# per-request latency so the remote-store timing paths (parallel part
# uploads overlapping the link, retry backoff on the sim clock) execute
# with real sleeps rather than degenerate zero-latency ones.
OBJSTORE_LAT_US ?= 200
objstore:
	OBJSTORE_LAT_US=$(OBJSTORE_LAT_US) $(GO) test ./internal/storage \
		-run 'TestBackendConformance|TestRenameSupportedProbe|TestObjStore|TestMultipart|TestRetry|TestMeterCharges'
	$(GO) test ./internal/ckpt -run 'TestCrashPointExplorationObjStoreSave|TestShardedObjStoreRoundTrip'
	$(GO) test ./internal/reshard -run 'TestReshardObjStore|TestCrashPointExplorationReshardObjStore'
	$(GO) test -race ./internal/ckpt -run 'TestShardedGCRacingConcurrentSave'

# Quick benchmark sweep of the streaming merge hot path.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMerge' -benchmem .

# bench/ is a nested module the root `go build ./...` and `go test ./...`
# never see, yet every PR must keep it compiling against the signatures it
# imports (BENCHMARK.json runs it from source).
bench-vet:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# One iteration of every benchmark in the repo: benchmarks compile and run
# on each CI pass instead of bit-rotting between perf PRs. Perf-record
# files are NOT refreshed (that needs BENCH_RECORD=1, see bench-record).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x -timeout 30m ./...

# Perf floors, both live and recorded: bench-smoke runs every benchmark
# once (the key benchmarks assert their floors inline — raw merge >= 2x,
# dedup delta >= 5x, generational gc >= 5x, lazy-capture stall >= 5x,
# multipart object streaming >= 2x), then benchcheck verifies the
# committed BENCH_*.json records still clear the same floors, so a stale
# or hand-edited perf record fails CI instead of silently shifting the
# baseline future PRs diff against.
bench-check: bench-smoke
	$(GO) run ./cmd/benchcheck

# Refresh the committed BENCH_*.json perf records (the baselines future
# PRs diff against) with stable measurements.
bench-record:
	BENCH_RECORD=1 $(GO) test -run '^$$' -bench 'BenchmarkMergeFullStreamed|BenchmarkMergeRawVsDecode' -benchtime=5x .
	BENCH_RECORD=1 $(GO) test -run '^$$' -bench 'BenchmarkIncrementalSave' -benchtime=3x .
	BENCH_RECORD=1 $(GO) test -run '^$$' -bench 'BenchmarkGCIncremental' -benchtime=3x .
	BENCH_RECORD=1 $(GO) test -run '^$$' -bench 'BenchmarkCaptureStall' -benchtime=3x .
	BENCH_RECORD=1 $(GO) test -run '^$$' -bench 'BenchmarkObjStoreMultipart' -benchtime=10x .
	BENCH_RECORD=1 $(GO) test -run '^$$' -bench 'BenchmarkCompressedSave' -benchtime=3x .
	BENCH_RECORD=1 $(GO) test -run '^$$' -bench 'BenchmarkReshardRawVsDecode' -benchtime=5x .
	BENCH_RECORD=1 $(GO) test -run '^$$' -bench 'BenchmarkHubCrossRunDedup' -benchtime=3x .
	@cat BENCH_merge.json BENCH_merge_raw.json BENCH_delta.json BENCH_gc.json BENCH_stall.json BENCH_objstore.json BENCH_compress.json BENCH_reshard.json BENCH_hub.json

clean:
	rm -f llmtailor trainsim paperbench ckptstat cover.out cover.html
