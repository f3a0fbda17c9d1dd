# Tier-1 verification plus the benchmark smokes. `make ci` is what a CI
# workflow should run.

GO ?= go

.PHONY: all build test race race-read race-maint vet fmt-check request-budget loc ci ci-fast ci-slow cover fuzz-smoke doctor-smoke objstore bench-vet bench-smoke clean

all: build test

build:
	$(GO) build ./...

# The whole correctness gate: besides every package's tests, arch_test.go's
# architecture rules (one writer and one reader per checkpoint stage) and
# internal/experiments' paper golden (the tables and figures at quick scale,
# byte for byte) run here.
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

# A dedup save's backend requests are a function of the payloads that
# changed, not of the payloads that exist: the counting-backend test that
# holds config reads, parent-manifest reads, blob probes and blob GETs to
# the table in DESIGN.md "The write stage"; a save writes the files it stages
# before the marker side by side, and the marker after all of them, and a
# VerifyCommit reads the files its marker lists side by side. The read side: a restore's GETs
# are its payloads plus a constant, many in flight and never more than the
# load driver's read depth, at most its width decoded at once, a plain rank
# one stream, the metadata before the first payload GET two waves of
# requests, and the bytes the driver admits at once stay under its gate. Maintenance: one retention pass on a
# latency-shaped object store issues a fixed count of requests per kind, and
# each of its phases keeps several removes in flight, never more than
# storage.RequestWidth.
request-budget:
	$(GO) test ./internal/ckpt -run '^(TestDedupSaveRequestBudget|TestSaveCommitWaves|TestVerifyCommitReadsSideBySide|TestRestoreRequestBudget|TestRestoreDecodeWidth|TestRestoreOpenWaves|TestLoadGateBoundsBytesInFlight|TestRetainRequestBudget|TestMaintenanceConfigReadBudget)$$'
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
# jobs: ci-fast is the correctness gate (tier-1 plus the request budgets, the
# concurrent stages under the race detector and the nested bench/ module,
# the one consumer of the product's exports tier-1 does not compile),
# ci-slow carries the race suite, smokes and coverage. `ci` stays the union
# for local one-shot verification.
ci-fast: fmt-check vet build test request-budget race-read race-maint objstore bench-vet

ci-slow: race fuzz-smoke doctor-smoke bench-smoke cover

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
	$(GO) test ./internal/storage -run '^$$' -fuzz '^FuzzChainFold$$' -fuzztime $(FUZZTIME)
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

# bench/ is a nested module the root `go build ./...` and `go test ./...`
# never see, yet every PR must keep it compiling against the signatures it
# imports (BENCHMARK.json runs it from source).
bench-vet:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# One iteration of every benchmark in the repo (the paper's tables and
# figures, the ablations, BenchmarkAsyncVsSyncSaveStall): benchmarks compile
# and run on each CI pass instead of bit-rotting. The floors that guard a
# mechanism are deterministic counts in `go test ./...`, never timings;
# the lifecycle benchmark is bench/ (BENCHMARK.json).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x -timeout 30m ./...

clean:
	rm -f llmtailor trainsim paperbench ckptstat cover.out cover.html
