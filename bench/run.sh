#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write (Go build cache, temp files, OS-backend data) stays under
# .bench_build in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off

cold=0
[ -d "$GOCACHE" ] || cold=1
(cd "$here" && go build -o "$build/llmtailor-bench" .)
# A cold build leaves a few hundred MB of build cache dirty; flush it now so
# its writeback does not compete with the first runs' fsyncs.
[ "$cold" = 0 ] || sync
exec "$build/llmtailor-bench" "$@"
