#!/usr/bin/env bash
# Builds perfbench from source and runs it from the root of the checkout:
#
#   bash perfbench/run.sh --workload scan-hot --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, layouts and span files all go under
# .bench_build in the checkout. Build output goes to stderr so the result
# stays the last line of stdout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"
