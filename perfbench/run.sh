#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#   bash perfbench/run.sh --workload detailed --seed 1 --seconds 10 --trace 0
# Run from the root of a checkout. Everything it builds or writes stays in
# .bench_build/ (or $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail
root="$(pwd)"
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off PPROF_TMPDIR="$build/pprof"
(cd "$bench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --root "$root" "$@"
