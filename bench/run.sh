#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file the
# build and the run write inside the checkout (.bench_build, bench/out).
# Equivalent to `go run ./bench "$@"` from the repository root, minus the
# writes to the user's Go build cache.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
# -buildvcs=false: a checkout nested in a foreign git directory must not fail the build.
go build -buildvcs=false -o "$build/ncg-bench" ./bench
exec "$build/ncg-bench" "$@"
