#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it, passing its
# arguments through. Run it from the repository root, e.g.
#
#   bash e2ebench/run.sh --workload cold-paper --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the binary and every file the benchmark writes
# stay under .bench_build/ in the current directory.
set -euo pipefail
build=.bench_build
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$PWD/$build/gocache" GOTMPDIR="$PWD/$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/e2ebench" ./e2ebench
exec "$build/e2ebench" -workdir "$build/work" "$@"
