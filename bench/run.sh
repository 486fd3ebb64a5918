#!/usr/bin/env bash
# Builds the benchmark (bench/, a Go module of its own that uses the
# repository's packages) from source and runs it with the given arguments.
# The binary, the Go build cache and every temporary file go under
# .bench_build/ in the current directory, which must be the repository root:
#
#   bash bench/run.sh --workload hep-budget-tw --seed 1 --seconds 30 --trace 0
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
