#!/usr/bin/env bash
# Builds the PPGNN benchmark from the sources of this checkout and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload paper-sanitized --seed 1 --seconds 10 --trace 0
# Build products and the Go build cache stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/ppgnn-bench" .)
exec "$out/ppgnn-bench" "$@"
