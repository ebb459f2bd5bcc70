#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository
# root. Everything the build and the run write stays under
# .bench_build/ in the current directory.
#
#   bash perfbench/run.sh --workload hello-mix --seed 1 --seconds 10 --trace 0
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/tmp" "$@"
