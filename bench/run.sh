#!/usr/bin/env bash
# The benchmark's one command: build lowlat-bench from source inside the
# checkout, then run it with whatever arguments were given.
#
#   bash bench/run.sh --workload serve_hot --seed 7 --seconds 8 --trace 0
#   bash bench/run.sh                      # the whole suite
#
# Everything the Go toolchain writes — build cache, temporary files, the
# two binaries — stays under .bench_build/ in the checkout, so a run
# reads and writes nothing outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local

# bench/ is a module of its own (bench/go.mod) that replaces the module
# `lowlat` with the checkout around it; without that checkout the build
# fails here and nothing is printed.
(cd "$root/bench" && go build -o "$build/bin/lowlat-bench" ./cmd/lowlat-bench)
cd "$root"
exec "$build/bin/lowlat-bench" "$@"
