#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload load|read|serve --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Build outputs and the Go caches stay
# inside the checkout, under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -root "$root" "$@"
