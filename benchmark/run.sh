#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source and run it
# with the arguments given, e.g.
#
#   bash benchmark/run.sh                          all five workloads, end to end
#   bash benchmark/run.sh --workload q5-tuple-upa --seed 7 --seconds 10 --trace 1
#
# Everything the build writes (binary, build cache, temporary files) stays in
# .bench_build at the root of the checkout, so a run touches nothing outside
# it. The benchmark is its own module (benchmark/go.mod) that replaces the
# module "repro" with the parent directory.
set -euo pipefail
dir=$(cd "$(dirname "$0")" && pwd)
build=$(dirname "$dir")/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="${GOCACHE:-$build/gocache}" GOTMPDIR="$build/tmp"
go build -C "$dir" -o "$build/upa-benchmark" .
exec "$build/upa-benchmark" "$@"
