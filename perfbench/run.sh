#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload lab-stepwise --seed 1 --seconds 15 --trace 0
# Build caches and run artifacts go under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
