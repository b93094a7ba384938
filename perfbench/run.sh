#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the repository root; every argument goes to the benchmark:
#
#   bash perfbench/run.sh --workload gate-cold --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the binary and everything a run writes stay under
# .bench_build/ in the checkout.
set -euo pipefail
out=.bench_build/perfbench
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$PWD/$out/gocache" GOTMPDIR="$PWD/$out/gotmp" GOTOOLCHAIN=local
go build -buildvcs=false -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
