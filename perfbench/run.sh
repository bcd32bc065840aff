#!/usr/bin/env bash
# Builds the benchmark harness and the lambdatuned daemon from the checkout
# this script sits in, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload tune-sweep --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and daemon data dirs all stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
cd "$root/perfbench"
go build -o "$out/bin/perfbench" .
go build -o "$out/bin/lambdatuned" lambdatune/cmd/lambdatuned
cd "$root"
exec "$out/bin/perfbench" -daemon "$out/bin/lambdatuned" -work "$out/run" "$@"
