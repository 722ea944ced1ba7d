#!/usr/bin/env bash
# Builds the benchmark and the mapitd daemon from this checkout, then runs
# the benchmark from the repository root with the given arguments:
#
#   bash bench/run.sh --workload batch --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, the generated fixtures and
# the span files of traced runs.
set -euo pipefail

cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOMAXPROCS=2

go build -o "$out/mapitd" ./cmd/mapitd
go -C bench build -o "$out/mapit-bench" .
exec "$out/mapit-bench" "$@"
