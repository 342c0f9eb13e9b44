#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash bench/run.sh --workload tcp3-fig1 --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, binaries) and everything
# the benchmark writes (logs, span logs) stays under .bench_build/ in the
# checkout. Fails, without printing a result, where the program's source is
# absent.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$root/.bench_build/bin/detmt-perfbench" .
exec "$root/.bench_build/bin/detmt-perfbench" "$@"
