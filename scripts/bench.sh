#!/bin/sh
# Hot-path benchmark driver.
#
#   scripts/bench.sh [out.json]        run the hotpath experiment, write JSON
#   scripts/bench.sh -earlysched [out] run the earlysched experiment instead
#   scripts/bench.sh -openloop [out]   open-loop rate grid + ceiling (E15, real sockets)
#   scripts/bench.sh -ceiling [out]    sequencer ceiling search only (real sockets)
#   scripts/bench.sh -shards [out]     sharded aggregate-ceiling ladder (E16,
#                                      1/2/4-shard multi-tenant processes)
#   scripts/bench.sh -http [out]       HTTP facade overhead (E17: gateway vs
#                                      direct ceiling over the KV object)
#   scripts/bench.sh -gate [baseline]  rerun the single-group ceiling, the
#                                      sharded aggregate ceiling and the facade
#                                      ceilings; fail on a >10% drop vs the
#                                      committed baseline (default
#                                      BENCH_PR22.json; metrics the baseline
#                                      does not carry are not gated)
#   scripts/bench.sh -micro            also run the Benchmark* microbenchmarks
#   scripts/bench.sh -compare A B      diff the Metrics of two JSON outputs
#
# The JSON output is `detmt-bench -experiment hotpath -json` (an array of
# harness results whose Metrics map carries the numbers); BENCH_PR*.json
# files in the repo root are committed snapshots of it. The -compare mode
# is a benchstat-style before/after table over those Metrics.
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" = "-compare" ]; then
    [ $# -eq 3 ] || { echo "usage: scripts/bench.sh -compare before.json after.json" >&2; exit 2; }
    exec go run ./cmd/detmt-benchdiff "$2" "$3"
fi

if [ "${1:-}" = "-earlysched" ]; then
    out="${2:-BENCH_EARLYSCHED.json}"
    go run ./cmd/detmt-bench -experiment earlysched -json > "$out"
    echo "wrote $out" >&2
    exit 0
fi

if [ "${1:-}" = "-openloop" ]; then
    # The committed BENCH_PR14.json, BENCH_PR21.json and BENCH_PR22.json
    # snapshots are this plus the sharded ladder and the HTTP facade comparison:
    # detmt-bench -experiment openloop,ceiling,sharded,kvfacade.
    out="${2:-BENCH_OPENLOOP.json}"
    go run ./cmd/detmt-bench -experiment openloop,ceiling -json > "$out"
    echo "wrote $out" >&2
    exit 0
fi

if [ "${1:-}" = "-ceiling" ]; then
    out="${2:-BENCH_CEILING.json}"
    go run ./cmd/detmt-bench -experiment ceiling -json > "$out"
    echo "wrote $out" >&2
    exit 0
fi

if [ "${1:-}" = "-shards" ]; then
    out="${2:-BENCH_SHARDED.json}"
    go run ./cmd/detmt-bench -experiment sharded -json > "$out"
    echo "wrote $out" >&2
    exit 0
fi

if [ "${1:-}" = "-http" ]; then
    out="${2:-BENCH_KVFACADE.json}"
    go run ./cmd/detmt-bench -experiment kvfacade -json > "$out"
    echo "wrote $out" >&2
    exit 0
fi

if [ "${1:-}" = "-gate" ]; then
    baseline="${2:-BENCH_PR22.json}"
    [ -f "$baseline" ] || { echo "bench.sh: baseline $baseline not found" >&2; exit 1; }
    tmp="$(mktemp)"
    trap 'rm -f "$tmp"' EXIT
    # Only gate metrics the baseline actually carries: older snapshots
    # predate the sharded and facade experiments, and a gate on a
    # missing key fails by design.
    keys="ceiling/ceiling_rps"
    experiments="ceiling"
    if grep -q aggregate_ceiling_rps "$baseline"; then
        keys="$keys,sharded_ceiling/aggregate_ceiling_rps"
        experiments="$experiments,sharded"
    fi
    if grep -q gateway_ceiling_rps "$baseline"; then
        keys="$keys,kv_facade/direct_ceiling_rps,kv_facade/gateway_ceiling_rps"
        experiments="$experiments,kvfacade"
    fi
    go run ./cmd/detmt-bench -experiment "$experiments" -json > "$tmp"
    exec go run ./cmd/detmt-benchdiff -gate "$keys" -max-drop 10 "$baseline" "$tmp"
fi

if [ "${1:-}" = "-micro" ]; then
    exec go test -run xxx -bench 'BenchmarkHotPath' -benchmem \
        ./internal/trace/ ./internal/core/ ./internal/wire/
fi

out="${1:-BENCH.json}"
go run ./cmd/detmt-bench -experiment hotpath -json > "$out"
echo "wrote $out" >&2
