#!/bin/sh
# Steady-state drill: is what a server does and holds per request
# independent of how many requests it has served?
#
# Boots one 3-member loopback cluster in the shape of the benchmark's
# tcp3-fig1 workload (-scheduler MAT -iterations 1 -mutexes 4096), drives it
# with detmt-load -rate R for S seconds, and samples every server's CPU
# (utime+stime of /proc/<pid>/stat, in clock ticks) and resident set
# (/proc/<pid>/statm) once a second. Prints the series, then per server the
# spread of CPU per second from t=5 s to the last full second of load (one
# second is 15-40 ticks, so a single tick is 3-6 %: the 5 s means beside it
# are the steadier reading)
# and the resident set at S/2 and S, the load generator's report, and the
# servers' shutdown lines.
#
#   scripts/steady.sh                   1000 req/s for 40 s
#   scripts/steady.sh 4000 12           4000 req/s for 12 s
#   STEADY_BIN=dir scripts/steady.sh    run dir/detmt-server and dir/detmt-load
#                                       (binaries of another commit) instead
#                                       of building this checkout's
#   STEADY_CKPT=500 scripts/steady.sh   servers also get -checkpoint-every 500
#                                       -data <tmp>/dN: last-ckpt in the
#                                       shutdown lines must follow the load
#   STEADY_PORT=7481                    first of the three ports used
#
# A flat server: CPU per second within +-15 % of its own mean, resident set
# at S within 5 % of its value at S/2. A log trimmed by shifting shows as a
# CPU step once 16 384 slots are delivered (t = 14-16 s at 1000 req/s);
# a table that grows one entry per request as a resident set that never
# levels off. Linux only (/proc).
set -eu
cd "$(dirname "$0")/.."
rate="${1:-1000}"
secs="${2:-40}"
port="${STEADY_PORT:-7481}"
tmp="$(mktemp -d)"
bin="${STEADY_BIN:-}"
if [ -z "$bin" ]; then
	bin="$tmp/bin"
	go build -o "$bin/" ./cmd/detmt-server ./cmd/detmt-load
fi
pids=""
trap 'kill $pids 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$tmp"' EXIT

a1="127.0.0.1:$port"
a2="127.0.0.1:$((port + 1))"
a3="127.0.0.1:$((port + 2))"
boot() { # id listen peers
	extra=""
	if [ -n "${STEADY_CKPT:-}" ]; then
		extra="-checkpoint-every $STEADY_CKPT -data $tmp/d$1"
	fi
	# shellcheck disable=SC2086
	"$bin/detmt-server" -id "$1" -listen "$2" -peers "$3" -detect-timeout 3s \
		-scheduler MAT -iterations 1 -mutexes 4096 $extra >"$tmp/s$1.log" 2>&1 &
	pids="$pids $!"
	eval "pid$1=$!"
}
# Followers first, the view-0 sequencer last: the benchmark's boot order.
boot 2 "$a2" "1=$a1,3=$a3"
boot 3 "$a3" "1=$a1,2=$a2"
sleep 0.3
boot 1 "$a1" "2=$a2,3=$a3"
sleep 0.7

"$bin/detmt-load" -servers "1=$a1,2=$a2,3=$a3" -clients 16 -iterations 1 -mutexes 4096 \
	-rate "$rate" -duration "${secs}s" -warmup 0s -timeout "$((secs + 60))s" >"$tmp/load.log" 2>&1 &
load=$!

ticks() { awk '{print $14 + $15}' "/proc/$1/stat"; }
rsskb() { awk -v p="$(getconf PAGESIZE)" '{print $2 * p / 1024}' "/proc/$1/statm"; }
# shellcheck disable=SC2154
{
	printf '%4s %6s %6s %6s %9s %9s %9s\n' t cpu1 cpu2 cpu3 rss1_mb rss2_mb rss3_mb
	c1=$(ticks "$pid1") c2=$(ticks "$pid2") c3=$(ticks "$pid3")
	t=0
	while [ "$t" -lt "$secs" ]; do
		sleep 1
		t=$((t + 1))
		n1=$(ticks "$pid1") n2=$(ticks "$pid2") n3=$(ticks "$pid3")
		echo "$t $((n1 - c1)) $((n2 - c2)) $((n3 - c3))" \
			"$(rsskb "$pid1") $(rsskb "$pid2") $(rsskb "$pid3")" |
			awk '{printf "%4d %6d %6d %6d %9.1f %9.1f %9.1f\n", $1, $2, $3, $4, $5/1024, $6/1024, $7/1024}'
		c1=$n1 c2=$n2 c3=$n3
	done
} | tee "$tmp/series.txt"

echo
awk -v half="$((secs / 2))" -v end="$secs" 'NR > 1 {
	for (i = 1; i <= 3; i++) {
		if ($1 >= 5 && $1 < end) { c = $(i + 1); sum[i] += c; n[i]++
			if (n[i] == 1 || c < lo[i]) lo[i] = c
			if (n[i] == 1 || c > hi[i]) hi[i] = c }
		if ($1 == half) mid[i] = $(i + 4)
		if ($1 == end) last[i] = $(i + 4)
		if ($1 < end) { w = int(($1 - 1) / 5); five[i, w] += $(i + 1); secs5[i, w]++; windows = w }
	}
} END {
	for (i = 1; i <= 3; i++) {
		m = sum[i] / n[i]
		printf "server %d (%s): cpu ticks/s, t=5 to the last full second: mean %.1f, min %d (%+.0f%%), max %d (%+.0f%%); rss %.1f MB at t=%d, %.1f MB at t=%d (%+.1f%%)\n",
			i, i == 1 ? "sequencer" : "follower", m, lo[i], (lo[i] - m) / m * 100, hi[i], (hi[i] - m) / m * 100,
			mid[i], half, last[i], end, (last[i] - mid[i]) / mid[i] * 100
		printf "  cpu ticks/s, 5 s means:"
		for (w = 0; w <= windows; w++) printf " %.1f", five[i, w] / secs5[i, w]
		printf "\n"
	}
}' "$tmp/series.txt"

echo
status=0
wait "$load" || status=$?
cat "$tmp/load.log"
# shellcheck disable=SC2086
kill $pids 2>/dev/null || true
wait 2>/dev/null || true
echo
grep -h "shutting down" "$tmp"/s1.log "$tmp"/s2.log "$tmp"/s3.log || true
exit "$status"
