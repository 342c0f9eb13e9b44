#!/bin/sh
# The full verification gate, for environments without make:
# build + vet + race-enabled tests (same as `make check`).
#
#   scripts/check.sh          full gate (includes real-socket cluster tests
#                             and the sharded-binary smoke)
#   scripts/check.sh -short   what CI runs: skips the loopback-TCP tests
#                             and the sharded-binary smoke
#   scripts/check.sh -bench   full gate + the throughput regression gates
#                             (reruns the single-group ceiling search, the
#                             sharded aggregate ceiling and the HTTP facade
#                             ceilings and fails on a >10% drop vs the
#                             committed BENCH_PR22.json; wall timing-sensitive,
#                             so not part of the default run)
#   scripts/check.sh -soak    the long mixed-chaos soak only: seeded
#                             transport partitions + a replica kill/rejoin +
#                             a backend error-rate episode + one live
#                             membership change, all under continuous load;
#                             fails on any lost client reply or hash
#                             divergence. DETMT_SOAK_SECS tunes the dwell
#                             time (default 20s; CI's nightly job uses 300).
set -eu
cd "$(dirname "$0")/.."
short=""
bench=""
if [ "${1:-}" = "-short" ]; then
	short="-short"
fi
if [ "${1:-}" = "-bench" ]; then
	bench="yes"
fi
if [ "${1:-}" = "-soak" ]; then
	echo "check.sh: mixed-chaos soak (DETMT_SOAK_SECS=${DETMT_SOAK_SECS:-20})" >&2
	DETMT_SOAK=1 exec go test -race -count=1 -run 'TestMixedChaosSoak' -timeout 30m -v ./internal/server/
fi
go build ./...
go vet ./...
# staticcheck is optional locally (it is not vendored and the gate must
# not install anything); CI installs and runs it unconditionally.
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "check.sh: staticcheck not installed, skipping (CI runs it)" >&2
fi
# -shuffle=on randomises test order to flush hidden inter-test state
# (go prints the seed on failure for reproduction with -shuffle=SEED).
# The full (non-short) gate includes the class-parallel chaos soaks:
# harness TestEarlySchedChaosSoak and the real-socket
# TestClusterEarlySchedChaos in internal/server.
go test -race -shuffle=on $short ./...
# The scheduler determinism property, 20 counts under -race whatever
# $short says (same line as the CI step of that name).
go test -race -count=20 -run 'TestSchedulersAreDeterministic|TestOneLaneIsSerial|TestSchedulersCompleteAllThreads' ./internal/core/
# The arrival-driven sequencer on a virtual clock no timer moves: one
# forward is sequenced at once, arrivals behind a held fan-out leave in one
# frame with the heartbeat last, stamps rise from drain to drain; an idle
# sequencer beats every tick; the sequencer's own member gets a drain less
# than 1µs of virtual time after it; deliveries are clock events in endpoint
# rank order, FIFO, one per quiescent point and dropped by Halt, and on a
# real clock a reply handler has run when put returns; a simulator link
# delivers one Latency after the send, FIFO and by link rank; a stamped slot
# is one clock event; a rejoin tail is scheduled before its horizon opens; a
# passive backup's replay log is pinned entry by entry
# (same lines as the CI step "Sequencing (race, 20 counts)").
go test -race -count=20 -run 'TestTickPolicy|TestIdleHeartbeatEveryTick|TestArrivalDrivenSequencing|TestFollowerIsNotWokenIntoSequencing|TestDrainsAtOneInstantGetIncreasingStamps|TestInjectSchedulesBatchBeforeRaisingHorizon|TestSequencerRunsItsDrainAtOnce|TestEndpointDeliveryOrder|TestRealClockReplyRunsOnCaller|TestMemTransportLinkOrder|TestStampedSlotIsOneClockEvent|TestResumeLiveSchedulesTailBeforeRaisingHorizon' ./internal/gcs/
go test -race -count=20 -run 'TestLogAndFailoverDataPinned' ./internal/replica/
# The paced clock: a follower is gated by the horizon and anchored on the
# fastest horizon it has seen, a leader ignores horizons, ScheduleAt runs
# callbacks at one (instant, rank) in call order and one at or before now
# once every runnable goroutine has blocked (TestScheduleAtFIFOAtOneKey,
# matched by the TestScheduleAt pattern), ScheduleSlot ranks callbacks at
# one (instant, rank) by slot, and a real-socket cluster still
# reaches the pinned ConsistencyHash (same lines as the CI step "Paced
# clock (race, 20 counts)").
go test -race -count=20 -run 'TestPaced|TestFollower|TestScheduleAt|TestScheduleSlot|TestHorizon' ./internal/vclock/
go test -race -count=5 -run 'TestReconnectDeterminism|TestGroupCommitScheduleTransparency' ./internal/server/
# View changes: the seeded simulator (300 seeds a count under -race; 10 000
# run in tier-1), the tables of the view machine's decision rules, the
# quorum table and the takeover and straggler unit tests (same line as
# the CI step "View changes (race, 20 counts)").
go test -race -count=20 -run 'TestViewSim|TestRule|TestTakeoverQuorum|TestStaleViewFrameRevivesStraggler|TestSequencerTakeover|TestClientRetransmissionAfterTakeover' ./internal/gcs/ -viewsim.seeds=300
# The steady state: live heap, dedup sets and retained logs after 40 000
# requests are where 10 000 left them; the bounded FIFO and the interval set
# answer what the shifted slice and the map did; no scheduler queue pins a
# thread that left it; checkpoints keep coming (same line as the CI step
# "Steady state (race, 5 counts)").
go test -race -count=5 -run 'TestSteadyStateIsFlat|TestCheckpointsKeepComing|TestRunsMatchMap|TestBufferMatchesShiftedSlice|TestDroppedElementsAreCollectable|TestQueuesDoNotPinFinishedThreads|TestDedupAllocBudget' ./internal/replica/ ./internal/ids/ ./internal/ring/ ./internal/core/ ./internal/gcs/
# What a simulated request allocates: PDS, LSA and MAT within 10 % of
# their measured bytes and objects per request, and a finished RunSim
# leaves no goroutine and no live heap behind; the interpreter's name
# resolution and the golden over every shipped object; not under -race
# (same line as the CI step "Simulator allocation budget").
go test -count=1 -run 'TestSimAllocBudget|TestRunSimLeavesNothingBehind|TestNameResolution|TestShippedObjectsGolden' -v ./internal/harness/ ./internal/lang/
# The trace reads back exactly what it recorded; a reused parker carries
# nothing of its previous owner and is released only after done; the
# compact sequenced log and the LSA fan-out (same line as the CI step
# "Trace storage and parker reuse").
go test -race -count=1 -run 'TestTraceStorageRoundTrip|TestChunksNeverRegrow|TestParkerReuse|TestThreadKeepsItsParkerUntilDone|TestSequencedTailRebuildsEnvelopes|TestSendDirectToPeers' -v ./internal/trace/ ./internal/vclock/ ./internal/core/ ./internal/gcs/
# The classification goldens, the classifier's soundness property, the
# interference table and the detmt-analyze reports whatever $short says,
# then ten seconds of the interval fuzz target (same lines as the CI step
# "Classification goldens and interval fuzz").
go test -count=1 -run 'Golden|TestClassDisjointnessProperty|TestMutexSets|TestInterference' ./internal/earlysched/ ./internal/analysis/ ./cmd/detmt-analyze/
go test -run '^$' -fuzz FuzzIntervalSound -fuzztime 10s ./internal/analysis/
# The v8 wire goldens and the recovery fetches over a real socket, then ten
# seconds of every decoder fuzz target and of the two container models (same
# lines as the CI steps "Wire v8 golden frames and recovery fetches" and
# "Decoder and model fuzz"), the DSL parser's included (whole objects are
# slow to minimise, so a new input gets 2 s of it). The two delivery tests
# park a receiver inside deliver: an ack must wait for it, and a second
# inbound connection of the same sender must not overtake it; 20 counts
# under -race vary the overlap.
go test -race -count=1 -run 'TestGoldenBytes|TestGoldenHelloFrames|TestEnvelopeRoundTrip|TestFrameRoundTrip|TestTCPControl' ./internal/wire/
go test -race -count=20 -run 'TestTCPAckFollowsDelivery|TestTCPOverlappingInboundKeepsOrder' ./internal/wire/
go test -race -count=1 -run 'TestRecoveryFetches|TestCloseTail' ./internal/server/
go test -run '^$' -fuzz FuzzDecodeEnvelope -fuzztime 10s ./internal/wire/
go test -run '^$' -fuzz FuzzFrameBodies -fuzztime 10s ./internal/wire/
go test -run '^$' -fuzz FuzzControlReply -fuzztime 10s ./internal/wire/
go test -run '^$' -fuzz FuzzDecode -fuzztime 10s ./internal/recovery/
go test -run '^$' -fuzz FuzzDecode -fuzztime 10s ./internal/shard/
go test -run '^$' -fuzz FuzzFrames -fuzztime 10s ./internal/backend/
go test -run '^$' -fuzz FuzzParse -fuzztime 10s -fuzzminimizetime 2s ./internal/lang/
go test -run '^$' -fuzz FuzzBufferMatchesShiftedSlice -fuzztime 10s ./internal/ring/
go test -run '^$' -fuzz FuzzRunsMatchMap -fuzztime 10s ./internal/ids/
# bench/ is a module of its own (replace detmt => ../): build, vet and test
# it too (a couple of seconds, no sockets without DETMT_BENCH_SMOKE), so a
# change that breaks the benchmark's frozen surface fails here.
go build -C bench -o /dev/null ./... && go vet -C bench ./... && go test -C bench ./...
if [ -z "$short" ]; then
	# Sharded binary smoke: the Go tests exercise the library; this drives
	# the shipped binaries end to end the way the README walkthrough does —
	# one 2-shard multi-tenant server with cross-shard nested calls, one
	# ring-routed load generator, fail on divergence or request errors.
	echo "check.sh: sharded binary smoke (detmt-server -shards 2 -xshard + detmt-load -shards)" >&2
	tmpdir="$(mktemp -d)"
	go build -o "$tmpdir/detmt-server" ./cmd/detmt-server
	go build -o "$tmpdir/detmt-load" ./cmd/detmt-load
	"$tmpdir/detmt-server" -id 1 -listen 127.0.0.1:7461 -shards 2 -xshard \
		-data "$tmpdir/epochs" >"$tmpdir/server.log" 2>&1 &
	srv=$!
	trap 'kill "$srv" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT
	sleep 1
	if ! "$tmpdir/detmt-load" -shards -servers 1=127.0.0.1:7461 -clients 2 -requests 5; then
		echo "check.sh: sharded smoke FAILED; server log:" >&2
		cat "$tmpdir/server.log" >&2
		exit 1
	fi
	kill "$srv" 2>/dev/null || true
	wait "$srv" 2>/dev/null || true
	rm -rf "$tmpdir"
	trap - EXIT
	# Gateway smoke: boot a 2-shard KV cluster, front it with
	# detmt-gateway, and drive one tokenized PUT/GET round-trip plus the
	# health endpoint over plain HTTP — the README walkthrough, scripted.
	echo "check.sh: gateway smoke (detmt-server -shards 2 -kv + detmt-gateway)" >&2
	tmpdir="$(mktemp -d)"
	go build -o "$tmpdir/detmt-server" ./cmd/detmt-server
	go build -o "$tmpdir/detmt-gateway" ./cmd/detmt-gateway
	"$tmpdir/detmt-server" -id 1 -listen 127.0.0.1:7471 -shards 2 -kv \
		-data "$tmpdir/epochs" >"$tmpdir/server.log" 2>&1 &
	srv=$!
	"$tmpdir/detmt-gateway" -listen 127.0.0.1:7479 -servers 127.0.0.1:7471 \
		>"$tmpdir/gateway.log" 2>&1 &
	gwp=$!
	trap 'kill "$srv" "$gwp" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT
	ok=""
	for i in $(seq 1 40); do
		if curl -fsS http://127.0.0.1:7479/healthz >/dev/null 2>&1; then
			ok=yes
			break
		fi
		sleep 0.25
	done
	put="$(curl -fsS -X PUT -d '{"value":41}' 'http://127.0.0.1:7479/kv/7?token=smoke' 2>/dev/null || true)"
	got="$(curl -fsS http://127.0.0.1:7479/kv/7 2>/dev/null || true)"
	if [ -z "$ok" ] || [ "${got#*\"value\":41}" = "$got" ]; then
		echo "check.sh: gateway smoke FAILED (healthz=$ok put=$put get=$got); logs:" >&2
		cat "$tmpdir/server.log" "$tmpdir/gateway.log" >&2
		exit 1
	fi
	echo "check.sh: gateway smoke OK ($got)" >&2
	kill "$srv" "$gwp" 2>/dev/null || true
	wait "$srv" "$gwp" 2>/dev/null || true
	rm -rf "$tmpdir"
	trap - EXIT
fi
if [ -n "$bench" ]; then
	scripts/bench.sh -gate
fi
