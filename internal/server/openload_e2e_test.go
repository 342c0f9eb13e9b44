package server

import (
	"net"
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/replica"
)

// startClusterOpts boots n replica servers like startCluster but lets the
// caller adjust each server's Options before New — the knob the sequencer
// throughput tests need (adaptive tick, group commit, pipeline depth).
func startClusterOpts(t *testing.T, n int, kind replica.SchedulerKind, mod func(*Options)) ([]*Server, map[ids.ReplicaID]string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := map[ids.ReplicaID]string{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[ids.ReplicaID(i+1)] = ln.Addr().String()
	}
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		id := ids.ReplicaID(i + 1)
		peers := map[ids.ReplicaID]string{}
		for pid, addr := range addrs {
			if pid != id {
				peers[pid] = addr
			}
		}
		o := Options{
			ID:            id,
			Listener:      lns[i],
			Peers:         peers,
			Scheduler:     kind,
			Workload:      testWorkload(),
			NestedLatency: 2 * time.Millisecond,
			Tick:          2 * time.Millisecond,
			Budget:        5 * time.Millisecond,
		}
		if mod != nil {
			mod(&o)
		}
		srv, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		t.Cleanup(func() { srv.Close() })
	}
	return servers, addrs
}

// runOpenLoad drives one open-loop run against a fresh cluster and
// asserts the shared invariants: no request errors, full convergence,
// and a non-empty measured window.
func runOpenLoad(t *testing.T, mod func(*Options), o RunOptions) *RunResult {
	t.Helper()
	_, addrs := startClusterOpts(t, 3, replica.KindMAT, mod)
	res, err := loadGroup(addrs, ShardClientOptions{}, o)
	if err != nil {
		t.Fatalf("open-loop run: %v", err)
	}
	if res.Errors > 0 || res.NoSequencer > 0 {
		t.Fatalf("request errors: %d other, %d no-sequencer", res.Errors, res.NoSequencer)
	}
	if res.Timeouts > 0 {
		t.Fatalf("%d requests timed out", res.Timeouts)
	}
	if !res.Converged {
		t.Fatalf("cluster did not converge: %+v", res.PerShard)
	}
	if res.Measured == 0 {
		t.Fatal("measured window recorded no completions")
	}
	if res.Intent.N() != uint64(res.Measured) || res.Service.N() != uint64(res.Measured) {
		t.Fatalf("histogram counts %d/%d, want %d", res.Intent.N(), res.Service.N(), res.Measured)
	}
	if res.Intent.Percentile(50) < res.Service.Percentile(0) {
		t.Fatalf("intent latency %v below minimum service latency %v — CO correction lost",
			res.Intent.Percentile(50), res.Service.Percentile(0))
	}
	return res
}

// TestOpenLoadSmoke drives a modest open-loop rate through the default
// configuration (group commit + pipelined decode on, fixed tick) and
// checks rate accounting: offered ≈ achieved when far below the ceiling.
func TestOpenLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	res := runOpenLoad(t, nil, RunOptions{
		Rate:     150,
		Duration: 2 * time.Second,
		Warmup:   500 * time.Millisecond,
		Seed:     11,
	})
	if res.Achieved < 0.7*res.Offered {
		t.Fatalf("achieved %.0f req/s far below offered %.0f at a trivial rate", res.Achieved, res.Offered)
	}
	if res.Shed > 0 {
		t.Fatalf("%d arrivals shed at a trivial rate", res.Shed)
	}
}

// TestOpenLoadAdaptiveTickPoissonBatch exercises every new hot-path knob
// at once: adaptive tick sizing, Poisson arrivals, and batched submits
// riding the group-commit path. Determinism criterion: all replicas
// converge on one schedule hash.
func TestOpenLoadAdaptiveTickPoissonBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	runOpenLoad(t, func(o *Options) {
		o.AdaptiveTick = true
		o.BatchThreshold = 8
	}, RunOptions{
		Rate:     300,
		Duration: 2 * time.Second,
		Warmup:   500 * time.Millisecond,
		Poisson:  true,
		Batch:    true,
		Seed:     13,
	})
}

// TestGroupCommitScheduleTransparency runs the same single-client
// pipelined burst against a default cluster (group commit + pipelined
// decision apply) and against a cluster with both disabled, and asserts
// bit-identical consistency hashes. Group commit must be a wire-level
// coalescing only: same slots, same stamps relative to the schedule,
// same deterministic execution.
func TestGroupCommitScheduleTransparency(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	run := func(mod func(*Options)) *RunResult {
		_, addrs := startClusterOpts(t, 3, replica.KindMAT, mod)
		res, err := loadGroup(addrs, ShardClientOptions{}, RunOptions{
			Clients:           1,
			RequestsPerClient: 8,
			Seed:              7,
			Batch:             true,
			Timeout:           90 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors > 0 || !res.Converged {
			t.Fatalf("errors=%d converged=%v", res.Errors, res.Converged)
		}
		return res
	}
	grouped := run(nil) // defaults: group commit on, pipelined apply on
	plain := run(func(o *Options) {
		o.NoGroupCommit = true
		o.PipelineDepth = -1 // inline decode path
	})
	if g, p := grouped.PerShard[0].Hashes[0], plain.PerShard[0].Hashes[0]; g != p {
		t.Fatalf("group commit changed the deterministic schedule: grouped hash %x, plain hash %x", g, p)
	}
}
