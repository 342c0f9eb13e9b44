package server

import (
	"net"
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/replica"
)

// startClusterOpts boots n replica servers like startCluster but lets the
// caller adjust each server's Options before New.
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
// and a non-empty measured window. burst, when positive, first sends one
// closed-loop batch of that many calls through the same cluster.
func runOpenLoad(t *testing.T, burst int, o RunOptions) *RunResult {
	t.Helper()
	_, addrs := startClusterOpts(t, 3, replica.KindMAT, func(o *Options) { o.Logf = debugLogf })
	if burst > 0 {
		res, err := loadGroup(addrs, ShardClientOptions{ClientBase: 1000}, RunOptions{
			Clients: 1, RequestsPerClient: burst, Batch: true, Seed: o.Seed, Timeout: 90 * time.Second,
		})
		if err != nil {
			t.Fatalf("burst: %v", err)
		}
		if res.Errors > 0 || !res.Converged {
			t.Fatalf("burst: errors=%d converged=%v", res.Errors, res.Converged)
		}
	}
	res, err := loadGroup(addrs, ShardClientOptions{}, o)
	if err != nil {
		if res != nil {
			t.Logf("statuses: %+v", res.PerShard)
		}
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

// TestOpenLoadSmoke drives a modest open-loop rate through the cluster
// and checks rate accounting: offered ≈ achieved when far below the
// ceiling.
func TestOpenLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	res := runOpenLoad(t, 0, RunOptions{
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

// TestOpenLoadAdaptiveTickPoissonBatch exercises the arrival-driven
// sequencer on one cluster: a 96-call batch arrives as one frame and is
// sequenced in one drain; Poisson arrivals then each wake the sequencer out
// of whatever heartbeat park it is in, with batched submits riding the
// group-commit path. Determinism criterion: all replicas converge on one
// schedule hash. The status block has to tell the same story from inside.
func TestOpenLoadAdaptiveTickPoissonBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	res := runOpenLoad(t, 96, RunOptions{
		Rate:     300,
		Duration: 2 * time.Second,
		Warmup:   500 * time.Millisecond,
		Poisson:  true,
		Batch:    true,
		Seed:     13,
	})
	for _, st := range res.PerShard[0].Statuses {
		q := st.Sequencing
		if st.ID != st.Sequencer {
			if q.Drains != 0 || q.Sequenced != 0 {
				t.Errorf("follower %v reports sequencing work: %+v", st.ID, q)
			}
			continue
		}
		// Nested-call outcomes ride the total order too: at least one slot
		// per completed request.
		if int(q.Sequenced) < st.Completed || q.MaxBatch < 96 || q.Drains == 0 || q.Drains > q.Sequenced {
			t.Errorf("sequencer reports %v for %d completed requests and a 96-call burst", q, st.Completed)
		}
		if q.QueueWaitP50Ms <= 0 || q.QueueWaitP50Ms > q.QueueWaitP99Ms {
			t.Errorf("queue wait p50 %.3f ms, p99 %.3f ms", q.QueueWaitP50Ms, q.QueueWaitP99Ms)
		}
	}
}

// groupCommitBurstHash is the ConsistencyHash every replica reaches on the
// burst below. It was read off the commit that still had a one-frame-per-
// envelope, inline-decode sequencer to compare against: both arms produced
// it there.
const groupCommitBurstHash = 0xee81398f879ebf09

// TestGroupCommitScheduleTransparency pins the schedule of a single-client
// 8-call batch burst: the sequencer packs a drain's decisions into one
// multi-envelope frame per member and the receivers decode it on a
// pipeline, and neither may reach the schedule — same slots, same
// deterministic execution as one frame per envelope decoded inline.
func TestGroupCommitScheduleTransparency(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	_, addrs := startClusterOpts(t, 3, replica.KindMAT, nil)
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
	if got := res.PerShard[0].Hashes[0]; got != groupCommitBurstHash {
		t.Fatalf("framing reached the deterministic schedule: hash %x, want %x", got, uint64(groupCommitBurstHash))
	}
}
