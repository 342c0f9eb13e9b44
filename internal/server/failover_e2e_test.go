package server

import (
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/replica"
)

var failoverDebug = os.Getenv("DETMT_TEST_DEBUG") != ""

func debugLogf(format string, args ...interface{}) {
	if failoverDebug {
		fmt.Fprintf(os.Stderr, "DBG "+format+"\n", args...)
	}
}

// restartServer reboots replica id on its old address in recovery mode.
func restartServer(t *testing.T, id ids.ReplicaID, kind replica.SchedulerKind,
	addrs map[ids.ReplicaID]string, epoch uint64) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", addrs[id])
	if err != nil {
		t.Fatalf("rebinding %s: %v", addrs[id], err)
	}
	peers := map[ids.ReplicaID]string{}
	for pid, addr := range addrs {
		if pid != id {
			peers[pid] = addr
		}
	}
	srv, err := New(Options{
		ID:              id,
		Listener:        ln,
		Peers:           peers,
		Scheduler:       kind,
		Workload:        testWorkload(),
		NestedLatency:   2 * time.Millisecond,
		Tick:            2 * time.Millisecond,
		CheckpointEvery: 2,
		Epoch:           epoch,
		Recover:         true,
		GossipInterval:  100 * time.Millisecond,
		Logf:            debugLogf,
	})
	if err != nil {
		t.Fatalf("restarting R%v: %v", id, err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestSequencerFailoverRejoin is the headline failover test: the
// SEQUENCER of a live 3-node MAT cluster is killed mid-load. The
// survivors must detect the silence, elect R2 as the view-1 sequencer,
// resume slot assignment past everything already sequenced (no forked
// order), and the load generator must follow the view change and
// retransmit its in-flight requests. The dead sequencer then rejoins as
// a plain follower through the ordinary checkpoint + tail recovery
// path, and all three replicas finish with bit-identical consistency
// hashes.
func TestSequencerFailoverRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	servers, addrs := startClusterWith(t, 3, replica.KindMAT, func(i int, o *Options) {
		o.CheckpointEvery = 2
		o.Epoch = 1
		o.GossipInterval = 100 * time.Millisecond
		o.Logf = debugLogf
	})

	type loadOut struct {
		res *RunResult
		err error
	}
	ch := make(chan loadOut, 1)
	go func() {
		res, err := loadGroup(addrs, ShardClientOptions{Logf: debugLogf}, RunOptions{
			Clients:           2,
			RequestsPerClient: 30,
			Seed:              5,
			Timeout:           120 * time.Second,
			Logf:              debugLogf,
		})
		ch <- loadOut{res, err}
	}()

	// Kill the sequencer only once view-0 requests and checkpoints have
	// demonstrably flowed, and early enough that plenty of the load is
	// still in flight across the takeover.
	waitForStatus(t, servers[1], func(st Status) bool {
		return st.Completed >= 4
	}, "no view-0 progress before the kill")
	servers[0].Close() // kill R1 — the sequencer

	// The survivors must take over: R2 (lowest live) becomes the view-1
	// sequencer and keeps serving the load.
	waitForStatus(t, servers[1], func(st Status) bool {
		return st.View >= 1 && st.Sequencer == 2
	}, "R2 did not take over as sequencer")
	waitForStatus(t, servers[2], func(st Status) bool {
		return st.View >= 1 && st.Sequencer == 2
	}, "R3 did not adopt the new view")

	// Rejoin the dead sequencer as a follower of the new view.
	restarted := restartServer(t, 1, replica.KindMAT, addrs, 2)

	out := <-ch
	if out.err != nil {
		t.Fatalf("load run across sequencer failover: %v", out.err)
	}
	if out.res.Errors > 0 {
		t.Fatalf("%d request errors", out.res.Errors)
	}
	if !out.res.Converged {
		t.Fatalf("cluster did not converge after sequencer failover: %+v", out.res.PerShard[0].Statuses)
	}
	for _, st := range out.res.PerShard[0].Statuses {
		if st.Hash != out.res.PerShard[0].Statuses[0].Hash {
			t.Fatalf("hash fork after sequencer failover: %+v", out.res.PerShard[0].Statuses)
		}
	}
	// The load can end while the rejoiner still waits out closeTail's
	// heartbeat-plus-one-pause schedule: poll, do not read once.
	waitForStatus(t, restarted, func(st Status) bool {
		return st.Recovery == "caught_up"
	}, "rejoined ex-sequencer did not go live")
	st := restarted.Status()
	if st.Diagnostic != "" {
		t.Fatalf("unexpected divergence diagnostic: %s", st.Diagnostic)
	}
	// The rejoined ex-sequencer must live in the survivors' view as a
	// plain follower.
	if st.View < 1 || st.Sequencer != 2 {
		t.Fatalf("rejoined ex-sequencer reports view %d sequencer %v", st.View, st.Sequencer)
	}
	for _, s := range servers[1:] {
		if st := s.Status(); st.View < 1 || st.Sequencer != 2 {
			t.Fatalf("survivor %v reports view %d sequencer %v", st.ID, st.View, st.Sequencer)
		}
	}
}

// TestLSAFollowerKillRejoin kills and rejoins an LSA FOLLOWER mid-load:
// the rejoiner must install a checkpoint carrying the decision
// watermark, fetch the leader's decision tail past it, and replay the
// sequenced tail under exactly the decision stream the survivors
// followed — ending bit-identical to them.
func TestLSAFollowerKillRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	servers, addrs := startClusterWith(t, 3, replica.KindLSA, func(i int, o *Options) {
		o.CheckpointEvery = 2
		o.Epoch = 1
		o.GossipInterval = 100 * time.Millisecond
	})

	type loadOut struct {
		res *RunResult
		err error
	}
	ch := make(chan loadOut, 1)
	go func() {
		res, err := loadGroup(addrs, ShardClientOptions{}, RunOptions{Clients: 2, RequestsPerClient: 30, Seed: 8, Timeout: 120 * time.Second})
		ch <- loadOut{res, err}
	}()

	// Kill the follower only once decisions and checkpoints have flowed.
	waitForStatus(t, servers[0], func(st Status) bool {
		return st.Completed >= 4
	}, "no progress before the kill")
	servers[2].Close() // kill R3 — an LSA follower
	time.Sleep(100 * time.Millisecond)

	restarted := restartServer(t, 3, replica.KindLSA, addrs, 2)

	out := <-ch
	if out.err != nil {
		t.Fatalf("load run with LSA follower kill/rejoin: %v", out.err)
	}
	if out.res.Errors > 0 {
		t.Fatalf("%d request errors", out.res.Errors)
	}
	if !out.res.Converged {
		t.Fatalf("LSA follower did not converge after rejoin: %+v", out.res.PerShard[0].Statuses)
	}
	for _, st := range out.res.PerShard[0].Statuses {
		if st.Hash != out.res.PerShard[0].Statuses[0].Hash {
			t.Fatalf("hash mismatch after LSA follower rejoin: %+v", out.res.PerShard[0].Statuses)
		}
	}
	waitForStatus(t, restarted, func(st Status) bool {
		return st.Recovery == "caught_up"
	}, "rejoined LSA follower did not go live")
}

// waitForStatus polls a server's status until cond holds.
func waitForStatus(t *testing.T, s *Server, cond func(Status) bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if cond(s.Status()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s; status %+v", msg, s.Status())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
