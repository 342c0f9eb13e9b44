package server

import (
	"net"
	"testing"
	"time"

	"detmt/internal/chaos"
	"detmt/internal/ids"
	"detmt/internal/replica"
	"detmt/internal/trace"
	"detmt/internal/workload"
)

// startClusterWith boots n replica servers like startCluster, letting
// the caller mutate each server's Options (checkpoint cadence, epochs,
// chaos dialers, ...) before New.
func startClusterWith(t *testing.T, n int, kind replica.SchedulerKind,
	mut func(i int, o *Options)) ([]*Server, map[ids.ReplicaID]string) {
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
		if mut != nil {
			mut(i, &o)
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

// TestKillRestartRejoin is the headline recovery test: a 3-node MAT
// cluster under load has one replica killed mid-run and restarted on the
// same address. The restarted replica must fetch a checkpoint and the
// sequenced tail from a donor, replay at the original virtual stamps,
// and end the run with a ConsistencyHash bit-identical to the
// survivors' — the load run's convergence check asserts exactly that.
//
// The load is sized so that the kill AND the rejoin land inside it: a
// replica that goes live after the last request finds everything in the
// donor's checkpoint and replays nothing.
func TestKillRestartRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	servers, addrs := startClusterWith(t, 3, replica.KindMAT, func(i int, o *Options) {
		o.CheckpointEvery = 2
		o.Epoch = 1
		o.GossipInterval = 100 * time.Millisecond
	})

	type loadOut struct {
		res *RunResult
		err error
	}
	const clients, perClient = 2, 150
	ch := make(chan loadOut, 1)
	go func() {
		res, err := loadGroup(addrs, ShardClientOptions{}, RunOptions{Clients: clients, RequestsPerClient: perClient, Seed: 5, Timeout: 120 * time.Second})
		ch <- loadOut{res, err}
	}()

	// Kill only once requests and checkpoints have demonstrably flowed.
	waitForStatus(t, servers[0], func(st Status) bool {
		return st.Completed >= 4
	}, "no progress before the kill")
	servers[2].Close()                 // kill R3 (a follower)
	time.Sleep(120 * time.Millisecond) // the cluster keeps running without it

	restarted := restartServer(t, 3, replica.KindMAT, addrs, 2)
	// Going live takes a heartbeat from the sequencer plus one more fetch a
	// pause later (closeTail), whatever the load does meanwhile.
	waitForStatus(t, restarted, func(st Status) bool {
		return st.Recovery == "caught_up"
	}, "restarted replica did not go live")
	atRejoin := restarted.Status().Completed
	t.Logf("restarted replica live at %d of %d completed (survivor at %d)", atRejoin, clients*perClient, servers[0].Status().Completed)

	out := <-ch
	if out.err != nil {
		t.Fatalf("load run with kill/restart: %v", out.err)
	}
	if out.res.Errors > 0 {
		t.Fatalf("%d request errors", out.res.Errors)
	}
	if !out.res.Converged {
		t.Fatalf("restarted replica did not converge to an identical hash: %+v", out.res.PerShard[0].Statuses)
	}
	for _, st := range out.res.PerShard[0].Statuses {
		if st.Hash != out.res.PerShard[0].Statuses[0].Hash {
			t.Fatalf("hash mismatch after rejoin: %+v", out.res.PerShard[0].Statuses)
		}
	}
	if atRejoin >= clients*perClient {
		t.Fatalf("the load was over (%d completed) when the restarted replica went live: nothing was replayed", atRejoin)
	}
	st := restarted.Status()
	if st.Completed != clients*perClient {
		t.Fatalf("restarted replica completed %d of %d requests", st.Completed, clients*perClient)
	}
	if st.Diagnostic != "" {
		t.Fatalf("unexpected divergence diagnostic: %s", st.Diagnostic)
	}
}

// TestCheckpointsAdvanceUnderLoad watches the periodic checkpoint from the
// outside while an open-loop load runs: LastCheckpointSeq has to keep
// climbing on every member — a rejoiner needs a checkpoint no older than
// the donors' retained tail — and the members, which checkpoint at the same
// quiescent slots, have to end on the same one. The body is the light one
// of the 1000 req/s benchmark workload: most of its threads are done before
// the delivery goroutine that submitted them has taken another step.
func TestCheckpointsAdvanceUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	const every = 25
	light := workload.Fig1Config{Iterations: 1, Mutexes: 64, Announceable: true}
	servers, addrs := startClusterWith(t, 3, replica.KindMAT, func(i int, o *Options) {
		o.Workload = light
		o.CheckpointEvery = every
		o.Epoch = 1
	})
	type loadOut struct {
		res *RunResult
		err error
	}
	ch := make(chan loadOut, 1)
	go func() {
		res, err := loadGroup(addrs, ShardClientOptions{}, RunOptions{
			Rate: 400, Duration: 2 * time.Second, Warmup: 200 * time.Millisecond,
			Seed: 9, Gen: workload.Fig1Gen(light, false),
		})
		ch <- loadOut{res, err}
	}()
	waitForStatus(t, servers[0], func(st Status) bool { return st.Completed >= 200 }, "no progress under load")
	midway := make([]uint64, len(servers))
	for i, s := range servers {
		midway[i] = s.Status().LastCheckpointSeq
	}
	out := <-ch
	if out.err != nil {
		t.Fatalf("open-loop run: %v", out.err)
	}
	if out.res.Errors > 0 || !out.res.Converged {
		t.Fatalf("errors=%d converged=%v", out.res.Errors, out.res.Converged)
	}
	first := servers[0].Status()
	for i, s := range servers {
		st := s.Status()
		if st.LastCheckpointSeq <= midway[i] {
			t.Errorf("replica %v: last checkpoint at slot %d midway and at slot %d after the load: checkpoints stopped",
				st.ID, midway[i], st.LastCheckpointSeq)
		}
		if st.LastCheckpointSeq != first.LastCheckpointSeq {
			t.Errorf("replica %v ends on checkpoint slot %d, replica %v on %d",
				st.ID, st.LastCheckpointSeq, first.ID, first.LastCheckpointSeq)
		}
		if behind := st.Completed - int(st.LastCheckpointSeq); behind > 2*every {
			t.Errorf("replica %v: last checkpoint at slot %d after %d requests", st.ID, st.LastCheckpointSeq, st.Completed)
		}
	}
}

// chaosSoak runs a load under seeded transport faults (severed
// connections, read delays, short partitions between replicas) and
// asserts the cluster still converges to one schedule hash once the
// faults heal — retransmission, dedup, and stamped injection must make
// chaos invisible to the deterministic schedule.
func chaosSoak(t *testing.T, kind replica.SchedulerKind, seed uint64, mut func(i int, o *Options)) {
	t.Helper()
	injs := make([]*chaos.Injector, 3)
	var peerAddrs []string
	servers, addrs := startClusterWith(t, 3, kind, func(i int, o *Options) {
		injs[i] = chaos.New()
		o.Dial = injs[i].Dial(nil)
		o.CheckpointEvery = 2
		o.Epoch = 1
		if mut != nil {
			mut(i, o)
		}
	})
	_ = servers
	for _, a := range addrs {
		peerAddrs = append(peerAddrs, a)
	}

	stop := make(chan struct{})
	defer close(stop)
	for i, inj := range injs {
		go inj.Run(chaos.Plan{
			Seed:         seed + uint64(i),
			Step:         25 * time.Millisecond,
			PSever:       0.15,
			PPartition:   0.1,
			PartitionFor: 100 * time.Millisecond,
			PDelay:       0.3,
			DelayBy:      2 * time.Millisecond,
			Addrs:        peerAddrs,
		}, stop)
	}
	// Guarantee a fault under load regardless of the plan's draws: a
	// light load can finish within one plan step, so it starts only once a
	// sever has cut a live peer link (they are still being dialed at
	// first), and two more severs follow.
	severAll := func() (n int) {
		for _, inj := range injs {
			n += inj.SeverAll()
		}
		return n
	}
	for deadline := time.Now().Add(10 * time.Second); severAll() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no peer link came up to sever")
		}
	}
	go func() {
		for k := 0; k < 2; k++ {
			select {
			case <-stop:
				return
			case <-time.After(30 * time.Millisecond):
			}
			severAll()
		}
	}()

	res, err := loadGroup(addrs, ShardClientOptions{}, RunOptions{Clients: 2, RequestsPerClient: 6, Seed: seed, Timeout: 120 * time.Second})
	if err != nil {
		t.Fatalf("%s chaos soak: %v", kind, err)
	}
	if res.Errors > 0 {
		t.Fatalf("%s chaos soak: %d request errors", kind, res.Errors)
	}
	if !res.Converged {
		t.Fatalf("%s chaos soak did not converge: %+v", kind, res.PerShard[0].Statuses)
	}
	var severed int
	for _, inj := range injs {
		s, _ := inj.Stats()
		severed += s
	}
	if severed == 0 {
		t.Fatal("chaos plan injected no faults — the soak tested nothing")
	}
}

func TestChaosSoakMAT(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket chaos test")
	}
	chaosSoak(t, replica.KindMAT, 11, nil)
}

func TestChaosSoakLSA(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket chaos test")
	}
	chaosSoak(t, replica.KindLSA, 23, nil)
}

func TestChaosSoakPDS(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket chaos test")
	}
	// Relaxed PDS: the strict variant's full-pool barrier deadlocks when
	// the request mix leaves threads parked across quantum boundaries.
	chaosSoak(t, replica.KindPDS, 31, func(i int, o *Options) {
		o.PDSWindow = 4
		o.PDSRelaxed = true
	})
}

func TestChaosSoakSAT(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket chaos test")
	}
	chaosSoak(t, replica.KindSAT, 47, nil)
}

// TestDivergenceHalts injects a bogus scheduler decision into one
// replica's trace mid-run. Its next checkpoint carries a consistency
// hash the other two replicas disagree with; the gossip round must then
// halt the diverged replica (majority rule) with a diagnostic naming
// the divergent slot, while the agreeing majority keeps running.
func TestDivergenceHalts(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	servers, addrs := startClusterWith(t, 3, replica.KindMAT, func(i int, o *Options) {
		o.CheckpointEvery = 2
		o.Epoch = 1
		o.GossipInterval = 50 * time.Millisecond
	})

	// Phase 1: a clean prefix so every ring has agreeing points.
	res, err := loadGroup(addrs, ShardClientOptions{}, RunOptions{Clients: 1, RequestsPerClient: 4, Seed: 9, Timeout: 60 * time.Second})
	if err != nil || !res.Converged {
		t.Fatalf("clean phase: err=%v converged=%v", err, res != nil && res.Converged)
	}

	// Corrupt R3's schedule: a decision event the others never made.
	// Acquire+exit seals a chain, so the divergence lands in the sealed
	// consistency accumulator that checkpoints capture.
	tr := servers[2].Replica().Runtime().Trace()
	tr.Record(trace.Event{Thread: 0x7fffffff, Kind: trace.KindLockAcq, Mutex: 999, Sync: ids.NoSync})
	tr.Record(trace.Event{Thread: 0x7fffffff, Kind: trace.KindExit, Mutex: ids.NoMutex, Sync: ids.NoSync})

	// Phase 2: more load (as a fresh client incarnation — disjoint
	// ClientBase), so fresh checkpoints gossip the divergence. R3 halts
	// mid-phase, so this run cannot converge — ignore its error.
	go loadGroup(addrs, ShardClientOptions{ClientBase: 10}, RunOptions{Clients: 1, RequestsPerClient: 8, Seed: 10, Timeout: 30 * time.Second})

	deadline := time.Now().Add(30 * time.Second)
	for {
		st := servers[2].Status()
		if st.Recovery == "halted" {
			if st.Diagnostic == "" {
				t.Fatal("halted without a diagnostic")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("diverged replica did not halt; status %+v", st)
		}
		time.Sleep(25 * time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		if st := servers[i].Status(); st.Recovery != "caught_up" {
			t.Fatalf("healthy replica %v entered state %q (diag %q)", st.ID, st.Recovery, st.Diagnostic)
		}
	}
}
