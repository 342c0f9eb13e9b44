package server

import (
	"net"
	"os"
	"strconv"
	"testing"
	"time"

	"detmt/internal/backend"
	"detmt/internal/chaos"
	"detmt/internal/ids"
	"detmt/internal/member"
	"detmt/internal/replica"
)

// TestMixedChaosSoak is the scenario-diversity soak: one seeded run that
// layers every fault family the repo knows onto a single cluster —
// transport chaos (severed connections, short partitions, read delays),
// a backend error-rate episode, a replica kill + rejoin, and one live
// membership change — while a client load runs continuously. The
// acceptance bar is the deterministic one: zero lost client replies and
// bit-identical consistency hashes across every final member, including
// the rejoined replica and the joiner.
//
// The soak is long and wall-timing heavy, so it is gated behind
// DETMT_SOAK=1 and wired as `scripts/check.sh -soak` (CI runs it on a
// schedule, non-blocking).
func TestMixedChaosSoak(t *testing.T) {
	if os.Getenv("DETMT_SOAK") == "" {
		t.Skip("set DETMT_SOAK=1 (or run scripts/check.sh -soak) for the long mixed-chaos soak")
	}
	// Total wall time spent dwelling under active faults, split across
	// the episodes. DETMT_SOAK_SECS overrides (CI's scheduled job runs
	// longer than the local default).
	soakFor := 20 * time.Second
	if v := os.Getenv("DETMT_SOAK_SECS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			soakFor = time.Duration(n) * time.Second
		}
	}
	dwell := soakFor / 4
	be := startBackend(t, chaos.NewFaults(5))

	injs := make([]*chaos.Injector, 3)
	servers, addrs := startClusterWith(t, 3, replica.KindMAT, func(i int, o *Options) {
		injs[i] = chaos.New()
		o.Dial = injs[i].Dial(nil)
		o.Workload = catchWorkload()
		o.Backend = be.Addr()
		o.NestedTimeout = 2 * time.Second
		o.CheckpointEvery = 2
		o.Epoch = 1
		o.GossipInterval = 100 * time.Millisecond
		// Above PartitionFor: the soak's short partitions must never
		// depose a live sequencer. A follower partitioned ACROSS a view
		// change wedges beyond the in-band gap heal (its clock passes the
		// missing stamps) and only -recover fixes it — a documented limit,
		// not this soak's subject.
		o.DetectTimeout = 300 * time.Millisecond
		o.Logf = debugLogf
	})
	var peerAddrs []string
	for _, a := range addrs {
		peerAddrs = append(peerAddrs, a)
	}
	stopChaos := make(chan struct{})
	chaosHealed := false
	defer func() {
		if !chaosHealed {
			close(stopChaos)
		}
	}()
	for i, inj := range injs {
		go inj.Run(chaos.Plan{
			Seed:         41 + uint64(i),
			Step:         25 * time.Millisecond,
			PSever:       0.1,
			PPartition:   0.08,
			PartitionFor: 80 * time.Millisecond,
			PDelay:       0.25,
			DelayBy:      2 * time.Millisecond,
			Addrs:        peerAddrs,
		}, stopChaos)
	}

	load := startKVLoadFig1(t, addrs, 17)
	waitForStatus(t, servers[0], func(st Status) bool {
		return st.Completed >= 4
	}, "no progress before the fault episodes")
	soakDwell(t, load, dwell) // transport chaos only

	// Episode 1: backend misbehaves. Nested calls fail at a 30% rate; the
	// outcome-sequencing path must keep every replica's view of each call
	// identical (same error or same value at the same slot).
	if _, err := backend.Control(be.Addr(), "chaos error-rate 0.3", 5*time.Second); err != nil {
		t.Fatalf("injecting backend error rate: %v", err)
	}
	mark := servers[0].Status().Completed
	waitForStatus(t, servers[0], func(st Status) bool {
		return st.Completed >= mark+4
	}, "no progress under backend error rate")
	soakDwell(t, load, dwell) // transport chaos + backend errors

	// Episode 2: kill a follower mid-chaos and rejoin it through the
	// checkpoint+tail path. The restart mirrors the original options —
	// a rejoiner with a different workload or no backend would diverge.
	servers[2].Close()
	time.Sleep(100 * time.Millisecond)
	ln, err := net.Listen("tcp", addrs[3])
	if err != nil {
		t.Fatalf("rebinding %s: %v", addrs[3], err)
	}
	peers := map[ids.ReplicaID]string{}
	for pid, addr := range addrs {
		if pid != 3 {
			peers[pid] = addr
		}
	}
	r3, err := New(Options{
		ID:              3,
		Listener:        ln,
		Peers:           peers,
		Scheduler:       replica.KindMAT,
		Workload:        catchWorkload(),
		Backend:         be.Addr(),
		NestedTimeout:   2 * time.Second,
		NestedLatency:   2 * time.Millisecond,
		Tick:            2 * time.Millisecond,
		CheckpointEvery: 2,
		Epoch:           2,
		Recover:         true,
		GossipInterval:  100 * time.Millisecond,
		DetectTimeout:   300 * time.Millisecond,
		Logf:            debugLogf,
	})
	if err != nil {
		t.Fatalf("rejoining R3: %v", err)
	}
	t.Cleanup(func() { r3.Close() })
	waitForStatus(t, r3, func(st Status) bool {
		return st.Recovery == "caught_up"
	}, "killed replica did not rejoin under chaos")
	soakDwell(t, load, dwell) // 3/3 again, faults still live

	// Episode 3: grow the cluster — one ordered AddReplica while the
	// transport chaos and the backend error rate are still live.
	j4 := startLearner(t, 4, addrs, func(o *Options) {
		o.Workload = catchWorkload()
		o.Backend = be.Addr()
		o.NestedTimeout = 2 * time.Second
		o.DetectTimeout = 300 * time.Millisecond
	})
	if err := servers[1].ProposeChange(member.Change{Kind: member.Add, ID: 4, Addr: j4.Addr()}); err != nil {
		t.Fatalf("proposing add R4 under chaos: %v", err)
	}
	final := []*Server{servers[0], servers[1], r3, j4}
	for _, s := range final {
		waitMembership(t, s, func(m member.Snapshot) bool {
			return m.Epoch >= 1 && len(m.Voters) == 4
		}, "membership change did not activate under chaos")
	}
	waitForStatus(t, j4, func(st Status) bool {
		return st.Recovery == "caught_up"
	}, "joiner did not catch up under chaos")
	soakDwell(t, load, dwell) // 4 members under the full fault mix

	// Heal everything, then hold the bar: zero lost replies, identical
	// hashes everywhere.
	if _, err := backend.Control(be.Addr(), "chaos heal", 5*time.Second); err != nil {
		t.Fatalf("healing the backend: %v", err)
	}
	close(stopChaos)
	chaosHealed = true

	sent, errors, lastErr := load.halt()
	if errors > 0 {
		t.Fatalf("%d/%d lost client replies across the soak (last: %v)", errors, sent, lastErr)
	}
	if sent < 10 {
		t.Fatalf("soak only submitted %d requests", sent)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		sts := make([]Status, len(final))
		for i, s := range final {
			sts[i] = s.Status()
		}
		agree := true
		for _, st := range sts {
			if st.Completed != sts[0].Completed || st.Hash != sts[0].Hash {
				agree = false
			}
		}
		if agree && sts[0].Completed >= sent {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("soak did not converge to one hash: %+v", sts)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, s := range final {
		if st := s.Status(); st.Diagnostic != "" {
			t.Fatalf("R%v divergence diagnostic after the soak: %s", st.ID, st.Diagnostic)
		}
	}

	// The soak must have actually tested something: transport faults
	// fired and the backend error episode produced application errors.
	var severed int
	for _, inj := range injs {
		s, _ := inj.Stats()
		severed += s
	}
	if severed == 0 {
		t.Fatal("chaos plan injected no transport faults — the soak tested nothing")
	}
	var appErrs uint64
	for _, st := range []Status{servers[0].Status()} {
		appErrs += st.Nested.AppErrors
	}
	if appErrs == 0 {
		t.Fatal("backend error episode produced no application errors — the soak tested nothing")
	}
}

// soakDwell keeps the cluster under the currently active fault mix for
// d, failing fast if the load starts losing replies instead of waiting
// out the full convergence deadline.
func soakDwell(t *testing.T, load *bgKVLoad, d time.Duration) {
	t.Helper()
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		if _, errs := load.counts(); errs > 0 {
			_, _, lastErr := load.halt()
			t.Fatalf("lost a client reply mid-soak: %v", lastErr)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
