package harness

import (
	"fmt"
	"net"
	"strings"
	"time"

	"detmt/internal/ids"
	"detmt/internal/replica"
	"detmt/internal/server"
	"detmt/internal/workload"
)

// Recovery measures the crash-recovery subsystem on REAL loopback TCP
// clusters (unlike the simulation experiments): a 3-replica MAT cluster
// takes load, one follower is killed, the survivors take more load (so a
// sequenced tail accumulates past the victim's last checkpoint), and the
// victim restarts with -recover. Time-to-catch-up is the wall time from
// restart until the replica is live with the full request count applied.
//
// Two sweeps:
//
//   - checkpoint cadence at fixed load: frequent checkpoints shorten the
//     tail a rejoiner must replay (cadence 0 = no checkpoints at all, so
//     the rejoiner replays the entire sequenced history);
//   - missed-load size without checkpoints: the replayed tail — and with
//     it the catch-up time — grows with how much the replica slept
//     through.
//
// Not part of `detmt-bench -experiment all`: it binds sockets and burns
// wall-clock time pacing real clusters, so it runs only when asked for
// explicitly.
func Recovery() Result {
	var b strings.Builder

	b.WriteString("Checkpoint-cadence sweep (2 clients x 5 missed requests):\n")
	fmt.Fprintf(&b, "%-18s %14s %14s %12s\n", "checkpoint-every", "catchup-ms", "replayed-tail", "ckpt-slot")
	for _, ck := range []int{1, 4, 0} {
		r, err := recoverOnce(ck, 5)
		if err != nil {
			fmt.Fprintf(&b, "%-18d FAILED: %v\n", ck, err)
			continue
		}
		fmt.Fprintf(&b, "%-18d %14.1f %14d %12d\n", ck, r.catchupMs, r.tail, r.ckptSlot)
	}

	b.WriteString("\nMissed-load sweep (no checkpoints: full-history replay):\n")
	fmt.Fprintf(&b, "%-18s %14s %14s\n", "missed-requests", "catchup-ms", "replayed-tail")
	for _, miss := range []int{2, 5, 10} {
		r, err := recoverOnce(0, miss)
		if err != nil {
			fmt.Fprintf(&b, "%-18d FAILED: %v\n", 2*miss, err)
			continue
		}
		fmt.Fprintf(&b, "%-18d %14.1f %14d\n", 2*miss, r.catchupMs, r.tail)
	}

	b.WriteString("\nCheckpoints bound the replayed tail: a rejoiner restarts from the\ndonor's last checkpoint slot instead of replaying the full history,\ntrading hot-path snapshot work for faster crash recovery.\n")
	return Result{
		ID:    "recovery",
		Title: "Crash recovery: time-to-catch-up vs checkpoint cadence and tail length (real TCP cluster)",
		Text:  b.String(),
	}
}

type recoverOutcome struct {
	catchupMs float64
	tail      int
	ckptSlot  uint64
}

// recoverOnce runs one kill/restart cycle: warm load on 3 members,
// kill R3, degraded load on the survivors (2 clients x missedPerClient
// requests), restart R3 with recovery and wait until it has caught up,
// then verify it takes part in fresh load bit-identically.
func recoverOnce(checkpointEvery, missedPerClient int) (*recoverOutcome, error) {
	wl := workload.DefaultFig1()
	wl.Iterations = 4
	wl.Mutexes = 16

	const n = 3
	lns := make([]net.Listener, n)
	addrs := map[ids.ReplicaID]string{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[ids.ReplicaID(i+1)] = ln.Addr().String()
	}
	mkOptions := func(id ids.ReplicaID, ln net.Listener, epoch uint64, rec bool) server.Options {
		peers := map[ids.ReplicaID]string{}
		for pid, addr := range addrs {
			if pid != id {
				peers[pid] = addr
			}
		}
		return server.Options{
			ID:              id,
			Listener:        ln,
			Peers:           peers,
			Scheduler:       replica.KindMAT,
			Workload:        wl,
			NestedLatency:   2 * time.Millisecond,
			Tick:            2 * time.Millisecond,
			CheckpointEvery: checkpointEvery,
			Epoch:           epoch,
			Recover:         rec,
		}
	}
	servers := make([]*server.Server, n)
	for i := 0; i < n; i++ {
		srv, err := server.New(mkOptions(ids.ReplicaID(i+1), lns[i], 1, false))
		if err != nil {
			return nil, err
		}
		servers[i] = srv
		defer srv.Close()
	}

	load := func(targets map[ids.ReplicaID]string, base, perClient int, seed uint64, needConverged bool) error {
		sc, err := server.DialGroup(targets, server.ShardClientOptions{Clients: 2, ClientBase: base})
		if err != nil {
			return err
		}
		defer sc.Close()
		res, err := server.Run(server.RunOptions{
			Invoker: sc, Clients: 2, RequestsPerClient: perClient,
			Seed: seed, Gen: workload.Fig1Gen(wl, false),
			Timeout: 60 * time.Second,
		})
		if err != nil {
			return err
		}
		if needConverged && !res.Converged {
			return fmt.Errorf("load (base %d) did not converge", base)
		}
		return nil
	}

	// Phase 1 with all members up, then kill R3 and take more load so a
	// sequenced tail accumulates past its last checkpoint.
	if err := load(addrs, 0, 4, 1, true); err != nil {
		return nil, fmt.Errorf("warm phase: %w", err)
	}
	servers[2].Close()
	survivors := map[ids.ReplicaID]string{1: addrs[1], 2: addrs[2]}
	if err := load(survivors, 10, missedPerClient, 2, true); err != nil {
		return nil, fmt.Errorf("degraded phase: %w", err)
	}

	ln, err := net.Listen("tcp", addrs[3])
	if err != nil {
		return nil, fmt.Errorf("rebinding: %w", err)
	}
	start := time.Now()
	restarted, err := server.New(mkOptions(3, ln, 2, true))
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	defer restarted.Close()

	// Caught up = live again AND the degraded-phase requests applied.
	want := 2*4 + 2*missedPerClient
	deadline := time.Now().Add(60 * time.Second)
	var st server.Status
	for {
		st = restarted.Status()
		if st.Recovery == "caught_up" && st.Completed >= want {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("rejoin stalled: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	catchup := time.Since(start)

	// The recovered member must take part in fresh load bit-identically.
	if err := load(addrs, 20, 2, 3, true); err != nil {
		return nil, fmt.Errorf("post-recovery phase: %w", err)
	}
	return &recoverOutcome{
		catchupMs: float64(catchup) / float64(time.Millisecond),
		tail:      st.ReplayedTail,
		ckptSlot:  st.LastCheckpointSeq,
	}, nil
}
