package server

import (
	"net"
	"sync"
	"testing"
	"time"

	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/member"
	"detmt/internal/replica"
	"detmt/internal/vclock"
	"detmt/internal/wire"
	"detmt/internal/workload"
)

// startLearner boots a NEW member outside the cluster's voter set: it
// bootstraps through recovery against the given voters and flips to
// voter when its AddReplica change activates.
func startLearner(t *testing.T, id ids.ReplicaID, voters map[ids.ReplicaID]string,
	mut func(o *Options)) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := map[ids.ReplicaID]string{}
	for pid, addr := range voters {
		peers[pid] = addr
	}
	o := Options{
		ID:              id,
		Listener:        ln,
		Peers:           peers,
		Scheduler:       replica.KindMAT,
		Workload:        testWorkload(),
		NestedLatency:   2 * time.Millisecond,
		Tick:            2 * time.Millisecond,
		Learner:         true,
		Epoch:           1,
		CheckpointEvery: 2,
		GossipInterval:  100 * time.Millisecond,
		Logf:            debugLogf,
	}
	if mut != nil {
		mut(&o)
	}
	srv, err := New(o)
	if err != nil {
		t.Fatalf("starting learner R%v: %v", id, err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// bgKVLoad is a continuously running KV load driver: a client pool that
// keeps submitting until stopped, following view changes AND membership
// changes through the status poller. It is the client's-eye view of a
// reconfiguration: if the cluster reshapes correctly under it, it sees
// retries, never errors.
type bgKVLoad struct {
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	sent    int
	errors  int
	lastErr error
}

func startKVLoad(t *testing.T, servers map[ids.ReplicaID]string, seed uint64) *bgKVLoad {
	t.Helper()
	boot := map[ids.ReplicaID]string{}
	members := make([]ids.ReplicaID, 0, len(servers))
	for id, addr := range servers {
		boot[id] = addr
		members = append(members, id)
	}
	tr, err := wire.NewTCP(wire.Options{
		Name:  "memberload",
		Epoch: nextLoadEpoch("", "memberload"),
		Peers: boot,
		Logf:  debugLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := vclock.NewReal()
	g := gcs.NewGroup(gcs.Config{
		Clock:     clock,
		Members:   members,
		Transport: tr,
		Local:     []ids.ReplicaID{},
		Logf:      debugLogf,
	})
	stopPoll := startViewPoller(tr, g, boot, debugLogf)
	cl := replica.NewClient(clock, g, 1)

	l := &bgKVLoad{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		defer g.Close()
		defer stopPoll()
		rng := ids.NewRNG(seed)
		deadline := time.Now().Add(2 * time.Minute)
		for {
			select {
			case <-l.stop:
				return
			default:
			}
			_, method, args := workload.KVRequest(rng, 32, 0.4)
			_, _, _, err := invokeWithRetry(cl, debugLogf, deadline, method, args)
			l.mu.Lock()
			l.sent++
			if err != nil {
				l.errors++
				l.lastErr = err
			}
			l.mu.Unlock()
		}
	}()
	return l
}

func (l *bgKVLoad) halt() (sent, errors int, lastErr error) {
	close(l.stop)
	<-l.done
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sent, l.errors, l.lastErr
}

func (l *bgKVLoad) counts() (sent, errors int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sent, l.errors
}

// waitMembership polls a server until its membership snapshot satisfies
// cond.
func waitMembership(t *testing.T, s *Server, cond func(member.Snapshot) bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := s.Status()
		if st.Membership != nil && cond(*st.Membership) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s; %v status %+v membership %+v", msg, st.ID, st, st.Membership)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterGrowRemoveSequencer is the headline reconfiguration test: a
// 3-member KV cluster under continuous load grows to 5 members (both
// joiners bootstrap via checkpoint + tail and flip learner→voter at
// their agreed activation slots), then the ORIGINAL SEQUENCER is removed
// through the total order. The client sees zero errors across all three
// reconfigurations, the final four members end with bit-identical
// consistency hashes, and the joiners — which were not even processes
// when the run started — match the survivors exactly.
func TestClusterGrowRemoveSequencer(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	kv := workload.DefaultKV()
	servers, addrs := startClusterWith(t, 3, replica.KindMAT, func(i int, o *Options) {
		o.KV = &kv
		o.CheckpointEvery = 2
		o.Epoch = 1
		o.GossipInterval = 100 * time.Millisecond
		o.Logf = debugLogf
	})

	load := startKVLoad(t, addrs, 11)
	waitForStatus(t, servers[0], func(st Status) bool {
		return st.Completed >= 4
	}, "no progress before the reconfiguration")

	// Grow to 5: start each learner, then propose its AddReplica through
	// a DIFFERENT member than the sequencer — any member can propose.
	j4 := startLearner(t, 4, addrs, func(o *Options) { o.KV = &kv })
	if err := servers[1].ProposeChange(member.Change{Kind: member.Add, ID: 4, Addr: j4.Addr()}); err != nil {
		t.Fatalf("proposing add R4: %v", err)
	}
	j5 := startLearner(t, 5, addrs, func(o *Options) { o.KV = &kv })
	if err := servers[2].ProposeChange(member.Change{Kind: member.Add, ID: 5, Addr: j5.Addr()}); err != nil {
		t.Fatalf("proposing add R5: %v", err)
	}

	// Both adds must activate everywhere, and the joiners must catch up.
	for _, s := range []*Server{servers[0], servers[1], servers[2], j4, j5} {
		waitMembership(t, s, func(m member.Snapshot) bool {
			return m.Epoch >= 2 && len(m.Voters) == 5
		}, "cluster did not grow to 5 voters")
	}
	for _, j := range []*Server{j4, j5} {
		waitForStatus(t, j, func(st Status) bool {
			return st.Recovery == "caught_up"
		}, "joiner did not catch up")
	}

	// Remove the original sequencer THROUGH THE ORDER it sequences: R1
	// stamps its own removal, silences itself at the activation slot, and
	// the survivors elect R2 through the ordinary takeover machinery.
	if err := servers[1].ProposeChange(member.Change{Kind: member.Remove, ID: 1}); err != nil {
		t.Fatalf("proposing remove R1: %v", err)
	}
	remaining := []*Server{servers[1], servers[2], j4, j5}
	for _, s := range remaining {
		waitMembership(t, s, func(m member.Snapshot) bool {
			return m.Epoch >= 3 && len(m.Voters) == 4
		}, "removal did not activate")
	}
	for _, s := range remaining {
		waitForStatus(t, s, func(st Status) bool {
			return st.Sequencer == 2
		}, "survivors did not elect R2 after the ordered removal")
	}
	waitForStatus(t, servers[0], func(st Status) bool {
		return st.Recovery == "removed"
	}, "removed member did not report removed state")

	// A fast reconfiguration can finish before the pooled clients have
	// pushed much load through it — keep the load running until enough
	// requests crossed the reshaped cluster to make convergence mean
	// something, then stop it.
	floor := time.Now().Add(20 * time.Second)
	for {
		if n, _ := load.counts(); n >= 10 {
			break
		}
		if time.Now().After(floor) {
			t.Fatal("load did not reach 10 requests against the reshaped cluster")
		}
		time.Sleep(20 * time.Millisecond)
	}
	sent, errors, lastErr := load.halt()
	if errors > 0 {
		t.Fatalf("%d/%d client errors across the reconfigurations (last: %v)", errors, sent, lastErr)
	}

	// Convergence: the final four members must account for the same
	// completed count with bit-identical hashes — the joiners included.
	deadline := time.Now().Add(30 * time.Second)
	for {
		sts := make([]Status, len(remaining))
		for i, s := range remaining {
			sts[i] = s.Status()
		}
		agree := true
		for _, st := range sts {
			if st.Completed != sts[0].Completed || st.Hash != sts[0].Hash {
				agree = false
			}
		}
		if agree && sts[0].Completed >= sent-errors {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("final members did not converge: %+v", sts)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, s := range remaining {
		if st := s.Status(); st.Diagnostic != "" {
			t.Fatalf("R%v divergence diagnostic after reconfiguration: %s", st.ID, st.Diagnostic)
		}
	}
}

// TestReconfigAcrossViewChange races a membership change against a
// sequencer failure: the AddReplica for a new learner is proposed and
// the view-0 sequencer is killed before the change can activate. The
// proposal path must carry the change into the NEW view deterministically
// — either the original broadcast made it into the order before the
// crash, or the retry re-proposes it to the elected sequencer — and
// every survivor plus the joiner must agree on the same final epoch,
// voter set, and consistency hash.
func TestReconfigAcrossViewChange(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	servers, addrs := startClusterWith(t, 3, replica.KindMAT, func(i int, o *Options) {
		o.CheckpointEvery = 2
		o.Epoch = 1
		o.GossipInterval = 100 * time.Millisecond
		o.Logf = debugLogf
	})

	load := startKVLoadFig1(t, addrs, 7)
	waitForStatus(t, servers[0], func(st Status) bool {
		return st.Completed >= 2
	}, "no progress before the race")

	j4 := startLearner(t, 4, addrs, nil)
	proposed := make(chan error, 1)
	go func() {
		proposed <- servers[1].ProposeChange(member.Change{Kind: member.Add, ID: 4, Addr: j4.Addr()})
	}()
	// Kill the sequencer while the proposal (and its activation padding)
	// is in flight: the change must survive the view change.
	time.Sleep(5 * time.Millisecond)
	servers[0].Close()

	if err := <-proposed; err != nil {
		t.Fatalf("proposal did not survive the view change: %v", err)
	}
	survivors := []*Server{servers[1], servers[2]}
	for _, s := range survivors {
		waitForStatus(t, s, func(st Status) bool {
			return st.View >= 1 && st.Sequencer == 2
		}, "survivors did not elect R2")
	}
	for _, s := range []*Server{servers[1], servers[2], j4} {
		waitMembership(t, s, func(m member.Snapshot) bool {
			return m.Epoch >= 1 && len(m.Voters) == 4
		}, "add did not activate after the view change")
	}
	waitForStatus(t, j4, func(st Status) bool {
		return st.Recovery == "caught_up"
	}, "joiner did not catch up in the new view")

	sent, errors, lastErr := load.halt()
	if errors > 0 {
		t.Fatalf("%d/%d client errors across the racing view change (last: %v)", errors, sent, lastErr)
	}

	// The joiner and both survivors must converge bit-identically.
	final := []*Server{servers[1], servers[2], j4}
	deadline := time.Now().Add(30 * time.Second)
	for {
		sts := make([]Status, len(final))
		for i, s := range final {
			sts[i] = s.Status()
		}
		if sts[0].Completed >= sent-errors &&
			sts[1].Completed == sts[0].Completed && sts[2].Completed == sts[0].Completed &&
			sts[1].Hash == sts[0].Hash && sts[2].Hash == sts[0].Hash {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors and joiner did not converge (the load sent %d, %d errors): %+v", sent, errors, sts)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClientFollowsRemovedBootMember is the driver-refresh regression
// test: a load client booted knowing ONLY the member that later gets
// removed must follow the cluster through the reconfiguration instead of
// hammering the removed address forever. The status poller adopts the
// membership snapshot (which carries the other voters' addresses) the
// moment the removal epoch activates, re-routes to the elected
// sequencer, and the load finishes with zero errors. The 2-voter
// remainder also exercises the ordered-pair election end to end: {2,3}
// elects R2 even though a static 2-member group would stall.
func TestClientFollowsRemovedBootMember(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	servers, addrs := startClusterWith(t, 3, replica.KindMAT, func(i int, o *Options) {
		o.CheckpointEvery = 2
		o.Epoch = 1
		o.GossipInterval = 100 * time.Millisecond
		o.Logf = debugLogf
	})

	// The client's entire bootstrap knowledge is R1 — the member about to
	// be removed.
	load := startKVLoadFig1(t, map[ids.ReplicaID]string{1: addrs[1]}, 3)
	waitForStatus(t, servers[0], func(st Status) bool {
		return st.Completed >= 2
	}, "no progress before the removal")

	if err := servers[1].ProposeChange(member.Change{Kind: member.Remove, ID: 1}); err != nil {
		t.Fatalf("proposing remove R1: %v", err)
	}
	survivors := []*Server{servers[1], servers[2]}
	for _, s := range survivors {
		waitMembership(t, s, func(m member.Snapshot) bool {
			return m.Epoch >= 1 && len(m.Voters) == 2
		}, "removal did not activate")
	}
	for _, s := range survivors {
		waitForStatus(t, s, func(st Status) bool {
			return st.Sequencer == 2
		}, "ordered 2-voter remainder did not elect R2")
	}

	// The client must keep completing requests AFTER its only boot member
	// left the quorum — proof it adopted the survivors from the snapshot.
	before, _ := load.counts()
	deadline := time.Now().Add(20 * time.Second)
	for {
		sent, errs := load.counts()
		if errs > 0 {
			break // halt() below reports the error
		}
		if sent >= before+5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client stalled after its boot member was removed (%d sent, %d before)", sent, before)
		}
		time.Sleep(10 * time.Millisecond)
	}

	sent, errors, lastErr := load.halt()
	if errors > 0 {
		t.Fatalf("%d/%d client errors across the removal (last: %v)", errors, sent, lastErr)
	}

	deadline = time.Now().Add(30 * time.Second)
	for {
		a, b := servers[1].Status(), servers[2].Status()
		if a.Completed >= sent && a.Completed == b.Completed && a.Hash == b.Hash {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors did not converge: %+v vs %+v", a, b)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// startKVLoadFig1 is bgKVLoad's Fig. 1 twin for clusters hosting the
// default workload.
func startKVLoadFig1(t *testing.T, servers map[ids.ReplicaID]string, seed uint64) *bgKVLoad {
	t.Helper()
	boot := map[ids.ReplicaID]string{}
	members := make([]ids.ReplicaID, 0, len(servers))
	for id, addr := range servers {
		boot[id] = addr
		members = append(members, id)
	}
	tr, err := wire.NewTCP(wire.Options{
		Name:  "memberload",
		Epoch: nextLoadEpoch("", "memberload"),
		Peers: boot,
		Logf:  debugLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := vclock.NewReal()
	g := gcs.NewGroup(gcs.Config{
		Clock:     clock,
		Members:   members,
		Transport: tr,
		Local:     []ids.ReplicaID{},
		Logf:      debugLogf,
	})
	stopPoll := startViewPoller(tr, g, boot, debugLogf)
	cl := replica.NewClient(clock, g, 1)

	l := &bgKVLoad{stop: make(chan struct{}), done: make(chan struct{})}
	wl := testWorkload()
	go func() {
		defer close(l.done)
		defer g.Close()
		defer stopPoll()
		rng := ids.NewRNG(seed)
		deadline := time.Now().Add(2 * time.Minute)
		for {
			select {
			case <-l.stop:
				return
			default:
			}
			args := workload.Fig1Args(wl, rng)
			_, _, _, err := invokeWithRetry(cl, debugLogf, deadline, workload.MethodName, args)
			l.mu.Lock()
			l.sent++
			if err != nil {
				l.errors++
				l.lastErr = err
			}
			l.mu.Unlock()
		}
	}()
	return l
}
