package gcs

import (
	"sync"
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/vclock"
)

const lat = 2 * time.Millisecond

// testGroup builds a 3-member group on a fresh virtual clock and collects
// per-node deliveries.
type testGroup struct {
	v   *vclock.Virtual
	g   *Group
	mu  sync.Mutex
	log map[ids.ReplicaID][]Message
}

func newTestGroup(t *testing.T, members ...ids.ReplicaID) *testGroup {
	t.Helper()
	if len(members) == 0 {
		members = []ids.ReplicaID{1, 2, 3}
	}
	tg := &testGroup{v: vclock.NewVirtual(), log: map[ids.ReplicaID][]Message{}}
	tg.g = NewGroup(Config{
		Clock:         tg.v,
		Members:       members,
		Latency:       lat,
		DetectTimeout: 20 * time.Millisecond,
	})
	for _, id := range members {
		id := id
		tg.g.Node(id).SetDeliver(func(m Message) {
			tg.mu.Lock()
			tg.log[id] = append(tg.log[id], m)
			tg.mu.Unlock()
		})
	}
	return tg
}

// drive runs fn as a managed goroutine and then lets the simulation run
// until quiescent (a final long sleep flushes in-flight messages).
func (tg *testGroup) drive(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	tg.v.Go(func() {
		defer close(done)
		fn()
		tg.v.Sleep(time.Second) // flush all in-flight traffic
	})
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("gcs test timed out")
	}
}

func (tg *testGroup) deliveries(id ids.ReplicaID) []Message {
	tg.mu.Lock()
	defer tg.mu.Unlock()
	return append([]Message(nil), tg.log[id]...)
}

func TestBroadcastReachesAllInTotalOrder(t *testing.T) {
	tg := newTestGroup(t)
	tg.drive(t, func() {
		tg.g.Node(2).Broadcast("a")
		tg.v.Sleep(time.Millisecond)
		tg.g.Node(3).Broadcast("b")
		tg.v.Sleep(time.Millisecond)
		tg.g.Node(1).Broadcast("c")
	})
	want := tg.deliveries(1)
	if len(want) != 3 {
		t.Fatalf("node 1 delivered %d messages", len(want))
	}
	for seq, m := range want {
		if m.Seq != uint64(seq+1) {
			t.Fatalf("sequence gap: %+v", want)
		}
	}
	for _, id := range []ids.ReplicaID{2, 3} {
		got := tg.deliveries(id)
		if len(got) != 3 {
			t.Fatalf("node %v delivered %d messages", id, len(got))
		}
		for i := range got {
			if got[i].Seq != want[i].Seq || got[i].Payload != want[i].Payload {
				t.Fatalf("node %v order differs: %+v vs %+v", id, got, want)
			}
		}
	}
}

func TestConcurrentBroadcastsSameOrderEverywhere(t *testing.T) {
	tg := newTestGroup(t)
	tg.drive(t, func() {
		// All three broadcast at the same instant: any assignment is
		// legal, but all members must agree.
		for _, id := range tg.g.Members() {
			tg.g.Node(id).Broadcast(int(id) * 10)
		}
	})
	ref := tg.deliveries(1)
	if len(ref) != 3 {
		t.Fatalf("delivered %d", len(ref))
	}
	for _, id := range []ids.ReplicaID{2, 3} {
		got := tg.deliveries(id)
		for i := range ref {
			if got[i].Payload != ref[i].Payload {
				t.Fatalf("disagreement at %d: %v vs %v", i, got[i], ref[i])
			}
		}
	}
}

func TestLatencyApplied(t *testing.T) {
	tg := newTestGroup(t)
	var deliveredAt time.Duration
	tg.g.Node(3).SetDeliver(func(m Message) { deliveredAt = tg.v.Now() })
	tg.drive(t, func() {
		tg.g.Node(3).Broadcast("x")
	})
	// node3 -> sequencer (1): lat; sequencer -> node3: lat.
	if deliveredAt != 2*lat {
		t.Fatalf("delivered at %v, want %v", deliveredAt, 2*lat)
	}
}

func TestClientBroadcastAndDedup(t *testing.T) {
	tg := newTestGroup(t)
	c := tg.g.NewClientEndpoint(7)
	tg.drive(t, func() {
		c.Broadcast("req")
		// Simulate a client retransmission of the same uid.
		c.retransmitPending()
	})
	for _, id := range tg.g.Members() {
		got := tg.deliveries(id)
		if len(got) != 1 {
			t.Fatalf("node %v delivered %d copies, want 1 (dedup)", id, len(got))
		}
		if !got[0].Origin.IsClient || got[0].Origin.Client != 7 {
			t.Fatalf("origin %+v", got[0].Origin)
		}
	}
}

func TestDirectMessagesFIFO(t *testing.T) {
	tg := newTestGroup(t)
	var got []int
	tg.g.Node(2).SetDirect(func(from Origin, p Payload) {
		got = append(got, p.(int))
	})
	tg.drive(t, func() {
		// Same-instant sends on one link must not be reordered.
		for i := 0; i < 10; i++ {
			tg.g.Node(1).SendDirectToPeers(i)
		}
	})
	if len(got) != 10 {
		t.Fatalf("delivered %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestSendToClient(t *testing.T) {
	tg := newTestGroup(t)
	c := tg.g.NewClientEndpoint(9)
	var from ids.ReplicaID
	var payload Payload
	c.SetOnReply(func(f ids.ReplicaID, p Payload) { from, payload = f, p })
	tg.drive(t, func() {
		tg.g.Node(2).SendToClient(9, "reply")
	})
	if from != 2 || payload != "reply" {
		t.Fatalf("reply from %v: %v", from, payload)
	}
}

func TestCrashStopsTraffic(t *testing.T) {
	tg := newTestGroup(t)
	tg.drive(t, func() {
		tg.g.Node(2).Broadcast("before")
		tg.v.Sleep(10 * time.Millisecond)
		if !tg.g.Crash(3) {
			t.Error("crash failed")
		}
		if tg.g.Crash(3) {
			t.Error("double crash succeeded")
		}
		tg.g.Node(2).Broadcast("after")
	})
	if n := len(tg.deliveries(3)); n != 1 {
		t.Fatalf("crashed node delivered %d messages, want 1", n)
	}
	if n := len(tg.deliveries(1)); n != 2 {
		t.Fatalf("live node delivered %d messages, want 2", n)
	}
}

func TestSequencerTakeover(t *testing.T) {
	tg := newTestGroup(t)
	var sawAt time.Duration
	tg.g.Node(2).SetDeliver(func(m Message) {
		tg.mu.Lock()
		tg.log[2] = append(tg.log[2], m)
		tg.mu.Unlock()
		if m.Payload == "during" {
			sawAt = tg.v.Now()
		}
	})
	var crashAt time.Duration
	tg.drive(t, func() {
		tg.g.Node(2).Broadcast("pre")
		tg.v.Sleep(10 * time.Millisecond)
		crashAt = tg.v.Now()
		tg.g.Crash(1) // the sequencer dies
		// A broadcast right after the crash: the forward is lost; the
		// retransmission after DetectTimeout reaches node 2, the new
		// sequencer.
		tg.g.Node(3).Broadcast("during")
	})
	got := tg.deliveries(2)
	if len(got) != 2 {
		t.Fatalf("survivor delivered %d messages: %+v", len(got), got)
	}
	if got[1].Payload != "during" {
		t.Fatalf("missing takeover delivery: %+v", got)
	}
	if got[1].Seq <= got[0].Seq {
		t.Fatalf("sequence did not continue after takeover: %+v", got)
	}
	// Takeover delay is at least the detection timeout.
	if sawAt < crashAt+20*time.Millisecond {
		t.Fatalf("takeover delivery at %v, crash at %v: too early", sawAt, crashAt)
	}
	// Both survivors agree.
	got3 := tg.deliveries(3)
	if len(got3) != 2 || got3[1].Payload != got[1].Payload {
		t.Fatalf("survivors disagree: %+v vs %+v", got, got3)
	}
}

func TestClientRetransmissionAfterTakeover(t *testing.T) {
	tg := newTestGroup(t)
	c := tg.g.NewClientEndpoint(5)
	tg.drive(t, func() {
		tg.g.Crash(1) // sequencer gone before the request
		c.Broadcast("lost-then-retried")
	})
	got := tg.deliveries(2)
	if len(got) != 1 || got[0].Payload != "lost-then-retried" {
		t.Fatalf("client request not recovered: %+v", got)
	}
}

// TestBroadcastAllCrashedErrNoSequencer pins the whole-group-down
// contract: once every member is crash-detected there is no sequencer to
// route to, and both node and client submission paths must fail fast
// with ErrNoSequencer instead of silently dropping (or misrouting) the
// request.
func TestBroadcastAllCrashedErrNoSequencer(t *testing.T) {
	tg := newTestGroup(t)
	c := tg.g.NewClientEndpoint(5)
	tg.drive(t, func() {
		tg.g.Crash(1)
		tg.g.Crash(2)
		tg.g.Crash(3)
		// Senders keep routing to a dead member until failure detection
		// lands (in-flight requests are realistically lost); only after
		// DetectTimeout is the whole-group outage visible to them.
		tg.v.Sleep(30 * time.Millisecond)
		if _, err := c.Broadcast("into the void"); err != ErrNoSequencer {
			t.Errorf("client Broadcast with all members crashed: err=%v, want ErrNoSequencer", err)
		}
		if _, err := c.BroadcastBatch([]Payload{"a", "b"}); err != ErrNoSequencer {
			t.Errorf("client BroadcastBatch with all members crashed: err=%v, want ErrNoSequencer", err)
		}
		if err := tg.g.Node(2).Broadcast("also lost"); err != ErrNoSequencer {
			t.Errorf("node Broadcast with all members crashed: err=%v, want ErrNoSequencer", err)
		}
	})
	for _, id := range []ids.ReplicaID{1, 2, 3} {
		if n := len(tg.deliveries(id)); n != 0 {
			t.Fatalf("node %v delivered %d messages after whole-group crash", id, n)
		}
	}
}

func TestStatsCounting(t *testing.T) {
	tg := newTestGroup(t)
	tg.drive(t, func() {
		tg.g.Node(1).Broadcast("x")
		tg.g.Node(1).SendDirectToPeers("y")
	})
	transfers, broadcasts, directs := tg.g.Stats().Snapshot()
	if broadcasts != 1 || directs != 2 {
		t.Fatalf("broadcasts=%d directs=%d", broadcasts, directs)
	}
	// broadcast: 1 forward + 3 sequenced; direct: 1 transfer to each of 2 peers.
	if transfers != 6 {
		t.Fatalf("transfers=%d, want 6", transfers)
	}
}

func TestMembersSortedAndLookup(t *testing.T) {
	tg := newTestGroup(t, 3, 1, 2)
	m := tg.g.Members()
	if m[0] != 1 || m[1] != 2 || m[2] != 3 {
		t.Fatalf("members %v", m)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown member lookup should panic")
		}
	}()
	tg.g.Node(99)
}
