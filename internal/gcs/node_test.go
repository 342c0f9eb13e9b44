package gcs

import (
	"sync"
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/vclock"
)

// These tests drive node internals directly (synthetic envelopes) to
// exercise paths the uniform-latency transport cannot produce naturally:
// out-of-order sequenced deliveries, duplicate slots, and stale forwards.

func newBareNode(t *testing.T) (*Node, *[]Message, *vclock.Virtual) {
	t.Helper()
	v := vclock.NewVirtual()
	g := NewGroup(Config{Clock: v, Members: []ids.ReplicaID{1, 2}, Latency: time.Millisecond})
	n := g.Node(2)
	var mu sync.Mutex
	delivered := &[]Message{}
	n.SetDeliver(func(m Message) {
		mu.Lock()
		*delivered = append(*delivered, m)
		mu.Unlock()
	})
	return n, delivered, v
}

func seqEnv(seq uint64, origin ids.ReplicaID, uid uint64, payload Payload) Envelope {
	return Envelope{
		Kind:    EnvSequenced,
		Seq:     seq,
		Origin:  Origin{Replica: origin},
		UID:     uid,
		Payload: payload,
	}
}

func TestHoldbackReordersGaps(t *testing.T) {
	n, delivered, _ := newBareNode(t)
	// Deliver 3, 1, 2: the hold-back queue must emit 1, 2, 3.
	n.handleSequenced(seqEnv(3, 1, 3, "c"))
	if len(*delivered) != 0 {
		t.Fatalf("delivered before the gap filled: %v", *delivered)
	}
	n.handleSequenced(seqEnv(1, 1, 1, "a"))
	n.handleSequenced(seqEnv(2, 1, 2, "b"))
	got := *delivered
	if len(got) != 3 {
		t.Fatalf("delivered %d", len(got))
	}
	for i, want := range []string{"a", "b", "c"} {
		if got[i].Payload != want || got[i].Seq != uint64(i+1) {
			t.Fatalf("delivery %d: %+v", i, got[i])
		}
	}
}

func TestDuplicateSequencedSlotIgnored(t *testing.T) {
	n, delivered, _ := newBareNode(t)
	n.handleSequenced(seqEnv(1, 1, 1, "a"))
	n.handleSequenced(seqEnv(1, 1, 1, "a")) // duplicate of a delivered slot
	if len(*delivered) != 1 {
		t.Fatalf("duplicate slot delivered: %v", *delivered)
	}
}

func TestSequencerDedupsReForwardedBroadcast(t *testing.T) {
	// The sequencer must not assign a second slot to a forward whose
	// original it already sequenced (retransmission after takeover).
	v := vclock.NewVirtual()
	g := NewGroup(Config{Clock: v, Members: []ids.ReplicaID{1, 2}, Latency: time.Millisecond})
	seqNode := g.Node(1)
	var mu sync.Mutex
	var got []Message
	seqNode.SetDeliver(func(m Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})
	fwd := Envelope{Kind: EnvForward, Origin: Origin{Replica: 2}, UID: 7, Payload: "x"}
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		seqNode.handleForward(fwd)
		seqNode.handleForward(fwd) // duplicate forward
		v.Sleep(time.Second)
	})
	<-done
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("sequencer assigned %d slots for one broadcast", len(got))
	}
}

func TestCrashedNodeDropsEnqueues(t *testing.T) {
	n, delivered, v := newBareNode(t)
	n.g.Crash(2)
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		n.enqueue(seqEnv(1, 1, 1, "a"))
		v.Sleep(10 * time.Millisecond)
	})
	<-done
	if len(*delivered) != 0 {
		t.Fatal("crashed node delivered a message")
	}
}

func TestOriginKeyDistinguishesClientsAndReplicas(t *testing.T) {
	// Replica 3 and client 3 are two origins: the same uid from both is two
	// broadcasts, and each of them again is a retransmission.
	n, _, _ := newBareNode(t)
	burst := []Envelope{
		{Kind: EnvForward, Origin: Origin{Replica: 3}, UID: 7, Payload: "r"},
		{Kind: EnvForward, Origin: Origin{Client: 3, IsClient: true}, UID: 7, Payload: "c"},
	}
	if out := n.sequence(burst, 0, 0); len(out) != 2 {
		t.Fatalf("replica and client origins collide: %d of 2 sequenced", len(out))
	}
	if out := n.sequence(burst, 0, 0); len(out) != 0 {
		t.Fatalf("%d retransmissions sequenced again", len(out))
	}
}

func TestFnv32Stable(t *testing.T) {
	if fnv32("a>b") != fnv32("a>b") {
		t.Fatal("hash not stable")
	}
	if fnv32("a>b") == fnv32("b>a") {
		t.Fatal("suspicious collision on reversed key")
	}
}

func TestSendDirectToCrashedTargetDropped(t *testing.T) {
	v := vclock.NewVirtual()
	g := NewGroup(Config{Clock: v, Members: []ids.ReplicaID{1, 2}, Latency: time.Millisecond})
	delivered := 0
	g.Node(2).SetDirect(func(Origin, Payload) { delivered++ })
	g.Crash(2)
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		g.Node(1).SendDirectToPeers("x")
		v.Sleep(10 * time.Millisecond)
	})
	<-done
	if delivered != 0 {
		t.Fatal("message delivered to a crashed node")
	}
	if !g.alive(1) || g.alive(2) {
		t.Fatal("Alive view wrong")
	}
	if p := g.Performer(); p != 1 {
		t.Fatalf("performer %v, want the one live member 1", p)
	}
}

// sendLog records the sends a group makes, then passes them on.
type sendLog struct {
	Transport
	mu    sync.Mutex
	to    []ids.ReplicaID
	slice []*Envelope
}

func (l *sendLog) Send(key string, to Origin, envs ...Envelope) {
	l.mu.Lock()
	l.to = append(l.to, to.Replica)
	l.slice = append(l.slice, &envs[0])
	l.mu.Unlock()
	l.Transport.Send(key, to, envs...)
}

// TestSendDirectToPeers: one call reaches every other live member, in
// membership order, with one envelope slice they all share, and counts
// one direct message and one transfer per recipient.
func TestSendDirectToPeers(t *testing.T) {
	v := vclock.NewVirtual()
	g := NewGroup(Config{Clock: v, Members: []ids.ReplicaID{4, 2, 1, 3}, Latency: time.Millisecond})
	log := &sendLog{Transport: g.tr}
	g.tr = log
	var mu sync.Mutex
	got := map[ids.ReplicaID][]Payload{}
	for _, id := range []ids.ReplicaID{1, 2, 3, 4} {
		g.Node(id).SetDirect(func(from Origin, p Payload) {
			if from != (Origin{Replica: 2}) {
				t.Errorf("direct message to %v from %v", id, from)
			}
			mu.Lock()
			got[id] = append(got[id], p)
			mu.Unlock()
		})
	}
	g.Crash(3)
	transfers, broadcasts, directs := g.Stats().Snapshot()
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		g.Node(2).SendDirectToPeers("d")
		v.Sleep(10 * time.Millisecond)
	})
	<-done

	if len(log.to) != 2 || log.to[0] != 1 || log.to[1] != 4 {
		t.Fatalf("sent to %v, want [1 4]: the live members but the sender, in order", log.to)
	}
	if log.slice[0] != log.slice[1] {
		t.Error("each recipient got its own envelope slice, want one shared")
	}
	if e := *log.slice[0]; e.Kind != EnvDirect || e.From != (Origin{Replica: 2}) || e.Payload != "d" {
		t.Errorf("sent %+v", e)
	}
	if len(got) != 2 || len(got[1]) != 1 || len(got[4]) != 1 {
		t.Errorf("delivered %v, want d once to 1 and to 4", got)
	}
	t2, b2, d2 := g.Stats().Snapshot()
	if t2-transfers != 2 || b2 != broadcasts || d2-directs != 2 {
		t.Errorf("stats moved by %d transfers, %d broadcasts, %d directs; want 2, 0, 2",
			t2-transfers, b2-broadcasts, d2-directs)
	}
}
