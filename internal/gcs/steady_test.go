package gcs

import (
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/vclock"
)

// What a member does per delivered message must not depend on how many it
// has delivered: these drive handleSequenced and sequence directly, past
// the retention bound, where a log trimmed by shifting paid a copy of the
// whole window per message.

func steadyNode(retention int) *Node {
	g := NewGroup(Config{Clock: vclock.NewVirtual(), Members: []ids.ReplicaID{1, 2},
		Latency: time.Millisecond, SeqRetention: retention})
	n := g.Node(2)
	n.SetDeliver(func(Message) {})
	return n
}

// clientEnv is the sequenced envelope of slot seq in a stream where 16
// clients take turns, each numbering its requests consecutively.
func clientEnv(seq uint64) Envelope {
	return Envelope{Kind: EnvSequenced, Seq: seq,
		Origin: Origin{Client: ids.ClientID(seq % 16), IsClient: true}, UID: seq/16 + 1, Payload: "p"}
}

// BenchmarkDeliverSteadyState delivers one slot per iteration on a node
// that is still below its retention bound (half of it delivered; rebuilt,
// off the clock, whenever it gets there) and on one that has delivered
// eight times the bound: ns/op and B/op of the two must agree.
func BenchmarkDeliverSteadyState(b *testing.B) {
	const retention = DefaultSeqRetention
	filled := func(slots uint64) (*Node, uint64) {
		n := steadyNode(retention)
		seq := uint64(1)
		for ; seq <= slots; seq++ {
			n.handleSequenced(clientEnv(seq))
		}
		return n, seq
	}
	b.Run("delivered=0.5x", func(b *testing.B) {
		n, seq := filled(retention / 2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if seq > retention {
				b.StopTimer()
				n, seq = filled(retention / 2)
				b.StartTimer()
			}
			n.handleSequenced(clientEnv(seq))
			seq++
		}
	})
	b.Run("delivered=8x", func(b *testing.B) {
		n, seq := filled(8 * retention)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.handleSequenced(clientEnv(seq))
			seq++
		}
	})
}

// TestDedupAllocBudget gates the duplicate-suppression path next to the
// scheduler and trace budgets: past its retention bound a member sequences
// and delivers a request of a known origin without allocating for the
// dedup sets or the retained log. What is left are the batches handed on;
// an in-order delivery never touches the hold-back map.
func TestDedupAllocBudget(t *testing.T) {
	const retention = 64
	n := steadyNode(retention)
	seq := uint64(1)
	for ; seq <= 8*retention; seq++ {
		n.handleSequenced(clientEnv(seq))
	}
	deliver := testing.AllocsPerRun(512, func() {
		n.handleSequenced(clientEnv(seq))
		seq++
	})
	if deliver > 0 {
		t.Errorf("delivering the next slot past the retention bound allocates %.2f objects, budget is 0", deliver)
	}

	s := steadyNode(retention)
	uid := uint64(0)
	fwd := func() []Envelope {
		uid++
		return []Envelope{{Kind: EnvForward, Origin: Origin{Client: 3, IsClient: true}, UID: uid, Payload: "p"}}
	}
	for i := 0; i < 8*retention; i++ {
		s.sequence(fwd(), 0, 0)
	}
	assign := testing.AllocsPerRun(512, func() {
		if out := s.sequence(fwd(), 0, 0); len(out) != 1 {
			t.Fatal("a fresh uid was not sequenced")
		}
	})
	if assign > 2 {
		t.Errorf("sequencing a fresh uid allocates %.2f objects, budget is 2 (the forward and the sequenced batch)", assign)
	}
	dup := []Envelope{{Kind: EnvForward, Origin: Origin{Client: 3, IsClient: true}, UID: 1, Payload: "p"}}
	if again := testing.AllocsPerRun(512, func() {
		if out := s.sequence(dup, 0, 0); len(out) != 0 {
			t.Fatal("a retransmission was sequenced twice")
		}
	}); again > 1 {
		t.Errorf("refusing a retransmission allocates %.2f objects, budget is 1", again)
	}
}
