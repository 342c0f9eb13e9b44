package gcs

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/vclock"
)

// TestEndpointDeliveryOrder pins how an endpoint hands envelopes to its
// handler on a virtual clock: at the instant they were put, one per
// quiescent point, ranked by endpoint among same-instant deliveries and
// FIFO within one endpoint, and never after Halt.
func TestEndpointDeliveryOrder(t *testing.T) {
	type rec struct {
		what string
		at   time.Duration
	}
	rig := func(t *testing.T) (*vclock.Virtual, *Group, func(string), func() []rec) {
		v := vclock.NewVirtual()
		g := NewGroup(Config{Clock: v, Members: []ids.ReplicaID{1, 2, 3}, Latency: time.Millisecond})
		var mu sync.Mutex
		var got []rec
		record := func(what string) {
			mu.Lock()
			got = append(got, rec{what, v.Now()})
			mu.Unlock()
		}
		return v, g, record, func() []rec {
			mu.Lock()
			defer mu.Unlock()
			return append([]rec(nil), got...)
		}
	}
	direct := func(p string) Envelope { return Envelope{Kind: EnvDirect, Payload: p} }
	run := func(t *testing.T, v *vclock.Virtual, fn func()) {
		t.Helper()
		done := make(chan struct{})
		v.Go(func() {
			defer close(done)
			v.Sleep(3 * time.Millisecond)
			fn()
			v.Sleep(time.Second)
		})
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatal("timed out")
		}
	}
	check := func(t *testing.T, got []rec, want ...string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("delivered %v, want %v", got, want)
		}
		for i, r := range got {
			if r.what != want[i] || r.at != 3*time.Millisecond {
				t.Fatalf("delivered %v, want %v all at 3ms", got, want)
			}
		}
	}

	t.Run("rank order across endpoints", func(t *testing.T) {
		v, g, record, got := rig(t)
		for _, id := range []ids.ReplicaID{1, 2, 3} {
			id := id
			g.Node(id).SetDirect(func(_ Origin, p Payload) { record(id.String() + ":" + p.(string)) })
		}
		run(t, v, func() {
			g.Node(3).put(direct("a"))
			g.Node(2).put(direct("b"))
			g.Node(1).put(direct("c"))
			g.Node(3).put(direct("d"))
		})
		check(t, got(), "R1:c", "R2:b", "R3:a", "R3:d")
	})

	t.Run("FIFO and one per quiescent point", func(t *testing.T) {
		v, g, record, got := rig(t)
		g.Node(1).SetDirect(func(_ Origin, p Payload) {
			s := p.(string)
			record(s)
			// A goroutine the handler starts runs before the next envelope
			// of the same endpoint is handed over, however long it takes to
			// get scheduled.
			v.Go(func() {
				for i := 0; i < 100; i++ {
					runtime.Gosched()
				}
				record(s + "-child")
			})
		})
		run(t, v, func() {
			for _, s := range []string{"e1", "e2", "e3"} {
				g.Node(1).put(direct(s))
			}
		})
		check(t, got(), "e1", "e1-child", "e2", "e2-child", "e3", "e3-child")
	})

	t.Run("Halt drops what has not been handed over", func(t *testing.T) {
		v, g, record, got := rig(t)
		n := g.Node(1)
		n.SetDirect(func(_ Origin, p Payload) { record(p.(string)) })
		run(t, v, func() {
			n.put(direct("before"))
			n.Halt()
			n.put(direct("after"))
		})
		check(t, got())
	})
}

// nopTransport carries nothing: a client-only group on a real clock over
// it is what a load generator or gateway builds on the wire transport.
type nopTransport struct{}

func (nopTransport) Bind(Origin, func(...Envelope))   {}
func (nopTransport) Send(string, Origin, ...Envelope) {}
func (nopTransport) Close() error                     { return nil }

// On a real clock put runs the handler on the caller's goroutine: a
// client's reply handler has run by the time put returns, with no
// goroutine started on the way, and callers on several links still hand
// over one envelope at a time.
func TestRealClockReplyRunsOnCaller(t *testing.T) {
	g := NewGroup(Config{Clock: vclock.NewReal(), Members: []ids.ReplicaID{1, 2, 3}, Local: []ids.ReplicaID{}, Transport: nopTransport{}})
	c := g.NewClientEndpoint(1)
	var mu sync.Mutex
	last := -1
	c.SetOnReply(func(_ ids.ReplicaID, p Payload) {
		mu.Lock()
		last = p.(int)
		mu.Unlock()
	})
	for i := 0; i < 100; i++ {
		c.put(Envelope{Kind: EnvDirect, From: Origin{Replica: 1}, Payload: i})
		mu.Lock()
		got := last
		mu.Unlock()
		if got != i {
			t.Fatalf("after put %d the handler had seen %d", i, got)
		}
	}

	var inside, overlaps atomic.Int32
	c.SetOnReply(func(ids.ReplicaID, Payload) {
		if inside.Add(1) > 1 {
			overlaps.Add(1)
		}
		runtime.Gosched()
		inside.Add(-1)
	})
	var wg sync.WaitGroup
	for r := 1; r <= 3; r++ {
		wg.Add(1)
		go func(from ids.ReplicaID) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.put(Envelope{Kind: EnvDirect, From: Origin{Replica: from}, Payload: i})
			}
		}(ids.ReplicaID(r))
	}
	wg.Wait()
	if n := overlaps.Load(); n > 0 {
		t.Fatalf("%d handler calls overlapped another", n)
	}
}

// The in-memory transport runs on a virtual clock only.
func TestMemTransportNeedsVirtualClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGroup built the in-memory transport on a real clock")
		}
	}()
	NewGroup(Config{Clock: vclock.NewReal(), Members: []ids.ReplicaID{1}, Local: []ids.ReplicaID{}})
}
