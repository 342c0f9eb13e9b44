package gcs

import (
	"sync"
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/vclock"
)

// TestMemTransportLinkOrder pins when and in what order the simulator's
// links hand batches over on a virtual clock: one Latency after the send,
// FIFO per link, by link rank among links arriving at one instant, and a
// batch sent at another's arrival instant one Latency behind it.
func TestMemTransportLinkOrder(t *testing.T) {
	type rec struct {
		what string
		at   time.Duration
	}
	rig := func(t *testing.T) (*vclock.Virtual, *memTransport, Origin, func() []rec) {
		v := vclock.NewVirtual()
		g := NewGroup(Config{Clock: v, Members: []ids.ReplicaID{1}, Latency: time.Millisecond})
		tr := g.tr.(*memTransport)
		to := Origin{Client: 9, IsClient: true}
		var mu sync.Mutex
		var got []rec
		tr.Bind(to, func(envs ...Envelope) {
			mu.Lock()
			defer mu.Unlock()
			for _, e := range envs {
				got = append(got, rec{e.Payload.(string), v.Now()})
			}
		})
		return v, tr, to, func() []rec {
			mu.Lock()
			defer mu.Unlock()
			return append([]rec(nil), got...)
		}
	}
	run := func(t *testing.T, v *vclock.Virtual, fn func()) {
		t.Helper()
		done := make(chan struct{})
		v.Go(func() {
			defer close(done)
			fn()
			v.Sleep(time.Second)
		})
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatal("timed out")
		}
	}
	env := func(p string) Envelope { return Envelope{Kind: EnvDirect, Payload: p} }
	check := func(t *testing.T, got []rec, want ...rec) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("arrived %v, want %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("arrived %v, want %v", got, want)
			}
		}
	}
	ms := time.Millisecond

	t.Run("one link at one instant keeps send order", func(t *testing.T) {
		v, tr, to, got := rig(t)
		run(t, v, func() {
			tr.Send("a", to, env("1"), env("2"))
			tr.Send("a", to, env("3"))
			tr.Send("a", to, env("4"))
		})
		check(t, got(), rec{"1", ms}, rec{"2", ms}, rec{"3", ms}, rec{"4", ms})
	})

	t.Run("two links at one instant go by link rank", func(t *testing.T) {
		// "a" ranks below "b" (fnv32), so it arrives first though sent last.
		if fnv32("a") >= fnv32("b") {
			t.Fatalf("fnv32(a) = %d, fnv32(b) = %d: pick two other keys", fnv32("a"), fnv32("b"))
		}
		v, tr, to, got := rig(t)
		run(t, v, func() {
			tr.Send("b", to, env("b1"))
			tr.Send("a", to, env("a1"))
			tr.Send("b", to, env("b2"))
			tr.Send("a", to, env("a2"))
		})
		check(t, got(), rec{"a1", ms}, rec{"a2", ms}, rec{"b1", ms}, rec{"b2", ms})
	})

	t.Run("a batch sent at another's arrival arrives behind it", func(t *testing.T) {
		v, tr, to, got := rig(t)
		run(t, v, func() {
			tr.Send("b", to, env("first"))
			v.Sleep(ms) // wakes at the arrival instant of "first"
			tr.Send("b", to, env("same link"))
			tr.Send("a", to, env("lower rank"))
		})
		check(t, got(), rec{"first", ms}, rec{"lower rank", 2 * ms}, rec{"same link", 2 * ms})
	})
}
