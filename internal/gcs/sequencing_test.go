package gcs

import (
	"sync"
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/vclock"
)

// TestTickPolicy pins the load-responsive tick: what the sequencer parks
// for after a drain, and which arrivals cut a park short.
func TestTickPolicy(t *testing.T) {
	const (
		ms     = time.Millisecond
		base   = 2 * ms
		detect = 50 * ms
	)
	for _, c := range []struct {
		name              string
		base, detect, cur time.Duration
		drained           int
		want              time.Duration
	}{
		{"threshold drain parks base/4", base, detect, base, drainThreshold, base / 4},
		{"above the threshold too", base, detect, 8 * ms, 10 * drainThreshold, base / 4},
		{"base/4 is floored at 100us", 200 * time.Microsecond, detect, 200 * time.Microsecond, drainThreshold, 100 * time.Microsecond},
		{"the floor never exceeds the base", 50 * time.Microsecond, detect, 50 * time.Microsecond, drainThreshold, 50 * time.Microsecond},
		{"non-empty drain holds the base", base, detect, base / 4, 1, base},
		{"non-empty drain ends an idle stretch", base, detect, 8 * ms, drainThreshold - 1, base},
		{"idle doubles", base, detect, base, 0, 2 * base},
		{"idle doubles again", base, detect, 2 * base, 0, 4 * base},
		{"idle stops at 4x base", base, detect, 4 * base, 0, 4 * base},
		{"idle after a saturated park returns to the base", base, detect, base / 4, 0, base},
		{"the cap tracks detect/4", base, 20 * ms, 4 * ms, 0, 5 * ms},
		{"a detect window under 4x base never shrinks the tick", base, 4 * ms, base, 0, base},
	} {
		if got := nextTick(c.base, c.detect, c.cur, c.drained); got != c.want {
			t.Errorf("%s: nextTick(%v, %v, %v, %d) = %v, want %v", c.name, c.base, c.detect, c.cur, c.drained, got, c.want)
		}
	}
	for _, c := range []struct {
		name            string
		cur             time.Duration
		queued, arrived int
		want            bool
	}{
		{"first arrival into an idle-stretched park", 2 * base, 1, 1, true},
		{"a burst into an empty stretched queue", 4 * base, 5, 5, true},
		{"first arrival at the base tick waits it out", base, 1, 1, false},
		{"first arrival in a saturated park waits it out", base / 4, 1, 1, false},
		{"a later arrival into a stretched park already kicked", 4 * base, 2, 1, false},
		{"reaching the threshold", base, drainThreshold, 1, true},
		{"one short of the threshold", base, drainThreshold - 1, 1, false},
	} {
		if got := kicksTick(base, c.cur, c.queued, c.arrived); got != c.want {
			t.Errorf("%s: kicksTick(%v, %v, %d, %d) = %v, want %v", c.name, base, c.cur, c.queued, c.arrived, got, c.want)
		}
	}
}

// TestInjectSchedulesBatchBeforeRaisingHorizon pins the order inside
// inject: every sequenced envelope of a batch is on the virtual timeline
// before the horizon lets the clock reach any of them. A tick batch shares
// one stamp; with the horizon raised after the first envelope, the clock
// delivers it — a nested outcome resumes its thread — while the injecting
// goroutine has yet to schedule the same-instant request behind it. The
// direct envelope between the two is handed over on the injecting
// goroutine, which is where the test looks.
func TestInjectSchedulesBatchBeforeRaisingHorizon(t *testing.T) {
	v := vclock.NewVirtual()
	v.EnablePacing(false) // follower: nothing fires beyond the horizon
	g := NewGroup(Config{
		Clock:         v,
		Members:       []ids.ReplicaID{1, 2},
		Local:         []ids.ReplicaID{2},
		Transport:     &nullTransport{},
		DetectTimeout: time.Minute, // no election while the test runs
	})
	defer g.Close()

	const stamp = 10 * time.Millisecond
	var mu sync.Mutex
	var order []uint64
	var at []time.Duration
	first := make(chan struct{})
	enqueue := func(e Envelope) {
		switch e.Kind {
		case EnvSequenced:
			mu.Lock()
			order = append(order, e.Seq)
			at = append(at, v.Now())
			mu.Unlock()
			if e.Seq == 1 {
				close(first)
			}
		case EnvDirect:
			select {
			case <-first:
				t.Error("slot 1 was delivered before same-stamp slot 2 was scheduled")
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
	me, seq := Origin{Replica: 2}, Origin{Replica: 1}
	g.inject(enqueue,
		Envelope{Kind: EnvSequenced, Seq: 1, Origin: seq, UID: 1, From: seq, To: me, Stamp: stamp, Payload: "outcome"},
		Envelope{Kind: EnvDirect, From: seq, To: me},
		Envelope{Kind: EnvSequenced, Seq: 2, Origin: seq, UID: 2, From: seq, To: me, Stamp: stamp, Payload: "request"},
		Envelope{Kind: EnvHorizon, From: seq, To: me, Stamp: stamp + time.Millisecond},
	)
	// The horizon covers the heartbeat's stamp too: a timer there fires.
	beyond := make(chan struct{})
	v.ScheduleAt(stamp+time.Millisecond, injectOrder, "probe", func() { close(beyond) })
	select {
	case <-beyond:
	case <-time.After(5 * time.Second):
		t.Fatal("horizon stayed below the batch's heartbeat stamp")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("delivery order %v, want [1 2]", order)
	}
	if at[0] != stamp || at[1] != stamp {
		t.Fatalf("delivered at %v, want both at %v", at, stamp)
	}
}

// recordingTransport hands every send toward a remote member to the test.
type recordingTransport struct {
	nullTransport
	sent chan []Envelope
}

func (r *recordingTransport) Send(_ string, to Origin, envs ...Envelope) {
	if to == (Origin{Replica: 2}) {
		r.sent <- envs
	}
}

// TestDrainsAtOneInstantGetIncreasingStamps pins stamp monotonicity
// across ticks. A kick drains at whatever virtual instant the sequencer's
// clock shows, so two drains can happen at one instant; were they to
// share now+Budget as their stamp, a follower that had already executed
// the first batch at that instant would admit the second behind work the
// sequencer itself — which saw both batches before the instant arrived —
// ran after it, and the replicas' lock orders fork.
func TestDrainsAtOneInstantGetIncreasingStamps(t *testing.T) {
	v := vclock.NewVirtual()
	v.EnablePacing(true) // leader
	tr := &recordingTransport{sent: make(chan []Envelope, 4)}
	// Tick and Budget of an hour: no timer comes due, the clock stays at 0.
	g := NewGroup(Config{
		Clock: v, Members: []ids.ReplicaID{1, 2}, Local: []ids.ReplicaID{1},
		Transport: tr, Tick: time.Hour, Budget: time.Hour, DetectTimeout: time.Minute,
	})
	defer g.Close()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		g.fwdMu.Lock()
		started := g.tickParker != nil
		g.fwdMu.Unlock()
		if started {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tick loop did not start")
		}
	}
	// A threshold-sized burst of forwards kicks a drain on the spot.
	drain := func(firstUID uint64) time.Duration {
		t.Helper()
		me, client := Origin{Replica: 1}, Origin{Client: 7, IsClient: true}
		burst := make([]Envelope, drainThreshold)
		for i := range burst {
			burst[i] = Envelope{Kind: EnvForward, Origin: client, UID: firstUID + uint64(i), To: me, Payload: "req"}
		}
		tr.deliverTo(me, burst...)
		select {
		case envs := <-tr.sent:
			if len(envs) != drainThreshold+1 || envs[drainThreshold].Kind != EnvHorizon {
				t.Fatalf("tick frame carries %d envelopes, want %d sequenced and the heartbeat", len(envs), drainThreshold)
			}
			for _, e := range envs {
				if e.Stamp != envs[0].Stamp {
					t.Fatalf("one tick, two stamps: %v and %v", envs[0].Stamp, e.Stamp)
				}
			}
			return envs[0].Stamp
		case <-time.After(5 * time.Second):
			t.Fatal("no drain after a threshold-sized burst")
			return 0
		}
	}
	first, second := drain(1), drain(1000)
	if now := v.Now(); now != 0 {
		t.Fatalf("the clock moved to %v; the drains were not at one instant", now)
	}
	if first != time.Hour || second <= first {
		t.Fatalf("stamps %v then %v, want %v and then a later one", first, second, time.Hour)
	}
}
