package gcs

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/vclock"
)

// TestTickPolicy pins the pure function left of the sequencing policy:
// which arrivals wake the loop. With none arriving it parks for one tick
// (TestIdleHeartbeatEveryTick).
func TestTickPolicy(t *testing.T) {
	for _, c := range []struct {
		name            string
		queued, arrived int
		want            bool
	}{
		{"first arrival into an empty queue", 1, 1, true},
		{"a burst into an empty queue", 5, 5, true},
		{"a later arrival rides the drain already woken", 2, 1, false},
		{"a burst behind a queued forward", 6, 5, false},
		{"however deep the queue", 1000, 1, false},
	} {
		if got := kicksTick(c.queued, c.arrived); got != c.want {
			t.Errorf("%s: kicksTick(%d, %d) = %v, want %v", c.name, c.queued, c.arrived, got, c.want)
		}
	}
}

// TestInjectSchedulesBatchBeforeRaisingHorizon pins the order inside
// inject: every sequenced envelope of a batch is on the virtual timeline
// before the horizon lets the clock reach any of them. A tick batch shares
// one stamp; with the horizon raised after the first envelope, the clock
// delivers it — a nested outcome resumes its thread — while the injecting
// goroutine has yet to schedule the same-instant request behind it. The
// test passes inject an enqueue that hands the sequenced envelopes to the
// node and holds the direct one between them on the injecting goroutine,
// which is where it looks.
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
	node := g.Node(2)
	node.SetDeliver(func(m Message) {
		mu.Lock()
		order = append(order, m.Seq)
		at = append(at, v.Now())
		mu.Unlock()
		if m.Seq == 1 {
			close(first)
		}
	})
	enqueue := func(e Envelope) {
		switch e.Kind {
		case EnvSequenced:
			node.enqueue(e)
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
	v.ScheduleAt(stamp+time.Millisecond, tickOrder, func() { close(beyond) })
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

// TestStampedSlotIsOneClockEvent is the census of the stamped delivery
// path: a slot that arrives from the transport reaches the node's deliver
// handler through exactly one clock event, the one at its stamp, and
// same-stamp slots fire in slot order whatever order they arrived in, so
// the k-th event delivers slot k (none waits in the hold-back queue).
func TestStampedSlotIsOneClockEvent(t *testing.T) {
	v := vclock.NewVirtual()
	v.EnablePacing(false) // follower: nothing fires beyond the horizon
	tr := &nullTransport{}
	g := NewGroup(Config{
		Clock:         v,
		Members:       []ids.ReplicaID{1, 2},
		Local:         []ids.ReplicaID{2},
		Transport:     tr,
		DetectTimeout: time.Minute, // no election while the test runs
	})
	defer g.Close()

	me, seq := Origin{Replica: 2}, Origin{Replica: 1}
	slot := func(n uint64, stamp time.Duration) Envelope {
		return Envelope{Kind: EnvSequenced, Seq: n, Origin: seq, UID: n, From: seq, To: me, Stamp: stamp, Payload: n}
	}
	hz := func(stamp time.Duration) Envelope { return Envelope{Kind: EnvHorizon, From: seq, To: me, Stamp: stamp} }
	const ms = time.Millisecond
	frames := [][]Envelope{
		{slot(2, 10*ms), slot(1, 10*ms), slot(3, 10*ms), hz(10 * ms)},
		{slot(4, 11*ms), hz(11 * ms)},
		{slot(6, 12*ms), slot(5, 12*ms), hz(12 * ms)},
	}
	const slots = 6
	var mu sync.Mutex
	var got, firedAt []uint64
	all := make(chan struct{})
	before := v.Fired()
	g.Node(2).SetDeliver(func(m Message) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, m.Seq)
		firedAt = append(firedAt, v.Fired()-before)
		if len(got) == slots {
			close(all)
		}
	})
	tr.mu.Lock()
	deliver := tr.binds[me]
	tr.mu.Unlock()
	for _, f := range frames {
		deliver(f...)
	}
	select {
	case <-all:
	case <-time.After(5 * time.Second):
		t.Fatal("slots were not delivered")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, s := range got {
		if s != uint64(i+1) {
			t.Fatalf("delivered slots %v, want 1..%d", got, slots)
		}
	}
	if fired := v.Fired() - before; fired != slots {
		t.Fatalf("%d clock events for %d delivered slots (%.3f a slot), want exactly one a slot",
			fired, slots, float64(fired)/slots)
	}
	for i, f := range firedAt {
		if f != uint64(i+1) {
			t.Fatalf("slots delivered by events %v, want slot k by the k-th event", firedAt)
		}
	}
}

// recordingTransport hands every send toward member 2 to the test. A test
// that locks hold keeps the sender inside Send until it unlocks.
type recordingTransport struct {
	nullTransport
	hold sync.Mutex
	sent chan []Envelope
}

func (r *recordingTransport) Send(_ string, to Origin, envs ...Envelope) {
	if to == (Origin{Replica: 2}) {
		r.hold.Lock()
		defer r.hold.Unlock()
		r.sent <- envs
	}
}

// countingParker counts the wake-ups inject sends the sequencing loop.
type countingParker struct {
	vclock.Parker
	unparks atomic.Int32
}

func (p *countingParker) Unpark() {
	p.unparks.Add(1)
	p.Parker.Unpark()
}

// sequencingRig is a two-member group on a paced virtual clock whose
// process hosts member local; member 1 sequences. The recording transport
// drops the sequencer's copy for its own member, so no drain schedules a
// delivery here, and Tick is an hour unless a test asks for another: then
// no timer comes due and the clock stays at 0, so whatever the loop does,
// an arrival (or the test) woke it.
type sequencingRig struct {
	v     *vclock.Virtual
	tr    *recordingTransport
	g     *Group
	wakes *countingParker
}

func newSequencingRig(t *testing.T, local ids.ReplicaID) *sequencingRig {
	return newTickingRig(t, local, time.Hour)
}

func newTickingRig(t *testing.T, local ids.ReplicaID, tick time.Duration) *sequencingRig {
	t.Helper()
	r := &sequencingRig{v: vclock.NewVirtual(), tr: &recordingTransport{sent: make(chan []Envelope, 4)}}
	r.v.EnablePacing(local == 1)
	r.g = NewGroup(Config{
		Clock: r.v, Members: []ids.ReplicaID{1, 2}, Local: []ids.ReplicaID{local},
		Transport: r.tr, Tick: tick, DetectTimeout: time.Minute,
	})
	t.Cleanup(func() { r.g.Close() })
	r.waitFor(t, "the sequencing loop to start", func() bool { return r.g.tickParker != nil })
	r.g.fwdMu.Lock()
	r.wakes = &countingParker{Parker: r.g.tickParker}
	r.g.tickParker = r.wakes
	r.g.fwdMu.Unlock()
	return r
}

// waitFor polls cond under fwdMu.
func (r *sequencingRig) waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		r.g.fwdMu.Lock()
		ok := cond()
		r.g.fwdMu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// forward delivers n client forwards to member to in one transport call.
func (r *sequencingRig) forward(to ids.ReplicaID, firstUID uint64, n int) {
	burst := make([]Envelope, n)
	for i := range burst {
		burst[i] = Envelope{Kind: EnvForward, Origin: Origin{Client: 7, IsClient: true}, UID: firstUID + uint64(i), To: Origin{Replica: to}, Payload: "req"}
	}
	r.tr.deliverTo(Origin{Replica: to}, burst...)
}

// frame returns the next frame sent toward member 2 after checking its
// shape: the sequenced UIDs in want order, every envelope under one stamp,
// the heartbeat last. server.beatTap recognises a frame's heartbeat by that
// position, and closeTail reads its count as "the sequencer's link is up and
// everything it fanned out before is buffered here": a heartbeat anywhere
// but last is either not counted (a rejoiner with an empty buffer never goes
// live) or counted ahead of slots it should follow.
func (r *sequencingRig) frame(t *testing.T, want ...uint64) []Envelope {
	t.Helper()
	select {
	case envs := <-r.tr.sent:
		if len(envs) != len(want)+1 || envs[len(want)].Kind != EnvHorizon {
			t.Fatalf("frame carries %d envelopes, want %d sequenced and the heartbeat last: %+v", len(envs), len(want), envs)
		}
		for i, e := range envs {
			if e.Stamp != envs[0].Stamp {
				t.Fatalf("one drain, two stamps: %v and %v", envs[0].Stamp, e.Stamp)
			}
			if i < len(want) && (e.Kind != EnvSequenced || e.UID != want[i]) {
				t.Fatalf("envelope %d is kind %v uid %d, want sequenced uid %d (arrival order)", i, e.Kind, e.UID, want[i])
			}
			if i > 0 && i < len(want) && e.Seq != envs[i-1].Seq+1 {
				t.Fatalf("slots %d then %d, want consecutive", envs[i-1].Seq, e.Seq)
			}
		}
		return envs
	case <-time.After(5 * time.Second):
		t.Fatalf("no frame toward the follower (want uids %v)", want)
		return nil
	}
}

// TestArrivalDrivenSequencing pins the kick rule at work: a request is
// sequenced when it reaches the sequencer, and what arrives while a drain
// is under way leaves together in the next one.
func TestArrivalDrivenSequencing(t *testing.T) {
	r := newSequencingRig(t, 1)

	// (a) ONE forward is sequenced and fanned out with no timer coming due.
	r.forward(1, 1, 1)
	first := r.frame(t, 1)
	if first[0].Stamp != time.Nanosecond {
		t.Fatalf("stamp %v, want now+1ns = %v", first[0].Stamp, time.Nanosecond)
	}

	// (b) Forwards that arrive while the fan-out of a drain is held up leave
	// in ONE frame, in arrival order, and cost one wake-up between them.
	r.tr.hold.Lock()
	r.forward(1, 2, 1)
	r.waitFor(t, "the loop to take uid 2", func() bool { return len(r.g.fwdQ) == 0 })
	before := r.wakes.unparks.Load()
	r.forward(1, 3, 1)
	r.forward(1, 4, 2)
	r.forward(1, 6, 1)
	if got := r.wakes.unparks.Load() - before; got != 1 {
		t.Fatalf("%d wake-ups for three arrivals behind a held drain, want 1 (the first into the empty queue)", got)
	}
	r.tr.hold.Unlock()
	r.frame(t, 2)
	batch := r.frame(t, 3, 4, 5, 6)
	if batch[0].Stamp <= first[0].Stamp {
		t.Fatalf("stamps %v then %v, want rising", first[0].Stamp, batch[0].Stamp)
	}

	// (c) A round with nothing queued — the timer's only job now — still
	// multicasts the lone heartbeat, under a stamp of its own.
	r.g.tickParker.Unpark()
	if hb := r.frame(t); hb[0].Stamp <= batch[0].Stamp {
		t.Fatalf("heartbeat stamp %v after %v, want rising", hb[0].Stamp, batch[0].Stamp)
	}

	if now := r.v.Now(); now != 0 {
		t.Fatalf("the clock moved to %v: a timer came due", now)
	}
	got := r.g.SequencerStats()
	got.QueueWaitP50Ms, got.QueueWaitP99Ms = 0, 0 // wall clock
	if want := (SequencerStats{Drains: 3, Sequenced: 6, MaxBatch: 4}); got != want {
		t.Fatalf("sequencer stats %v, want %v", got, want)
	}
}

// TestIdleHeartbeatEveryTick: with nothing arriving, the sequencer
// multicasts a heartbeat every tick and never stretches the interval. The
// heartbeat is the only thing that raises a follower's clock horizon
// between arrivals, so a follower whose work ends between two of them
// waits for the next.
func TestIdleHeartbeatEveryTick(t *testing.T) {
	const tick = 2 * time.Millisecond
	r := newTickingRig(t, 1, tick)
	prev := r.frame(t)[0].Stamp
	for i := 0; i < 4; i++ {
		hb := r.frame(t)[0].Stamp
		if hb-prev != tick {
			t.Fatalf("idle heartbeats stamped %v then %v, want %v apart", prev, hb, tick)
		}
		prev = hb
	}
}

// TestFollowerIsNotWokenIntoSequencing: (d) a process that does not host
// the sequencer keeps a stray forward queued (a takeover may make it the
// sequencer) but its loop is not woken for it.
func TestFollowerIsNotWokenIntoSequencing(t *testing.T) {
	r := newSequencingRig(t, 2)
	r.forward(2, 1, 1)
	r.forward(2, 2, 1)
	if got := r.wakes.unparks.Load(); got != 0 {
		t.Fatalf("%d wake-ups on a process that does not host the sequencer, want 0", got)
	}
	r.waitFor(t, "both forwards queued", func() bool { return len(r.g.fwdQ) == 2 })
	select {
	case envs := <-r.tr.sent:
		t.Fatalf("the follower fanned out %+v", envs)
	default:
	}
	if st := r.g.SequencerStats(); st.Drains != 0 {
		t.Fatalf("the follower drained: %+v", st)
	}
}

// TestDrainsAtOneInstantGetIncreasingStamps pins stamp monotonicity
// across drains. A drain happens at whatever virtual instant the
// sequencer's clock shows, and with one drain per arrival consecutive
// drains share an instant as a rule; were they to share now+1ns as their
// stamp, a follower that had already executed the first batch at that
// instant would admit the second behind work the sequencer itself — which
// saw both batches before the instant arrived — ran after it, and the
// replicas' lock orders fork.
func TestDrainsAtOneInstantGetIncreasingStamps(t *testing.T) {
	r := newSequencingRig(t, 1)
	drain := func(firstUID uint64, n int) time.Duration {
		t.Helper()
		want := make([]uint64, n)
		for i := range want {
			want[i] = firstUID + uint64(i)
		}
		r.forward(1, firstUID, n)
		return r.frame(t, want...)[0].Stamp
	}
	first, second, third := drain(1, 1), drain(1000, 64), drain(2000, 3)
	if now := r.v.Now(); now != 0 {
		t.Fatalf("the clock moved to %v; the drains were not at one instant", now)
	}
	if first != time.Nanosecond || second <= first || third <= second {
		t.Fatalf("stamps %v, %v, %v: want %v and then strictly later ones", first, second, third, time.Nanosecond)
	}
}

// loopbackTransport hands a send toward a member bound in this process
// straight to it, as the wire transport does, and records the virtual
// instant of the first sequenced send: the instant the drain happened.
type loopbackTransport struct {
	nullTransport
	v         *vclock.Virtual
	mu        sync.Mutex
	drainedAt time.Duration
	drained   bool
}

func (l *loopbackTransport) Send(_ string, to Origin, envs ...Envelope) {
	l.mu.Lock()
	if !l.drained && len(envs) > 0 && envs[0].Kind == EnvSequenced {
		l.drainedAt, l.drained = l.v.Now(), true
	}
	l.mu.Unlock()
	l.deliverTo(to, envs...)
}

// TestSequencerRunsItsDrainAtOnce: the sequencer's own replica receives a
// drained request at the next instant of its clock, so it starts the
// request as soon as wall time allows and its reply can be the first
// the client gets. The stamp stays strictly above the drain's instant, so the
// replica still runs the slot at its stamp.
func TestSequencerRunsItsDrainAtOnce(t *testing.T) {
	v := vclock.NewVirtual()
	v.EnablePacing(true)
	tr := &loopbackTransport{v: v}
	g := NewGroup(Config{
		Clock: v, Members: []ids.ReplicaID{1, 2}, Local: []ids.ReplicaID{1},
		Transport: tr, Tick: time.Hour, DetectTimeout: time.Minute,
	})
	defer g.Close()
	got := make(chan time.Duration, 1)
	g.Node(1).SetDeliver(func(Message) { got <- v.Now() })
	(&sequencingRig{g: g}).waitFor(t, "the sequencing loop to start", func() bool { return g.tickParker != nil })

	tr.deliverTo(Origin{Replica: 1}, Envelope{Kind: EnvForward, Origin: Origin{Client: 7, IsClient: true}, UID: 1, To: Origin{Replica: 1}, Payload: "req"})
	select {
	case at := <-got:
		tr.mu.Lock()
		drainedAt := tr.drainedAt
		tr.mu.Unlock()
		if gap := at - drainedAt; gap <= 0 || gap >= time.Microsecond {
			t.Fatalf("drained at %v, delivered to the sequencer's member at %v: gap %v, want above 0 and below 1µs", drainedAt, at, gap)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the sequencer's member never received the drained forward")
	}
}
