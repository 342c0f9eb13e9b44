package gcs

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/vclock"
)

// Recovery-path unit tests: the sequenced-log retention serving donor
// catch-up, the halt switch used by divergence detection, and the
// buffer-then-replay cycle a restarted replica goes through.

func TestSequencedTailServesCatchUp(t *testing.T) {
	v := vclock.NewVirtual()
	g := NewGroup(Config{Clock: v, Members: []ids.ReplicaID{1, 2}, Latency: time.Millisecond})
	n := g.Node(2)
	n.SetDeliver(func(Message) {})
	for seq := uint64(1); seq <= 10; seq++ {
		n.handleSequenced(seqEnv(seq, 1, seq, "p"))
	}

	envs, more, ok := n.SequencedTail(4, 3)
	if !ok || !more || len(envs) != 3 {
		t.Fatalf("tail(4,3): ok=%v more=%v len=%d", ok, more, len(envs))
	}
	for i, e := range envs {
		if e.Seq != uint64(4+i) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
	}
	// Final batch reaches the frontier: no more.
	envs, more, ok = n.SequencedTail(8, 100)
	if !ok || more || len(envs) != 3 {
		t.Fatalf("tail(8,100): ok=%v more=%v len=%d", ok, more, len(envs))
	}
	// At or past the frontier: empty but ok (nothing to say yet).
	if envs, _, ok := n.SequencedTail(11, 10); !ok || len(envs) != 0 {
		t.Fatalf("tail(11): ok=%v len=%d", ok, len(envs))
	}
	if next, highest := n.Frontier(); next != 11 || highest != 10 {
		t.Fatalf("frontier %d/%d", next, highest)
	}
}

func TestSequencedTailRetentionTrims(t *testing.T) {
	v := vclock.NewVirtual()
	g := NewGroup(Config{Clock: v, Members: []ids.ReplicaID{1, 2},
		Latency: time.Millisecond, SeqRetention: 4})
	n := g.Node(2)
	n.SetDeliver(func(Message) {})
	for seq := uint64(1); seq <= 10; seq++ {
		n.handleSequenced(seqEnv(seq, 1, seq, "p"))
	}
	// Only slots 7..10 are retained.
	if _, _, ok := n.SequencedTail(6, 10); ok {
		t.Fatal("trimmed slot 6 served")
	}
	envs, more, ok := n.SequencedTail(7, 10)
	if !ok || more || len(envs) != 4 || envs[0].Seq != 7 {
		t.Fatalf("tail(7): ok=%v more=%v envs=%v", ok, more, envs)
	}
}

// TestSequencedTailRebuildsEnvelopes: the sequenced log keeps a compact
// slot, not the envelope, and SequencedTail rebuilds from it envelopes
// equal in every field a receiver reads to the ones delivered. To is not
// among them: a transport sets it on every send.
func TestSequencedTailRebuildsEnvelopes(t *testing.T) {
	v := vclock.NewVirtual()
	g := NewGroup(Config{Clock: v, Members: []ids.ReplicaID{1, 2}, Latency: time.Millisecond})
	n := g.Node(2)
	n.SetDeliver(func(Message) {})
	var sent []Envelope
	for seq := uint64(1); seq <= 6; seq++ {
		e := Envelope{
			Kind:    EnvSequenced,
			Seq:     seq,
			View:    seq / 3,
			Origin:  Origin{Replica: ids.ReplicaID(seq % 3)},
			UID:     100 + seq,
			From:    Origin{Replica: 1 + ids.ReplicaID(seq/4)},
			To:      Origin{Replica: 2}, // as the TCP transport sets it
			Stamp:   time.Duration(seq) * time.Millisecond,
			Class:   uint32(seq % 4),
			Payload: fmt.Sprint("p", seq),
		}
		if seq%2 == 0 {
			e.Origin = Origin{Client: ids.ClientID(seq), IsClient: true}
		}
		sent = append(sent, e)
		n.handleSequenced(e)
	}
	for _, from := range []uint64{1, 4} {
		envs, _, ok := n.SequencedTail(from, 0)
		if !ok || len(envs) != len(sent)-int(from)+1 {
			t.Fatalf("tail(%d): ok=%v, %d envelopes", from, ok, len(envs))
		}
		for i, got := range envs {
			want := sent[int(from)-1+i]
			want.To = Origin{}
			if got != want {
				t.Errorf("tail(%d) slot %d:\n got  %+v\n want %+v", from, want.Seq, got, want)
			}
		}
	}
}

func TestHaltStopsDelivery(t *testing.T) {
	n, delivered, v := newBareNode(t)
	n.Halt()
	if !n.Halted() {
		t.Fatal("Halted() false after Halt")
	}
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		n.enqueue(seqEnv(1, 1, 1, "a"))
		v.Sleep(10 * time.Millisecond)
	})
	<-done
	if len(*delivered) != 0 {
		t.Fatal("halted node delivered a message")
	}
}

func TestResumeAtSkipsDeliveredPrefix(t *testing.T) {
	n, delivered, _ := newBareNode(t)
	// Slots 1 and 2 arrive out of band (held back / stale duplicates).
	n.handleSequenced(seqEnv(7, 1, 7, "late")) // held back
	n.resumeAt(5)
	// Stale slots below the resume point are duplicates of checkpointed
	// state and must not deliver.
	n.handleSequenced(seqEnv(2, 1, 2, "stale"))
	n.handleSequenced(seqEnv(5, 1, 5, "e"))
	n.handleSequenced(seqEnv(6, 1, 6, "f"))
	got := *delivered
	if len(got) != 3 {
		t.Fatalf("delivered %v", got)
	}
	for i, want := range []uint64{5, 6, 7} {
		if got[i].Seq != want {
			t.Fatalf("delivery %d: seq %d, want %d", i, got[i].Seq, want)
		}
	}
}

// nullTransport swallows sends; recovery tests inject envelopes directly.
type nullTransport struct {
	mu    sync.Mutex
	binds map[Origin]func(...Envelope)
}

func (n *nullTransport) Bind(at Origin, deliver func(...Envelope)) {
	n.mu.Lock()
	if n.binds == nil {
		n.binds = map[Origin]func(...Envelope){}
	}
	n.binds[at] = deliver
	n.mu.Unlock()
}
func (n *nullTransport) Send(string, Origin, ...Envelope) {}
func (n *nullTransport) Close() error                     { return nil }

func (n *nullTransport) deliverTo(at Origin, envs ...Envelope) {
	n.mu.Lock()
	fn := n.binds[at]
	n.mu.Unlock()
	if fn != nil {
		fn(envs...)
	}
}

// TestRecoveryBuffersThenReplays drives the full rejoin cycle of the
// group layer: live traffic arriving during recovery is buffered (the
// clock must not advance), then ResumeLive merges the fetched tail with
// the buffer and replays everything in slot order at the original
// stamps. Directs buffered during recovery are delivered afterwards, not
// dropped.
func TestRecoveryBuffersThenReplays(t *testing.T) {
	v := vclock.NewVirtual()
	v.EnablePacing(false) // follower: each SetHorizon may raise the wall offset
	tr := &nullTransport{}
	g := NewGroup(Config{
		Clock:      v,
		Members:    []ids.ReplicaID{1, 2},
		Local:      []ids.ReplicaID{2},
		Transport:  tr,
		Recovering: true,
	})
	defer g.Close()
	n := g.Node(2)
	var mu sync.Mutex
	var seqs []uint64
	var directs []Payload
	n.SetDeliver(func(m Message) {
		mu.Lock()
		seqs = append(seqs, m.Seq)
		mu.Unlock()
	})
	n.SetDirect(func(_ Origin, p Payload) {
		mu.Lock()
		directs = append(directs, p)
		mu.Unlock()
	})
	me := Origin{Replica: 2}
	stamp := func(seq uint64) time.Duration { return time.Duration(seq) * 10 * time.Millisecond }

	// Live traffic lands while we are still fetching the checkpoint.
	live := []Envelope{
		{Kind: EnvSequenced, Seq: 8, Origin: Origin{Replica: 1}, UID: 8, To: me, Stamp: stamp(8), Payload: "l8"},
		{Kind: EnvDirect, From: Origin{Replica: 1}, To: me, Payload: "lsa"},
		{Kind: EnvSequenced, Seq: 9, Origin: Origin{Replica: 1}, UID: 9, To: me, Stamp: stamp(9), Payload: "l9"},
		{Kind: EnvHorizon, To: me, Stamp: stamp(12)},
	}
	tr.deliverTo(me, live...)
	if min, max, count := g.BufferedSeqRange(); min != 8 || max != 9 || count != 2 {
		t.Fatalf("buffered range %d..%d (%d)", min, max, count)
	}
	if !g.Recovering() {
		t.Fatal("left recovery mode early")
	}

	// The donor's tail covers slots 6..8 (overlapping the buffer at 8).
	tail := []Envelope{
		{Kind: EnvSequenced, Seq: 6, Origin: Origin{Replica: 1}, UID: 6, To: me, Stamp: stamp(6), Payload: "t6"},
		{Kind: EnvSequenced, Seq: 7, Origin: Origin{Replica: 1}, UID: 7, To: me, Stamp: stamp(7), Payload: "t7"},
		{Kind: EnvSequenced, Seq: 8, Origin: Origin{Replica: 1}, UID: 8, To: me, Stamp: stamp(8), Payload: "t8"},
	}
	g.ResumeLive(6, tail)
	if g.Recovering() {
		t.Fatal("still recovering after ResumeLive")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		done := len(seqs) >= 4 && len(directs) >= 1
		mu.Unlock()
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != 4 {
		t.Fatalf("delivered slots %v, want 6 7 8 9", seqs)
	}
	for i, want := range []uint64{6, 7, 8, 9} {
		if seqs[i] != want {
			t.Fatalf("slot order %v", seqs)
		}
	}
	if len(directs) != 1 || directs[0] != "lsa" {
		t.Fatalf("directs %v", directs)
	}
	// The replay must have run at full speed: every stamp was behind the
	// horizon (anchored at stamp(12)) the moment it was scheduled.
	if v.Now() < stamp(9) {
		t.Fatalf("clock did not reach the last stamp: %v", v.Now())
	}
}

// TestResumeLiveSchedulesTailBeforeRaisingHorizon: ResumeLive runs on the
// rejoiner's recovery goroutine, not on the clock's, so the horizon may
// open only once the last slot of the tail is on the timeline. Work
// already waiting on the clock below the last stamp, as a replayed
// thread's next step would be, must not run before the slots stamped
// ahead of it: every slot is delivered at exactly its stamp.
func TestResumeLiveSchedulesTailBeforeRaisingHorizon(t *testing.T) {
	v := vclock.NewVirtual()
	v.EnablePacing(false) // follower: nothing fires beyond the horizon
	g := NewGroup(Config{
		Clock:         v,
		Members:       []ids.ReplicaID{1, 2},
		Local:         []ids.ReplicaID{2},
		Transport:     &nullTransport{},
		Recovering:    true,
		Tick:          time.Hour, // no heartbeat timer on the clock
		DetectTimeout: time.Hour,
	})
	defer g.Close()
	const slots = 50
	stamp := func(s int) time.Duration { return time.Duration(s) * time.Millisecond }
	var mu sync.Mutex
	var at []time.Duration
	all := make(chan struct{})
	g.Node(2).SetDeliver(func(m Message) {
		mu.Lock()
		defer mu.Unlock()
		at = append(at, v.Now())
		if len(at) == slots {
			close(all)
		}
	})
	v.ScheduleAt(stamp(slots)-time.Microsecond, vclock.DefaultOrder, func() {})
	me, seq := Origin{Replica: 2}, Origin{Replica: 1}
	tail := make([]Envelope, slots)
	for i := range tail {
		s := uint64(i + 1)
		tail[i] = Envelope{Kind: EnvSequenced, Seq: s, Origin: seq, UID: s, From: seq, To: me, Stamp: stamp(i + 1), Payload: s}
	}
	g.ResumeLive(1, tail)
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		t.Fatal("the tail was not delivered")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, a := range at {
		if a != stamp(i+1) {
			t.Fatalf("slot %d delivered at %v, want its stamp %v", i+1, a, stamp(i+1))
		}
	}
}

// TestTakeoverPushCarriesFetchedSlots: a takeover candidate fetches the
// slots only a donor holds and schedules them at their stamps, above its
// horizon, so they are in no tail yet when it pushes its tail to a peer
// that lacks them too. The push must carry them: that peer would otherwise
// meet the gap only behind the new view's heartbeats, with its clock past
// their stamps, and wedge.
func TestTakeoverPushCarriesFetchedSlots(t *testing.T) {
	v := vclock.NewVirtual()
	v.EnablePacing(false)
	tr := &recordingTransport{sent: make(chan []Envelope, 4)} // records sends toward member 2
	g := NewGroup(Config{
		Clock: v, Members: []ids.ReplicaID{1, 2, 3}, Local: []ids.ReplicaID{3},
		Transport: tr, DetectTimeout: time.Minute,
	})
	defer g.Close()
	delivered := make(chan uint64, 2)
	g.Node(3).SetDeliver(func(m Message) { delivered <- m.Seq })
	seq := Origin{Replica: 1}
	slot := func(n uint64) Envelope {
		return Envelope{Kind: EnvSequenced, Seq: n, Origin: seq, UID: n, From: seq, Stamp: time.Duration(n) * time.Millisecond, Payload: "p"}
	}

	// Slot 1 and its heartbeat arrived; slot 2 reached only the donor.
	tr.deliverTo(Origin{Replica: 3}, slot(1), Envelope{Kind: EnvHorizon, From: seq, Stamp: time.Millisecond})
	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("slot 1 was not delivered")
	}
	fetched := []Envelope{slot(2)}
	g.apply([]effect{
		{kind: effInject, id: 3, envs: fetched},
		{kind: effPush, id: 3, to: 2, from: 1, max: 2, envs: fetched},
	})
	var pushed []uint64
	for len(tr.sent) > 0 {
		for _, e := range <-tr.sent {
			pushed = append(pushed, e.Seq)
		}
	}
	if len(pushed) != 2 || pushed[0] != 1 || pushed[1] != 2 {
		t.Fatalf("pushed slots %v to the lagging peer, want [1 2]", pushed)
	}
}

// TestStaleViewFrameRevivesStraggler pins the split-healing rule: a
// member still emitting frames of an older view (a sequencer that
// stalled through its own deposition — alive, but crash-marked by the
// election) must be revived by that traffic. Crash-marked members are
// excluded from the new view's horizon multicasts, so without the
// revive the straggler never learns the new view and the group splits
// permanently.
func TestStaleViewFrameRevivesStraggler(t *testing.T) {
	v := vclock.NewVirtual()
	v.EnablePacing(false)
	tr := &nullTransport{}
	g := NewGroup(Config{
		Clock:     v,
		Members:   []ids.ReplicaID{1, 2, 3},
		Local:     []ids.ReplicaID{2},
		Transport: tr,
	})
	defer g.Close()
	me := Origin{Replica: 2}

	// Member 2 took over view 1; the election crash-marked member 1.
	g.AdoptView(1, 2)
	if g.Crash(1) {
		t.Fatal("view adoption should have crash-marked member 1 already")
	}

	// A view-0 heartbeat from member 1 arrives: it is alive after all,
	// just stuck in the old view. The frame must be dropped AND member 1
	// revived so horizon multicasts resume reaching it.
	tr.deliverTo(me, Envelope{
		Kind:  EnvHorizon,
		View:  0,
		From:  Origin{Replica: 1},
		To:    me,
		Stamp: 5 * time.Millisecond,
	})
	if !g.Crash(1) {
		t.Fatal("stale-view frame from a live member did not revive it")
	}
}

// TestClientUIDBase: a restarted client process must number its requests
// above every uid its previous incarnation used (the sequencer's dedup
// is per (client, uid) for the cluster's lifetime).
func TestClientUIDBase(t *testing.T) {
	tg := newTestGroup(t)
	c := tg.g.NewClientEndpoint(7)
	c.SetUIDBase(1000)
	var uid uint64
	tg.drive(t, func() { uid, _ = c.Broadcast("req") })
	if uid != 1001 {
		t.Fatalf("uid %d, want 1001", uid)
	}
	c.SetUIDBase(500) // never moves backwards
	tg.drive(t, func() { uid, _ = c.Broadcast("req2") })
	if uid != 1002 {
		t.Fatalf("uid %d, want 1002", uid)
	}
}
