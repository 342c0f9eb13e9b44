package gcs

import (
	"time"

	"detmt/internal/ids"
	"detmt/internal/ring"
)

// Node is one group member's endpoint: it can broadcast in total order,
// send direct messages, and hands incoming messages to the replication
// layer one at a time (see endpoint.put).
type Node struct {
	endpoint
	id ids.ReplicaID

	deliver func(Message)                // total-order deliveries
	direct  func(from Origin, p Payload) // point-to-point deliveries

	// sequencer state
	nextAssign uint64

	// ordered holds, per origin, the uids this node has assigned a slot to
	// as sequencer or has seen in any sequenced message: the duplicate
	// suppression of the sequencing path. One set serves both: sequence
	// only ever asked whether a uid was in either, and nothing removes
	// from them. An origin numbers its broadcasts consecutively, so its
	// set is one run however many it has sent.
	ordered map[Origin]*ids.Runs

	// receiver state
	nextDeliver uint64
	holdback    map[uint64]Envelope
	highestSeen uint64

	// sequenced-log retention: the tail of delivered slots, indexed by
	// slot, that a restarted peer catches up from after its checkpoint
	// (SequencedTail) and a passive backup fails over from (Delivered).
	seqLog *ring.Buffer[seqSlot]
}

// seqSlot is what the sequenced log keeps of a delivered envelope, 88
// bytes where an Envelope is 136: its Seq is the slot's index in the
// log, its Kind always EnvSequenced, its sender (From) always a replica,
// and To is set by the transport on every send. SequencedTail rebuilds
// the envelope from it. At is the instant this node delivered it.
type seqSlot struct {
	View    uint64
	Origin  Origin
	UID     uint64
	From    ids.ReplicaID
	Stamp   time.Duration
	At      time.Duration
	Class   uint32
	Payload Payload
}

func newNode(g *Group, id ids.ReplicaID) *Node {
	n := &Node{
		id:          id,
		ordered:     map[Origin]*ids.Runs{},
		holdback:    map[uint64]Envelope{},
		nextDeliver: 1,
		seqLog:      ring.New[seqSlot](g.SeqRetention()),
	}
	// Deliveries rank below the replay feeder and the core runtime's
	// events, and per-node ranks keep simultaneous deliveries on different
	// replicas in a fixed (if arbitrary) global order (DESIGN §6 lists
	// every rank).
	n.init(g, Origin{Replica: id}, ^uint64(0)-1024+uint64(uint16(id)), n.handle)
	return n
}

// ID returns the member id.
func (n *Node) ID() ids.ReplicaID { return n.id }

// SetDeliver installs the total-order delivery handler. Must be set
// before any traffic flows.
func (n *Node) SetDeliver(fn func(Message)) { n.deliver = fn }

// SetDirect installs the point-to-point handler.
func (n *Node) SetDirect(fn func(from Origin, p Payload)) { n.direct = fn }

// orderedOf returns origin o's set of ordered uids. Call with n.mu held.
func (n *Node) orderedOf(o Origin) *ids.Runs {
	set := n.ordered[o]
	if set == nil {
		set = new(ids.Runs)
		n.ordered[o] = set
	}
	return set
}

// Broadcast submits p for total ordering. Delivery happens on every live
// member (including this one) once the sequencer has assigned a slot.
// It fails with ErrNoSequencer when every member is crash-detected —
// callers must not assume delivery will ever happen then.
func (n *Node) Broadcast(p Payload) error {
	if !n.g.alive(n.id) {
		return ErrNoSequencer
	}
	_, err := n.broadcast(p)
	return err
}

// SendDirectToPeers sends p outside the total order to every other live
// member, in membership order (FIFO per sender-receiver pair), as one
// one-envelope slice they all share: one direct message and one transfer
// per recipient. The LSA leader's decision stream uses it.
func (n *Node) SendDirectToPeers(p Payload) {
	n.g.mu.Lock()
	members := n.g.vs.members // replaced on a membership change, never written: safe to walk unlocked
	n.g.mu.Unlock()
	var envs []Envelope
	for _, to := range members {
		if to == n.id || !n.g.alive(n.id) || !n.g.alive(to) {
			continue
		}
		if envs == nil {
			envs = []Envelope{{Kind: EnvDirect, From: Origin{Replica: n.id}, Payload: p}}
		}
		n.g.stats.add(0, 0, 1)
		dst := Origin{Replica: to}
		n.g.transfer(n.linkKey("dir", dst), dst, envs...)
	}
}

// SendToClient sends p to a client endpoint (replies).
func (n *Node) SendToClient(to ids.ClientID, p Payload) {
	if !n.g.alive(n.id) {
		return
	}
	if n.g.cfg.Transport == nil {
		// Simulator semantics (in-memory transport): replies to
		// unregistered clients vanish — there is nowhere to route them.
		// A real transport must NOT take this path even when one process
		// hosts every member (a single-member group, a multi-tenant
		// shard): its clients live behind the wire, not in g.clients.
		n.g.mu.Lock()
		c := n.g.clients[to]
		n.g.mu.Unlock()
		if c == nil {
			return
		}
	}
	n.g.stats.add(0, 0, 1)
	env := Envelope{Kind: EnvDirect, From: Origin{Replica: n.id}, Payload: p}
	dst := Origin{Client: to, IsClient: true}
	n.g.transfer(n.linkKey("rep", dst), dst, env)
}

// raiseHighestSeen lifts the slot watermark that the next sequencing
// assignment resumes above — the takeover view-sync feeds it the highest
// slot any survivor has seen, so the new sequencer cannot reuse a slot
// number the old one already published.
func (n *Node) raiseHighestSeen(v uint64) {
	n.mu.Lock()
	n.highestSeen = max(n.highestSeen, v)
	n.mu.Unlock()
}

// enqueue accepts an envelope from the transport; a crashed member drops
// it. A stamped slot goes to deliverAt, everything else through put.
func (n *Node) enqueue(env Envelope) {
	if n.g.stamped && env.Kind == EnvSequenced && env.Stamp > 0 {
		n.deliverAt(env)
	} else if n.g.alive(n.id) {
		n.put(env)
	}
}

// deliverAt makes a stamped slot one clock event at its stamp, ranked by
// the node and then by slot, that hands it to handleSequenced unless the
// node has crashed or halted by then. Same-stamp slots arrive in real-time
// order across readers (a live drain, a takeover's push, ResumeLive); the
// slot rank delivers them in sequencing order on every replica.
func (n *Node) deliverAt(env Envelope) {
	n.g.vclk.ScheduleSlot(env.Stamp, n.rank, env.Seq, func() {
		if n.g.alive(n.id) && !n.Halted() {
			n.handleSequenced(env)
		}
	})
}

func (n *Node) handle(env Envelope) {
	switch env.Kind {
	case EnvForward:
		n.handleForward(env)
	case EnvSequenced:
		n.handleSequenced(env)
	case EnvDirect:
		if n.direct != nil {
			n.direct(env.From, env.Payload)
		}
	}
}

func (n *Node) handleForward(env Envelope) {
	if seq := n.g.sequencer(); seq != n.id {
		// Takeover race: pass it on to the current sequencer.
		if seq >= 0 {
			dst := Origin{Replica: seq}
			n.g.transfer(n.linkKey("fwd", dst), dst, env)
		}
		return
	}
	n.g.mu.Lock()
	view := n.g.vs.view
	n.g.mu.Unlock()
	n.g.multicast(n.id, n.sequence([]Envelope{env}, 0, view), nil)
}

// sequence assigns consecutive total-order slots to every non-duplicate
// envelope in envs under one lock acquisition and returns the sequenced
// envelopes (slot order, To unset) for the caller to multicast. A
// non-zero stamp (stamped mode) becomes the shared virtual delivery
// deadline they carry. The simulator sequences each forward as it
// arrives; the stamped loop everything queued at once.
func (n *Node) sequence(envs []Envelope, stamp time.Duration, view uint64) []Envelope {
	if len(envs) == 0 {
		return nil
	}
	out := make([]Envelope, 0, len(envs))
	n.mu.Lock()
	for _, env := range envs {
		if !n.orderedOf(env.Origin).Add(env.UID) {
			continue // duplicate (retransmission)
		}
		if n.nextAssign <= n.highestSeen {
			n.nextAssign = n.highestSeen + 1
		}
		if n.nextAssign == 0 {
			n.nextAssign = 1
		}
		o := env
		o.Kind = EnvSequenced
		o.Seq = n.nextAssign
		n.nextAssign++
		o.View = view
		o.From = Origin{Replica: n.id}
		o.Stamp = stamp
		out = append(out, o)
	}
	n.mu.Unlock()
	if n.g.cfg.Classify != nil {
		// Conflict-class early scheduling: classify once, at sequencing
		// time, so every member admits the request under the same class.
		for i := range out {
			out[i].Class = n.g.cfg.Classify(out[i].Payload)
		}
	}
	return out
}

func (n *Node) handleSequenced(env Envelope) {
	now := n.g.cfg.Clock.Now()
	n.mu.Lock()
	n.orderedOf(env.Origin).Add(env.UID)
	if env.Seq > n.highestSeen {
		n.highestSeen = env.Seq
	}
	if !env.Origin.IsClient && env.Origin.Replica == n.id {
		delete(n.pending, env.UID) // our broadcast made it into the order
	}
	if env.Seq < n.nextDeliver {
		n.mu.Unlock()
		return // duplicate of an already delivered slot
	}
	// The slot the order is waiting for is delivered straight away, the
	// common case; one behind a gap waits in the hold-back queue.
	inOrder := env.Seq == n.nextDeliver
	if inOrder {
		delete(n.holdback, env.Seq) // a copy held before a resumeAt, if any
		n.accept(env, now)
	} else {
		n.holdback[env.Seq] = env
	}
	var ready []Envelope
	for len(n.holdback) > 0 {
		e, ok := n.holdback[n.nextDeliver]
		if !ok {
			break
		}
		delete(n.holdback, n.nextDeliver)
		n.accept(e, now)
		ready = append(ready, e)
	}
	n.mu.Unlock()
	if inOrder {
		n.deliverMsg(env)
	}
	for _, e := range ready {
		n.deliverMsg(e)
	}
}

// accept moves the delivery frontier past e, delivered at instant at, and
// retains it for SequencedTail and Delivered. Call with n.mu held.
func (n *Node) accept(e Envelope, at time.Duration) {
	n.nextDeliver++
	if n.seqLog.Len() == 0 {
		n.seqLog.Reset(e.Seq)
	}
	n.seqLog.Push(seqSlot{View: e.View, Origin: e.Origin, UID: e.UID, From: e.From.Replica,
		Stamp: e.Stamp, At: at, Class: e.Class, Payload: e.Payload})
}

func (n *Node) deliverMsg(e Envelope) {
	if n.deliver != nil {
		n.deliver(Message{Seq: e.Seq, Origin: e.Origin, UID: e.UID, Class: e.Class, Payload: e.Payload})
	}
}

// SequencedTail returns up to max delivered slots starting at from, for
// serving a restarted peer's catch-up request. ok is false when from
// predates the retained window (the peer must fetch a newer checkpoint
// instead); more is true when further slots beyond the returned batch
// have already been delivered here.
func (n *Node) SequencedTail(from uint64, max int) (envs []Envelope, more, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if from >= n.nextDeliver {
		return nil, false, true // at (or ahead of) our frontier: nothing yet
	}
	if n.seqLog.Len() == 0 || from < n.seqLog.First() {
		return nil, false, false // trimmed away
	}
	end := n.seqLog.End()
	if max > 0 && from+uint64(max) < end {
		end = from + uint64(max)
	}
	envs = make([]Envelope, 0, end-from)
	for seq := from; seq < end; seq++ {
		s := n.seqLog.At(seq)
		envs = append(envs, Envelope{Kind: EnvSequenced, Seq: seq, View: s.View, Origin: s.Origin, UID: s.UID,
			From: Origin{Replica: s.From}, Stamp: s.Stamp, Class: s.Class, Payload: s.Payload})
	}
	return envs, end < n.seqLog.End(), true
}

// Delivery is a total-order message and the instant a node delivered it.
type Delivery struct {
	At  time.Duration
	Msg Message
}

// Delivered returns, in slot order, every retained delivered slot above
// after: the replay log a passive backup fails over from.
func (n *Node) Delivered(after uint64) (out []Delivery) {
	n.mu.Lock()
	defer n.mu.Unlock()
	from := max(after+1, n.seqLog.First())
	for seq := from; seq < n.seqLog.End(); seq++ {
		if out == nil {
			out = make([]Delivery, 0, n.seqLog.End()-from)
		}
		s := n.seqLog.At(seq)
		out = append(out, Delivery{s.At, Message{Seq: seq, Origin: s.Origin, UID: s.UID, Class: s.Class, Payload: s.Payload}})
	}
	return out
}

// Held reports what the node holds on to between messages, so that a test
// (or an operator) can tell a table at its bound from one that grows with
// every request.
type Held struct {
	SeqLog   int // delivered slots retained for SequencedTail
	Origins  int // origins with a duplicate-suppression set
	MaxRuns  int // the longest of those sets, in runs (1: no gap)
	Holdback int // sequenced slots waiting for a gap below them to fill
	Pending  int // own broadcasts not yet seen sequenced
}

// Held returns the node's current table sizes.
func (n *Node) Held() Held {
	n.mu.Lock()
	defer n.mu.Unlock()
	h := Held{SeqLog: n.seqLog.Len(), Origins: len(n.ordered), Holdback: len(n.holdback), Pending: len(n.pending)}
	for _, set := range n.ordered {
		h.MaxRuns = max(h.MaxRuns, set.Len())
	}
	return h
}

// Frontier reports the receiver's delivery state: next is the first
// undelivered total-order slot, highest the highest slot seen in any
// sequenced envelope (delivered or held back).
func (n *Node) Frontier() (next, highest uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.nextDeliver, n.highestSeen
}

// Halt permanently stops the node: every envelope not yet handed to the
// replication layer is dropped, including one put at this very instant.
// Divergence detection uses it to freeze a replica whose schedule hash
// disagrees with the cluster majority, so it cannot propagate a
// corrupted order.
func (n *Node) Halt() {
	n.mu.Lock()
	n.halted = true
	n.inbox.Reset(0)
	n.mu.Unlock()
}

// Halted reports whether Halt was called.
func (n *Node) Halted() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.halted
}

// resumeAt rewinds/advances the receiver to deliver slot next first,
// discarding any held-back slots below it. Called by Group.ResumeLive
// after a checkpoint install, before the sequenced tail is re-injected.
func (n *Node) resumeAt(next uint64) {
	n.mu.Lock()
	n.nextDeliver = next
	if next > 0 && n.highestSeen < next-1 {
		n.highestSeen = next - 1
	}
	for seq := range n.holdback {
		if seq < next {
			delete(n.holdback, seq)
		}
	}
	// The rejoiner's retained tail restarts at the resume point; it can
	// serve as a catch-up donor for slots from here on.
	n.seqLog.Reset(next)
	n.mu.Unlock()
}
