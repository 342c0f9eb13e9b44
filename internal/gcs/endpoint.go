package gcs

import (
	"slices"
	"sync"

	"detmt/internal/ring"
)

// endpoint is the half a member Node and a ClientEndpoint share: numbered
// broadcasts that stay pending until they are ordered (or acknowledged)
// and are re-sent in uid order after a view change, and the hand-over of
// each arriving envelope to the endpoint's handler (see put). mu also
// guards the embedding type's state.
type endpoint struct {
	g      *Group
	origin Origin
	rank   uint64 // orders this endpoint's deliveries among same-instant timers

	mu      sync.Mutex
	nextUID uint64
	pending map[uint64]Payload    // broadcasts not yet seen sequenced (or acked)
	inbox   ring.Buffer[Envelope] // virtual clock: put, not yet handed over
	halted  bool                  // every envelope from now on is dropped
	handle  func(Envelope)
	next    func()            // handleNext, bound once so an event allocates nothing
	keys    map[linkID]string // link names, formatted once (linkKey)

	handling sync.Mutex // real clock: one handler call at a time
}

// linkID is a kind of link ("", "dir", "rep", "fwd") and where it leads.
type linkID struct {
	kind string
	to   Origin
}

// init sets the endpoint up; on a Virtual clock rank orders its deliveries
// among same-instant timers.
func (e *endpoint) init(g *Group, origin Origin, rank uint64, handle func(Envelope)) {
	e.g, e.origin, e.rank, e.handle = g, origin, rank, handle
	e.next = e.handleNext
	e.pending = map[uint64]Payload{}
	e.keys = map[linkID]string{}
}

// broadcast numbers ps, keeps them pending and sends them to the sequencer
// as one unit; it returns their uids.
func (e *endpoint) broadcast(ps ...Payload) ([]uint64, error) {
	e.g.stats.add(0, len(ps), 0)
	uids, envs := make([]uint64, len(ps)), make([]Envelope, len(ps))
	e.mu.Lock()
	for i, p := range ps {
		e.nextUID++
		e.pending[e.nextUID] = p
		uids[i], envs[i] = e.nextUID, Envelope{Kind: EnvForward, Origin: e.origin, UID: e.nextUID, Payload: p}
	}
	e.mu.Unlock()
	return uids, e.send(envs...)
}

// send puts forwards on this endpoint's link to the sequencer senders see.
// It fails with ErrNoSequencer when every member is crash-detected; the
// uids stay pending for the next view change.
func (e *endpoint) send(envs ...Envelope) error {
	seq := e.g.sequencer()
	if seq < 0 {
		return ErrNoSequencer
	}
	to := Origin{Replica: seq}
	e.g.transfer(e.linkKey("", to), to, envs...)
	return nil
}

// linkKey names this endpoint's FIFO link of the given kind toward to:
// "<kind><origin>><to>". The name ranks the link's same-instant deliveries
// (memTransport), so it is formatted once per link, not per message.
func (e *endpoint) linkKey(kind string, to Origin) string {
	id := linkID{kind, to}
	e.mu.Lock()
	defer e.mu.Unlock()
	key, ok := e.keys[id]
	if !ok {
		key = kind + e.origin.String() + ">" + to.String()
		e.keys[id] = key
	}
	return key
}

// retransmitPending re-sends every pending broadcast, in uid order, to the
// (new) sequencer after a view change.
func (e *endpoint) retransmitPending() {
	e.mu.Lock()
	uids := make([]uint64, 0, len(e.pending))
	for uid := range e.pending {
		uids = append(uids, uid)
	}
	slices.Sort(uids)
	envs := make([]Envelope, len(uids))
	for i, uid := range uids {
		envs[i] = Envelope{Kind: EnvForward, Origin: e.origin, UID: uid, Payload: e.pending[uid]}
	}
	e.mu.Unlock()
	for _, env := range envs {
		_ = e.send(env)
	}
}

// put hands an envelope from the transport to the handler, one at a time
// and in put order (DESIGN §6). On a Virtual clock that is a clock event:
// one at the current instant, ranked by the endpoint, fires once every
// runnable goroutine has blocked and hands over the oldest envelope in the
// inbox; no handler parks on the clock, so envelopes run one per quiescent
// point. On a real clock (a client-only process) the handler runs on the
// caller's goroutine, a wire reader, and handling serialises callers on
// different links. Nothing re-enters it: a real clock hosts no member, so
// no handler reaches TCP.Send's local short-circuit.
func (e *endpoint) put(env Envelope) {
	if v := e.g.vclk; v != nil {
		e.mu.Lock()
		if e.halted {
			e.mu.Unlock()
			return
		}
		e.inbox.Push(env)
		e.mu.Unlock()
		v.ScheduleAt(0, e.rank, e.next)
		return
	}
	e.handling.Lock()
	defer e.handling.Unlock()
	e.mu.Lock()
	halted := e.halted
	e.mu.Unlock()
	if !halted {
		e.handle(env)
	}
}

// handleNext is one delivery event on a Virtual clock: it hands the oldest
// envelope over, if Halt has not dropped it.
func (e *endpoint) handleNext() {
	e.mu.Lock()
	env, ok := e.inbox.Pop()
	e.mu.Unlock()
	if ok {
		e.handle(env)
	}
}
