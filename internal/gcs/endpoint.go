package gcs

import (
	"fmt"
	"sync"

	"detmt/internal/vclock"
)

// endpoint is the half a member Node and a ClientEndpoint share: numbered
// broadcasts that stay pending until they are ordered (or acknowledged)
// and are re-sent in uid order after a view change, and an inbox handed to
// the endpoint's handler one envelope at a time, each at a quiescent
// instant — the discipline of core's event pump, so deliveries never race
// with running request threads. mu also guards the embedding type's state.
type endpoint struct {
	g      *Group
	origin Origin

	mu      sync.Mutex
	nextUID uint64
	pending map[uint64]Payload // broadcasts not yet seen sequenced (or acked)
	inbox   []Envelope
	running bool
	halted  bool // every envelope from now on is dropped
	parker  vclock.Parker
	handle  func(Envelope)
}

// init sets the endpoint up; on a Virtual clock rank orders its deliveries
// among same-instant timers.
func (e *endpoint) init(g *Group, origin Origin, label string, rank uint64, handle func(Envelope)) {
	e.g, e.origin, e.handle = g, origin, handle
	e.pending = map[uint64]Payload{}
	if v, ok := g.cfg.Clock.(*vclock.Virtual); ok {
		e.parker = v.NewOrderedParker(label, rank)
	} else {
		e.parker = g.cfg.Clock.NewParker()
	}
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
	e.g.transfer(fmt.Sprintf("%v>%v", e.origin, seq), Origin{Replica: seq}, envs...)
	return nil
}

// retransmitPending re-sends every pending broadcast, in uid order, to the
// (new) sequencer after a view change.
func (e *endpoint) retransmitPending() {
	e.mu.Lock()
	uids := make([]uint64, 0, len(e.pending))
	for uid := range e.pending {
		uids = append(uids, uid)
	}
	sortUint64(uids)
	envs := make([]Envelope, len(uids))
	for i, uid := range uids {
		envs[i] = Envelope{Kind: EnvForward, Origin: e.origin, UID: uid, Payload: e.pending[uid]}
	}
	e.mu.Unlock()
	for _, env := range envs {
		_ = e.send(env)
	}
}

// put accepts an envelope from the transport and kicks the delivery loop.
func (e *endpoint) put(env Envelope) {
	e.mu.Lock()
	if e.halted {
		e.mu.Unlock()
		return
	}
	e.inbox = append(e.inbox, env)
	start := !e.running
	e.running = true
	e.mu.Unlock()
	if start {
		e.g.cfg.Clock.Go(e.loop)
	} else {
		e.parker.Unpark()
	}
}

func (e *endpoint) loop() {
	quiesced := false
	for {
		e.mu.Lock()
		if len(e.inbox) == 0 {
			e.running = false
			e.mu.Unlock()
			return
		}
		if !quiesced {
			e.mu.Unlock()
			woken := e.parker.ParkTimeout(0)
			quiesced = !woken
			continue
		}
		env := e.inbox[0]
		e.inbox = e.inbox[1:]
		e.mu.Unlock()
		quiesced = false
		e.handle(env)
	}
}

func sortUint64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
