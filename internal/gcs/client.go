package gcs

import (
	"fmt"
	"sync"

	"detmt/internal/ids"
	"detmt/internal/vclock"
)

// ClientEndpoint lets a client submit requests into the group's total
// order and receive direct replies from replicas. Replication logic on
// top implements the "first reply wins" semantics.
type ClientEndpoint struct {
	g  *Group
	id ids.ClientID

	mu      sync.Mutex
	inbox   []Envelope
	running bool
	parker  vclock.Parker

	onReply func(from ids.ReplicaID, p Payload)

	nextUID uint64
	pending map[uint64]Payload
}

func newClientEndpoint(g *Group, id ids.ClientID) *ClientEndpoint {
	c := &ClientEndpoint{g: g, id: id, pending: map[uint64]Payload{}}
	if v, ok := g.cfg.Clock.(*vclock.Virtual); ok {
		c.parker = v.NewOrderedParker(fmt.Sprintf("gcs client %v", id), ^uint64(0)-4096+uint64(uint16(id)))
	} else {
		c.parker = g.cfg.Clock.NewParker()
	}
	return c
}

// ID returns the client id.
func (c *ClientEndpoint) ID() ids.ClientID { return c.id }

// SetOnReply installs the reply handler.
func (c *ClientEndpoint) SetOnReply(fn func(from ids.ReplicaID, p Payload)) { c.onReply = fn }

// Broadcast submits a request payload into the total order and returns
// the uid assigned to it. The client's per-endpoint uid provides the
// duplicate suppression the paper requires ("a unique message identifier
// for each client request"); pass it to Ack once the request completed.
// When every member is crash-detected the send fails with
// ErrNoSequencer: the request will never be ordered, so the caller must
// not wait for a reply.
func (c *ClientEndpoint) Broadcast(p Payload) (uint64, error) {
	c.g.stats.add(0, 1, 0)
	c.mu.Lock()
	c.nextUID++
	uid := c.nextUID
	c.pending[uid] = p
	c.mu.Unlock()
	err := c.send(Envelope{
		Kind:    EnvForward,
		Origin:  Origin{Client: c.id, IsClient: true},
		UID:     uid,
		Payload: p,
	})
	return uid, err
}

func (c *ClientEndpoint) send(env Envelope) error {
	seq := c.g.sequencer()
	if seq < 0 {
		return ErrNoSequencer
	}
	c.g.transfer(fmt.Sprintf("%v>%v", env.Origin, seq), Origin{Replica: seq}, env)
	return nil
}

// BroadcastBatch submits several payloads as one atomic wire batch: the
// sequencer observes them contiguously, within a single drain,
// which distributed-mode determinism tests rely on. It returns the uids
// assigned to the payloads, in order.
func (c *ClientEndpoint) BroadcastBatch(ps []Payload) ([]uint64, error) {
	if len(ps) == 0 {
		return nil, nil
	}
	c.g.stats.add(0, len(ps), 0)
	uids := make([]uint64, len(ps))
	envs := make([]Envelope, len(ps))
	origin := Origin{Client: c.id, IsClient: true}
	c.mu.Lock()
	for i, p := range ps {
		c.nextUID++
		uids[i] = c.nextUID
		c.pending[c.nextUID] = p
		envs[i] = Envelope{Kind: EnvForward, Origin: origin, UID: c.nextUID, Payload: p}
	}
	c.mu.Unlock()
	seq := c.g.sequencer()
	if seq < 0 {
		return uids, ErrNoSequencer
	}
	c.g.transfer(fmt.Sprintf("%v>%v", origin, seq), Origin{Replica: seq}, envs...)
	return uids, nil
}

// Ack tells the endpoint that the request with the given uid completed,
// so takeover retransmissions stop re-sending it.
func (c *ClientEndpoint) Ack(uid uint64) {
	c.mu.Lock()
	delete(c.pending, uid)
	c.mu.Unlock()
}

// SetUIDBase starts the endpoint's uid counter at base. The sequencer
// suppresses duplicates by (client, uid) for the lifetime of the
// cluster, so a client process restarting (or a second load-generator
// incarnation reusing the same client ids) must begin above every uid
// its predecessor used or its requests are swallowed as duplicates.
// Call before the first Broadcast.
func (c *ClientEndpoint) SetUIDBase(base uint64) {
	c.mu.Lock()
	if base > c.nextUID {
		c.nextUID = base
	}
	c.mu.Unlock()
}

// LastUID returns the uid assigned to the most recent Broadcast.
func (c *ClientEndpoint) LastUID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nextUID
}

// retransmitPending re-sends unacknowledged requests after a sequencer
// takeover.
func (c *ClientEndpoint) retransmitPending() {
	c.mu.Lock()
	uids := make([]uint64, 0, len(c.pending))
	for uid := range c.pending {
		uids = append(uids, uid)
	}
	payloads := make(map[uint64]Payload, len(uids))
	for _, uid := range uids {
		payloads[uid] = c.pending[uid]
	}
	c.mu.Unlock()
	sortUint64(uids)
	for _, uid := range uids {
		// A failed send keeps the uid pending for the next view change.
		_ = c.send(Envelope{
			Kind:    EnvForward,
			Origin:  Origin{Client: c.id, IsClient: true},
			UID:     uid,
			Payload: payloads[uid],
		})
	}
}

// enqueue accepts a reply envelope from the transport.
func (c *ClientEndpoint) enqueue(env Envelope) {
	c.mu.Lock()
	c.inbox = append(c.inbox, env)
	start := !c.running
	c.running = true
	c.mu.Unlock()
	if start {
		c.g.cfg.Clock.Go(c.loop)
	} else {
		c.parker.Unpark()
	}
}

func (c *ClientEndpoint) loop() {
	quiesced := false
	for {
		c.mu.Lock()
		if len(c.inbox) == 0 {
			c.running = false
			c.mu.Unlock()
			return
		}
		if !quiesced {
			c.mu.Unlock()
			woken := c.parker.ParkTimeout(0)
			quiesced = !woken
			continue
		}
		env := c.inbox[0]
		c.inbox = c.inbox[1:]
		c.mu.Unlock()
		quiesced = false
		if c.onReply != nil {
			c.onReply(env.From.Replica, env.Payload)
		}
	}
}
