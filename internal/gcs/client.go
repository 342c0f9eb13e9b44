package gcs

import (
	"fmt"

	"detmt/internal/ids"
)

// ClientEndpoint lets a client submit requests into the group's total
// order and receive direct replies from replicas. Replication logic on
// top implements the "first reply wins" semantics.
type ClientEndpoint struct {
	endpoint
	id      ids.ClientID
	onReply func(from ids.ReplicaID, p Payload)
}

func newClientEndpoint(g *Group, id ids.ClientID) *ClientEndpoint {
	c := &ClientEndpoint{id: id}
	c.init(g, Origin{Client: id, IsClient: true}, fmt.Sprintf("gcs client %v", id), ^uint64(0)-4096+uint64(uint16(id)),
		func(env Envelope) {
			if c.onReply != nil {
				c.onReply(env.From.Replica, env.Payload)
			}
		})
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
	uids, err := c.broadcast(p)
	return uids[0], err
}

// BroadcastBatch submits several payloads as one atomic wire batch: the
// sequencer observes them contiguously, within a single drain,
// which distributed-mode determinism tests rely on. It returns the uids
// assigned to the payloads, in order.
func (c *ClientEndpoint) BroadcastBatch(ps []Payload) ([]uint64, error) {
	if len(ps) == 0 {
		return nil, nil
	}
	return c.broadcast(ps...)
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
