package replica

import (
	"errors"
	"sync"
	"time"

	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/vclock"
)

// Client is a replicated-object client stub: it broadcasts each request
// into the group's total order and accepts the first reply, ignoring the
// redundant ones (the semantics the paper assumes, and the reason LSA's
// leader determines the client-perceived latency).
type Client struct {
	id    ids.ClientID
	clock vclock.Clock
	ep    *gcs.ClientEndpoint

	mu         sync.Mutex
	pending    map[ids.RequestID]*call
	seq        uint32
	replies    int
	dupReplies int
}

type call struct {
	parker vclock.Parker
	uid    uint64
	value  lang.Value
	err    string
	done   bool
}

// NewClient registers a client endpoint with the group.
func NewClient(clock vclock.Clock, g *gcs.Group, id ids.ClientID) *Client {
	c := &Client{
		id:      id,
		clock:   clock,
		ep:      g.NewClientEndpoint(id),
		pending: map[ids.RequestID]*call{},
	}
	c.ep.SetOnReply(c.onReply)
	return c
}

// ID returns the client id.
func (c *Client) ID() ids.ClientID { return c.id }

// SetUIDBase forwards to the endpoint's uid-base (see
// gcs.ClientEndpoint.SetUIDBase): a restarted client process must number
// its requests above its previous incarnation's.
func (c *Client) SetUIDBase(base uint64) { c.ep.SetUIDBase(base) }

// ReplyStats returns how many replies arrived in total and how many were
// redundant (later replicas answering an already-completed request).
func (c *Client) ReplyStats() (total, redundant int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replies, c.dupReplies
}

func (c *Client) onReply(from ids.ReplicaID, p gcs.Payload) {
	rep, ok := p.(Reply)
	if !ok {
		return
	}
	c.mu.Lock()
	c.replies++
	ca := c.pending[rep.Req]
	if ca == nil || ca.done {
		c.dupReplies++
		c.mu.Unlock()
		return
	}
	ca.done = true
	ca.value = rep.Value
	ca.err = rep.Err
	uid := ca.uid
	c.mu.Unlock()
	c.ep.Ack(uid)
	ca.parker.Unpark()
}

// Pending is an in-flight invocation started by InvokeBatch.
type Pending struct {
	c     *Client
	req   ids.RequestID
	ca    *call
	start time.Duration
}

// Call names one invocation for InvokeBatch.
type Call struct {
	Method string
	Args   []lang.Value
}

// InvokeBatch broadcasts several (possibly heterogeneous) invocations
// as one atomic unit — a single wire frame on batching transports, so the
// sequencer observes the burst contiguously — and returns handles to
// collect the replies. Distributed determinism tests use it to make the
// total order a burst receives reproducible across runs; the open-loop
// load generator's submit pump uses it to coalesce a flush window's
// arrivals into one client→sequencer frame.
func (c *Client) InvokeBatch(calls []Call) []*Pending {
	ps := make([]*Pending, len(calls))
	payloads := make([]gcs.Payload, len(calls))
	c.mu.Lock()
	for i, cl := range calls {
		c.seq++
		req := ids.MakeRequestID(c.id, c.seq)
		ca := &call{parker: c.clock.NewParker()}
		c.pending[req] = ca
		ps[i] = &Pending{c: c, req: req, ca: ca}
		payloads[i] = Request{Req: req, Method: cl.Method, Args: cl.Args}
	}
	c.mu.Unlock()
	start := c.clock.Now()
	uids, err := c.ep.BroadcastBatch(payloads)
	c.mu.Lock()
	for i, p := range ps {
		p.ca.uid = uids[i]
		p.start = start
		if err != nil {
			p.ca.done = true
			p.ca.err = err.Error()
		}
	}
	c.mu.Unlock()
	if err != nil {
		for _, p := range ps {
			c.ep.Ack(p.ca.uid)
			p.ca.parker.Unpark()
		}
	}
	return ps
}

// Wait blocks (on the clock) until the first reply for this invocation
// arrives and returns the reply value and the client-perceived latency.
func (p *Pending) Wait() (lang.Value, time.Duration, error) {
	p.ca.parker.Park()
	latency := p.c.clock.Now() - p.start
	p.c.mu.Lock()
	delete(p.c.pending, p.req)
	value, errStr := p.ca.value, p.ca.err
	p.c.mu.Unlock()
	if errStr != "" {
		return value, latency, errors.New(errStr)
	}
	return value, latency, nil
}

// Invoke performs one remote method invocation and blocks (on the clock)
// until the first reply arrives. It returns the reply value and the
// client-perceived latency. Call it from a managed goroutine.
func (c *Client) Invoke(method string, args ...lang.Value) (lang.Value, time.Duration, error) {
	c.mu.Lock()
	c.seq++
	req := ids.MakeRequestID(c.id, c.seq)
	ca := &call{parker: c.clock.NewParker()}
	c.pending[req] = ca
	c.mu.Unlock()

	start := c.clock.Now()
	uid, err := c.ep.Broadcast(Request{Req: req, Method: method, Args: args})
	if err != nil {
		// No live sequencer: fail fast rather than park forever, and
		// drop the uid from the endpoint's retransmit set so a later
		// view change does not resurrect a request the caller already
		// saw fail.
		c.ep.Ack(uid)
		c.mu.Lock()
		delete(c.pending, req)
		c.mu.Unlock()
		return nil, 0, err
	}
	c.mu.Lock()
	ca.uid = uid
	c.mu.Unlock()

	ca.parker.Park()
	latency := c.clock.Now() - start

	c.mu.Lock()
	delete(c.pending, req)
	value, errStr := ca.value, ca.err
	c.mu.Unlock()
	if errStr != "" {
		return value, latency, errors.New(errStr)
	}
	return value, latency, nil
}
