package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"detmt/internal/enc"
	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/ring"
)

// Compile-time assertion: the TCP transport is interchangeable with the
// in-memory one (whose assertion lives in internal/gcs).
var _ gcs.Transport = (*TCP)(nil)

// Options configures a TCP transport endpoint.
type Options struct {
	// Name is the stable identity of this process ("R1", "load", ...).
	// Receivers key duplicate-suppression state by it, so it must stay
	// the same across reconnects and be unique within the deployment.
	Name string
	// Group tags this transport with the replication group (shard) it
	// belongs to, announced in every hello. A receiver whose own Group
	// differs drops the connection at handshake — in a sharded
	// deployment every shard runs an independent total order, and a
	// misrouted connection (port arithmetic gone wrong, stale ring
	// config) must fail loudly rather than splice two orders together.
	// "" opts out: single-group deployments and their clients never
	// check.
	Group string
	// Listen is the address to accept connections on ("" for client-only
	// processes). Listener, if non-nil, overrides Listen — tests use it
	// to bind port 0 before the peer map is assembled.
	Listen   string
	Listener net.Listener
	// Peers maps replica ids to their listen addresses. A connection is
	// dialed (and redialed) to every peer; all envelopes toward a
	// replica travel on its single connection, which subsumes per-link
	// FIFO ordering.
	Peers map[ids.ReplicaID]string
	// Epoch is this process's restart incarnation, announced in every
	// hello. Receivers reset their per-sender dedup state when a higher
	// epoch appears under the same Name and reject connections (and
	// frames) from older ones, so a restarted replica's fresh seqno space
	// is accepted while a stale incarnation lingering behind a partition
	// cannot inject frames. 0 disables epoch semantics for this sender
	// (legacy behavior: dedup state keyed by Name persists forever).
	Epoch uint64
	// OnControl serves the requests peers and clients make through
	// Control: it is handed the request bytes and returns the reply, of
	// any size. Called on a goroutine of its own per request.
	OnControl func(req []byte) []byte
	// OnPeerUp is invoked (on the reader goroutine, after the hello is
	// processed) whenever an inbound connection announces a peer name.
	// The server layer uses it to revive crash-detected members when they
	// reconnect, so the sequencer's multicast includes them again.
	OnPeerUp func(name string)
	// OriginIdleExpiry, when positive, garbage-collects the reply-replay
	// ring and routing state of client origins that have had no live
	// route for this long — origins whose process disconnected forever
	// (e.g. a chaos-killed load generator) would otherwise leak their
	// rings until an epoch bump, which may never come.
	OriginIdleExpiry time.Duration
	// MaxUnacked bounds the per-peer retransmission queue: frames not yet
	// acknowledged by a down peer accumulate until this many are queued,
	// then the oldest are dropped (counted, logged once per outage). A
	// peer that was down long enough to lose frames this way has a gap in
	// its stream and must rejoin via recovery. 0 applies
	// DefaultMaxUnacked.
	MaxUnacked int
	// BackoffMin/BackoffMax bound the exponential reconnect backoff
	// (defaults 25ms / 1s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Dial overrides the dialer (tests).
	Dial func(addr string) (net.Conn, error)
	// Logf, if set, receives connection lifecycle diagnostics.
	Logf func(format string, args ...interface{})
}

// TCP is a gcs.Transport over real sockets. Delivery guarantees:
//
//   - per-peer FIFO: all envelopes toward one peer share one connection;
//   - at-least-once: unacknowledged frames are kept and replayed after a
//     reconnect (bounded exponential backoff);
//   - exactly-once upward: every dedup-eligible frame carries a
//     per-sender monotone sequence number, and receivers drop seqnos
//     they have already seen from that sender name, so redelivery is
//     invisible above the transport (the gcs layer's origin/uid
//     duplicate suppression remains as a second, independent layer).
//
// Frames sent back along inbound connections (acks, control replies)
// are fire-and-forget: if the connection dies they are dropped (a Control
// whose reply is lost times out; its caller retries). Client
// replies get one extra safety net: the last clientReplayBuf envelopes
// per client origin are kept in a ring and replayed whenever that
// origin's route reattaches on a new connection, so a generator whose
// every connection was severed at once (chaos SeverAll) still sees its
// replies after reconnecting. Clients dedup replies by request id, so
// redelivered entries are invisible.
type TCP struct {
	o  Options
	ln net.Listener

	mu       sync.Mutex
	binds    map[gcs.Origin]func(...gcs.Envelope)
	peers    map[ids.ReplicaID]*peerLink
	routes   map[gcs.Origin]*inboundConn
	replay   map[gcs.Origin]*ring.Buffer[gcs.Envelope] // recent client-bound envelopes, replayed on route change
	owner    map[gcs.Origin]string                     // sender name that announced each origin (replay-ring GC)
	orphaned map[gcs.Origin]time.Time                  // origins whose route died, awaiting reattach or expiry
	senders  map[string]*sender                        // dedup watermark and restart epoch, per sender name
	inbounds map[*inboundConn]struct{}
	ctl      map[uint64]chan controlResult // Control calls awaiting their reply, by request id
	nextCtl  uint64
	closed   bool

	wg sync.WaitGroup
}

// controlResult is what a Control call is woken with.
type controlResult struct {
	reply []byte
	err   error
}

// DefaultMaxUnacked is the retransmission-queue bound applied when
// Options leaves MaxUnacked at zero. At typical sequenced-traffic rates
// this absorbs outages of several minutes before frames are shed.
const DefaultMaxUnacked = 32768

// clientReplayBuf bounds the per-client-origin reply replay ring: far
// more than any closed-loop client can have outstanding, small enough
// that a long-lived server's memory stays flat.
const clientReplayBuf = 256

// sender is what a receiver keeps of one sender name across its
// connections. An inbound reader holds mu from the seqno watermark check
// through delivery to enqueueing the ack, so an old and a new connection
// of one sender, overlapping across a reconnect, deliver each seqno once
// and in order, and an acked frame is always a delivered frame. Lock
// order: a sender's mu before t.mu, never the reverse.
type sender struct {
	mu       sync.Mutex
	epoch    uint64 // highest restart epoch seen
	lastSeen uint64 // highest dedup seqno delivered
}

// NewTCP creates the endpoint, starts its listener (if any) and begins
// dialing every configured peer.
func NewTCP(o Options) (*TCP, error) {
	if o.BackoffMin <= 0 {
		o.BackoffMin = 25 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	if o.Dial == nil {
		o.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 2*time.Second)
		}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...interface{}) {}
	}
	if o.MaxUnacked <= 0 {
		o.MaxUnacked = DefaultMaxUnacked
	}
	t := &TCP{
		o:        o,
		ln:       o.Listener,
		binds:    map[gcs.Origin]func(...gcs.Envelope){},
		peers:    map[ids.ReplicaID]*peerLink{},
		routes:   map[gcs.Origin]*inboundConn{},
		replay:   map[gcs.Origin]*ring.Buffer[gcs.Envelope]{},
		owner:    map[gcs.Origin]string{},
		senders:  map[string]*sender{},
		orphaned: map[gcs.Origin]time.Time{},
		inbounds: map[*inboundConn]struct{}{},
		ctl:      map[uint64]chan controlResult{},
	}
	if t.ln == nil && o.Listen != "" {
		ln, err := net.Listen("tcp", o.Listen)
		if err != nil {
			return nil, err
		}
		t.ln = ln
	}
	if t.ln != nil {
		t.wg.Add(1)
		go t.acceptLoop()
	}
	// The accept loop is already running and its readers range over
	// t.peers under t.mu, so every link goes in the way a late one does.
	for id, addr := range o.Peers {
		t.AddPeer(id, addr)
	}
	if o.OriginIdleExpiry > 0 {
		t.wg.Add(1)
		go t.originJanitor()
	}
	return t, nil
}

// originJanitor periodically expires client origins that lost their
// route and never reattached (see Options.OriginIdleExpiry).
func (t *TCP) originJanitor() {
	defer t.wg.Done()
	interval := t.o.OriginIdleExpiry / 4
	if interval > 100*time.Millisecond {
		interval = 100 * time.Millisecond // bounded so Close never waits long
	}
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for range ticker.C {
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return
		}
		for o, since := range t.orphaned {
			if t.routes[o] != nil {
				delete(t.orphaned, o) // reattached; nothing to expire
				continue
			}
			if time.Since(since) >= t.o.OriginIdleExpiry {
				delete(t.replay, o)
				delete(t.owner, o)
				delete(t.orphaned, o)
				t.o.Logf("wire: expired idle client origin %v", o)
			}
		}
		t.mu.Unlock()
	}
}

// idleOrigins reports how many disconnected client origins still hold
// replay/routing state (tests and diagnostics).
func (t *TCP) idleOrigins() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for o := range t.replay {
		if t.routes[o] == nil {
			n++
		}
	}
	return n
}

// Addr returns the listener address ("" for client-only endpoints).
func (t *TCP) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// Bind implements gcs.Transport. Binding a client origin re-announces
// the local origin set to every peer so replicas can route replies here.
func (t *TCP) Bind(at gcs.Origin, deliver func(...gcs.Envelope)) {
	t.mu.Lock()
	t.binds[at] = deliver
	peers := make([]*peerLink, 0, len(t.peers))
	for _, pl := range t.peers {
		peers = append(peers, pl)
	}
	announce := at.IsClient
	hello := t.helloFrameLocked()
	t.mu.Unlock()
	if announce {
		for _, pl := range peers {
			pl.enqueue(hello)
		}
	}
}

// helloFrameLocked builds a hello announcing the locally bound client
// origins. Called with t.mu held.
func (t *TCP) helloFrameLocked() frame {
	var origins []gcs.Origin
	for o := range t.binds {
		if o.IsClient {
			origins = append(origins, o)
		}
	}
	return frame{kind: frameHello, body: helloBody(t.o.Name, t.o.Epoch, origins, t.o.Group)}
}

// Send implements gcs.Transport: envs travel in one frame, addressed to
// to, and are handed to the receiver's deliver callback in a single call.
// The link key is unused: per-peer connection FIFO subsumes per-link FIFO.
func (t *TCP) Send(_ string, to gcs.Origin, envs ...gcs.Envelope) {
	for i := range envs {
		envs[i].To = to // the receiving process binds by it
	}
	t.mu.Lock()
	if deliver := t.binds[to]; deliver != nil {
		t.mu.Unlock()
		deliver(envs...) // local short-circuit (e.g. sequencer self-delivery)
		return
	}
	if !to.IsClient {
		pl := t.peers[to.Replica]
		t.mu.Unlock()
		if pl == nil {
			t.o.Logf("wire: dropping envelope to unknown replica %v", to.Replica)
			return
		}
		f, err := envFrame(envs)
		if err != nil {
			t.o.Logf("wire: %v", err)
			return
		}
		pl.enqueueSeq(f)
		return
	}
	// Record the envelopes in the origin's replay ring first: even with
	// no live route (or one about to die) they will be redelivered when
	// the client's next connection announces this origin.
	recent := t.replay[to]
	if recent == nil {
		recent = ring.New[gcs.Envelope](clientReplayBuf)
		t.replay[to] = recent
	}
	for _, env := range envs {
		recent.Push(env)
	}
	ic := t.routes[to]
	t.mu.Unlock()
	if ic == nil {
		t.o.Logf("wire: no route to client %v yet, buffered for replay", to)
		return
	}
	f, err := envFrame(envs)
	if err != nil {
		t.o.Logf("wire: %v", err)
		return
	}
	ic.enqueue(f) // seq 0: loss is covered by the replay ring, not acks
}

// envFrame encodes envs into a pooled body. The frame owns its buffer:
// whoever drops the frame (ack trim, write completion, closed link)
// must hand it back via releaseFrameBody.
func envFrame(envs []gcs.Envelope) (frame, error) {
	eb := pooledBody()
	body, err := AppendBatch(eb.b, envs)
	if err != nil {
		bodyPool.Put(eb)
		return frame{}, err
	}
	return frame{kind: frameBatch, body: body, buf: eb}, nil
}

// Control sends an out-of-band request to a peer and waits for the reply
// its OnControl handler returns. The request rides the dialed link (queued
// across a reconnect); the reply comes back on the same connection, in
// chunks when it is large, and is checked against the length and hash the
// peer declared before it is returned.
func (t *TCP) Control(peer ids.ReplicaID, req []byte, timeout time.Duration) ([]byte, error) {
	t.mu.Lock()
	pl := t.peers[peer]
	if pl == nil {
		t.mu.Unlock()
		return nil, fmt.Errorf("wire: unknown peer %v", peer)
	}
	t.nextCtl++
	id := t.nextCtl
	ch := make(chan controlResult, 1)
	t.ctl[id] = ch
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.ctl, id)
		t.mu.Unlock()
	}()
	eb := pooledBody()
	body := append(enc.AppendU64(eb.b, id), req...)
	pl.enqueueSeq(frame{kind: frameControl, body: body, buf: eb})
	select {
	case res := <-ch:
		if res.err != nil {
			return nil, fmt.Errorf("wire: control request to %v: %w", peer, res.err)
		}
		return res.reply, nil
	case <-time.After(timeout):
		return nil, fmt.Errorf("wire: control request to %v timed out", peer)
	}
}

// DropPeer forcibly closes the current connection to a peer (test hook
// for fault injection). The link reconnects with backoff and replays
// unacknowledged frames.
func (t *TCP) DropPeer(id ids.ReplicaID) {
	t.mu.Lock()
	pl := t.peers[id]
	t.mu.Unlock()
	if pl == nil {
		return
	}
	pl.mu.Lock()
	if pl.conn != nil {
		pl.conn.Close()
	}
	pl.mu.Unlock()
}

// AddPeer starts dialing a replica that was not in the endpoint's
// initial peer map — the transport half of dynamic membership: when a
// ConfigChange introduces a member, every existing process adds a link
// to it so sequenced traffic and horizon multicasts reach the joiner
// while it is still a learner. Idempotent; a no-op for an already
// known peer or a closed endpoint.
func (t *TCP) AddPeer(id ids.ReplicaID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.peers[id] != nil {
		return
	}
	pl := newPeerLink(t, id, addr)
	t.peers[id] = pl
	t.wg.Add(1)
	go pl.run()
	t.o.Logf("wire: added peer %v at %s", id, addr)
}

// RetransmitDropped returns the total number of frames shed by the
// MaxUnacked retransmission bound across all peer links.
func (t *TCP) RetransmitDropped() uint64 {
	t.mu.Lock()
	peers := make([]*peerLink, 0, len(t.peers))
	for _, pl := range t.peers {
		peers = append(peers, pl)
	}
	t.mu.Unlock()
	var n uint64
	for _, pl := range peers {
		pl.mu.Lock()
		n += pl.dropped
		pl.mu.Unlock()
	}
	return n
}

// Close shuts the endpoint down: listener, dialed links, inbound
// connections.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	peers := make([]*peerLink, 0, len(t.peers))
	for _, pl := range t.peers {
		peers = append(peers, pl)
	}
	ins := make([]*inboundConn, 0, len(t.inbounds))
	for ic := range t.inbounds {
		ins = append(ins, ic)
	}
	t.mu.Unlock()
	if t.ln != nil {
		t.ln.Close()
	}
	for _, pl := range peers {
		pl.close()
	}
	for _, ic := range ins {
		ic.close()
	}
	t.wg.Wait()
	return nil
}

func (t *TCP) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// ---- receiving ----

// senderFor returns (creating on first use) the record of a sender name.
func (t *TCP) senderFor(name string) *sender {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.senders[name]
	if s == nil {
		s = &sender{}
		t.senders[name] = s
	}
	return s
}

// receive delivers a batch frame that arrived on an inbound connection,
// then acks it, both under s.mu (see sender). A seqno at or below the
// watermark is a redelivery after a reconnect: acked, not delivered again.
// name and epoch are what the connection's hello announced (epoch 0:
// unenforced); the result is false when that incarnation is stale and the
// connection must go.
func (ic *inboundConn) receive(s *sender, name string, epoch uint64, f frame) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch != 0 && epoch < s.epoch {
		ic.t.o.Logf("wire: dropping frame from stale incarnation of %s (epoch %d < %d)", name, epoch, s.epoch)
		return false
	}
	if f.seq == 0 || f.seq > s.lastSeen {
		s.lastSeen = max(s.lastSeen, f.seq)
		ic.t.deliverFrame(name, f)
	}
	if f.seq != 0 {
		eb := pooledBody()
		ic.enqueue(frame{kind: frameAck, body: enc.AppendU64(eb.b, f.seq), buf: eb})
	}
	return true
}

// deliverFrame decodes a batch frame and hands its envelopes to their
// binding; from names the sender in diagnostics.
func (t *TCP) deliverFrame(from string, f frame) {
	envs, err := DecodeBatch(f.body)
	if err != nil {
		t.o.Logf("wire: bad batch from %s: %v", from, err)
		return
	}
	if len(envs) == 0 {
		return
	}
	// All envelopes in a batch share a destination (one frame per link).
	t.mu.Lock()
	deliver := t.binds[envs[0].To]
	t.mu.Unlock()
	if deliver == nil {
		t.o.Logf("wire: no binding for %v, dropping %d envelope(s)", envs[0].To, len(envs))
		return
	}
	deliver(envs...)
}

// handleControl answers one control request on the connection it arrived
// on, from a goroutine of its own: the handler may take its time (or a
// large reply many frames) without holding up the frames behind it.
func (t *TCP) handleControl(ic *inboundConn, f frame) {
	if len(f.body) < 8 {
		return
	}
	id := binary.BigEndian.Uint64(f.body)
	req := f.body[8:]
	handler := t.o.OnControl
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		var resp []byte
		if handler != nil {
			resp = handler(req)
		}
		for _, g := range replyFrames(id, resp) {
			ic.enqueue(g)
		}
	}()
}

// controlReply consumes one frame of a control reply arriving on a dialed
// link (parts holds that connection's unfinished replies) and wakes the
// waiting Control call once its reply is whole.
func (t *TCP) controlReply(parts replyParts, f frame) {
	id, reply, done, err := parts.add(f)
	if err != nil && !done {
		return // malformed frame: nothing to attribute it to
	}
	t.mu.Lock()
	ch := t.ctl[id]
	t.mu.Unlock()
	switch {
	case ch == nil:
		delete(parts, id) // nobody waits any more (timed out): keep no bytes for it
	case done:
		select {
		case ch <- controlResult{reply: reply, err: err}:
		default:
		}
	}
}

// ---- dialed peer links ----

// peerLink is the dialed connection to one replica peer. Frames carrying
// seqnos stay queued until the peer acknowledges them; on reconnect the
// unacknowledged tail is replayed in order.
type peerLink struct {
	t    *TCP
	id   ids.ReplicaID
	addr string

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []frame // unacknowledged (plus not-yet-sent) frames, in order
	sent    int     // frames of queue already written on the current conn
	dropped uint64  // frames shed by the MaxUnacked bound (peer down too long)
	nextSeq uint64
	conn    net.Conn
	closed  bool
	kicked  bool   // cut the current reconnect backoff short
	wbuf    []byte // writer scratch; frames are assembled under mu (see serveConn)
}

// writeCoalesceBytes bounds how many queued frames the dialed-link
// writer copies into its scratch per lock acquisition: large enough to
// drain a tick's worth of traffic in one write, small enough that the
// scratch buffer and the lock hold time stay bounded.
const writeCoalesceBytes = 64 << 10

func newPeerLink(t *TCP, id ids.ReplicaID, addr string) *peerLink {
	pl := &peerLink{t: t, id: id, addr: addr}
	pl.cond = sync.NewCond(&pl.mu)
	return pl
}

// enqueueSeq assigns the next dedup seqno and queues the frame,
// enforcing the retransmission bound: when a down peer has left more
// than MaxUnacked frames unacknowledged, the oldest are shed (with an
// error logged and a counter kept) instead of growing without limit.
// The receiver then has a hole in its stream and must rejoin via
// recovery; until it does, its gcs holdback queue simply stalls.
func (pl *peerLink) enqueueSeq(f frame) {
	pl.mu.Lock()
	if pl.closed {
		pl.mu.Unlock()
		releaseFrameBody(f)
		return
	}
	pl.nextSeq++
	f.seq = pl.nextSeq
	pl.queue = append(pl.queue, f)
	if max := pl.t.o.MaxUnacked; len(pl.queue) > max {
		n := len(pl.queue) - max
		for i := 0; i < n; i++ {
			releaseFrameBody(pl.queue[i])
		}
		k := copy(pl.queue, pl.queue[n:])
		for i := k; i < len(pl.queue); i++ {
			pl.queue[i] = frame{}
		}
		pl.queue = pl.queue[:k]
		if n > pl.sent {
			pl.sent = 0
		} else {
			pl.sent -= n
		}
		first := pl.dropped == 0
		pl.dropped += uint64(n)
		total := pl.dropped
		pl.mu.Unlock()
		if first || total%1024 == 0 {
			pl.t.o.Logf("wire: ERROR: retransmission buffer for %v full (%d frames), shedding oldest — peer must rejoin via recovery (%d shed so far)",
				pl.id, max, total)
		}
		pl.cond.Broadcast() // Broadcast outside mu is fine for sync.Cond
		return
	}
	pl.cond.Broadcast()
	pl.mu.Unlock()
}

// enqueue queues a seqno-less (idempotent) frame such as a hello.
func (pl *peerLink) enqueue(f frame) {
	pl.mu.Lock()
	if pl.closed {
		pl.mu.Unlock()
		releaseFrameBody(f)
		return
	}
	pl.queue = append(pl.queue, f)
	pl.cond.Broadcast()
	pl.mu.Unlock()
}

// ack drops acknowledged frames from the head of the queue. Only frames
// already written on the current connection are eligible: seq-0 frames
// (hellos) ride along once sent — reconnects re-announce them anyway —
// but an unsent one must never be trimmed by a preceding frame's ack.
func (pl *peerLink) ack(upTo uint64) {
	pl.mu.Lock()
	n := 0
	for n < len(pl.queue) && n < pl.sent && (pl.queue[n].seq == 0 || pl.queue[n].seq <= upTo) {
		n++
	}
	if n > 0 {
		for i := 0; i < n; i++ {
			releaseFrameBody(pl.queue[i])
		}
		k := copy(pl.queue, pl.queue[n:])
		for i := k; i < len(pl.queue); i++ {
			pl.queue[i] = frame{} // drop body references in the vacated tail
		}
		pl.queue = pl.queue[:k]
		pl.sent -= n
		if pl.sent < 0 {
			pl.sent = 0
		}
	}
	pl.mu.Unlock()
}

func (pl *peerLink) close() {
	pl.mu.Lock()
	pl.closed = true
	if pl.conn != nil {
		pl.conn.Close()
	}
	pl.cond.Broadcast()
	pl.mu.Unlock()
}

// run dials (and redials, with bounded exponential backoff) the peer,
// replaying the unacknowledged queue after every connect.
func (pl *peerLink) run() {
	defer pl.t.wg.Done()
	backoff := pl.t.o.BackoffMin
	for {
		if pl.isClosed() {
			return
		}
		conn, err := pl.t.o.Dial(pl.addr)
		if err != nil {
			pl.t.o.Logf("wire: dial %v (%s): %v — retrying in %v", pl.id, pl.addr, err, backoff)
			if !pl.sleep(backoff) {
				return
			}
			backoff *= 2
			if backoff > pl.t.o.BackoffMax {
				backoff = pl.t.o.BackoffMax
			}
			continue
		}
		backoff = pl.t.o.BackoffMin
		if pl.serveConn(conn) {
			return // closed for good
		}
	}
}

// serveConn runs one connection lifetime; returns true when the link is
// shut down (vs. needing a reconnect).
func (pl *peerLink) serveConn(conn net.Conn) bool {
	t := pl.t
	bw := bufio.NewWriter(conn)
	if err := writePreamble(bw); err == nil {
		t.mu.Lock()
		hello := t.helloFrameLocked()
		t.mu.Unlock()
		if err := writeFrame(bw, hello); err == nil {
			bw.Flush()
		}
	}
	pl.mu.Lock()
	if pl.closed {
		pl.mu.Unlock()
		conn.Close()
		return true
	}
	pl.conn = conn
	pl.sent = 0 // replay everything unacknowledged
	pl.mu.Unlock()
	t.o.Logf("wire: connected to %v (%s)", pl.id, pl.addr)

	// Reader: acks, control replies and (for client processes) reply
	// envelopes flowing back along our dialed connection.
	readerDone := make(chan struct{})
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		defer close(readerDone)
		// When the read side dies the connection is gone: wake the writer
		// (it may be parked on an empty queue and would otherwise only
		// notice on its next outbound frame) so the link redials promptly.
		defer func() {
			pl.mu.Lock()
			if pl.conn == conn {
				pl.conn = nil
			}
			pl.cond.Broadcast()
			pl.mu.Unlock()
			conn.Close()
		}()
		br := bufio.NewReader(conn)
		if err := readPreamble(br); err != nil {
			return
		}
		parts := replyParts{}
		for {
			f, err := readFrame(br)
			if err != nil {
				return
			}
			switch f.kind {
			case frameAck:
				if len(f.body) >= 8 {
					pl.ack(binary.BigEndian.Uint64(f.body))
				}
			case frameControlChunk, frameControlReply:
				t.controlReply(parts, f)
			case frameBatch:
				// Replies on a dialed link carry seq 0, and serveConn waits
				// for this reader before it redials: no sender record needed.
				t.deliverFrame(pl.id.String(), f)
			}
		}
	}()

	// Writer: stream queued frames until the connection breaks.
	for {
		pl.mu.Lock()
		for pl.sent == len(pl.queue) && pl.conn == conn && !pl.closed {
			pl.cond.Wait()
		}
		if pl.closed || pl.conn != conn {
			pl.mu.Unlock()
			break
		}
		// Assemble under the lock: from the moment pl.sent covers a
		// frame, an ack may trim it and recycle its pooled body, so the
		// bytes must be copied into the link-private scratch first.
		// Coalesce everything queued (up to a bound) into one write: a
		// saturated link then pays one syscall per wad of frames rather
		// than one per frame.
		pl.wbuf = pl.wbuf[:0]
		for pl.sent < len(pl.queue) && len(pl.wbuf) < writeCoalesceBytes {
			pl.wbuf = appendFrame(pl.wbuf, pl.queue[pl.sent])
			pl.sent++
		}
		b := pl.wbuf
		pl.mu.Unlock()
		if _, err := bw.Write(b); err != nil {
			break
		}
		pl.mu.Lock()
		flush := pl.sent == len(pl.queue)
		pl.mu.Unlock()
		if flush {
			if err := bw.Flush(); err != nil {
				break
			}
		}
	}
	conn.Close()
	<-readerDone
	pl.mu.Lock()
	if pl.conn == conn {
		pl.conn = nil
	}
	closed := pl.closed
	pl.mu.Unlock()
	if !closed {
		t.o.Logf("wire: connection to %v lost, reconnecting", pl.id)
	}
	return closed
}

func (pl *peerLink) isClosed() bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.closed
}

// kick cuts any reconnect backoff short: the peer announced itself on an
// inbound connection, so a dial attempt will succeed right now.
func (pl *peerLink) kick() {
	pl.mu.Lock()
	pl.kicked = true
	pl.mu.Unlock()
}

// sleep waits d unless the link closes (reports false) or is kicked
// (reports true early); reports whether to go on.
func (pl *peerLink) sleep(d time.Duration) bool {
	deadline := time.Now().Add(d)
	for {
		pl.mu.Lock()
		closed, kicked := pl.closed, pl.kicked
		pl.kicked = false
		pl.mu.Unlock()
		if closed {
			return false
		}
		if kicked {
			return true
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return true
		}
		step := 10 * time.Millisecond
		if remain < step {
			step = remain
		}
		time.Sleep(step)
	}
}

// ---- inbound connections ----

// inboundConn is one accepted connection: envelopes and control requests
// flow in; acks, control replies and client-bound envelopes flow out.
type inboundConn struct {
	t    *TCP
	conn net.Conn

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []frame
	spare  []frame // drained batch buffer, recycled by the write loop
	closed bool
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		ic := &inboundConn{t: t, conn: conn}
		ic.cond = sync.NewCond(&ic.mu)
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbounds[ic] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(2)
		go ic.readLoop()
		go ic.writeLoop()
	}
}

func (ic *inboundConn) enqueue(f frame) {
	ic.mu.Lock()
	if ic.closed {
		ic.mu.Unlock()
		releaseFrameBody(f)
		return
	}
	ic.queue = append(ic.queue, f)
	ic.cond.Broadcast()
	ic.mu.Unlock()
}

func (ic *inboundConn) close() {
	ic.mu.Lock()
	if !ic.closed {
		ic.closed = true
		ic.conn.Close()
		ic.cond.Broadcast()
	}
	ic.mu.Unlock()
}

func (ic *inboundConn) readLoop() {
	t := ic.t
	defer t.wg.Done()
	defer ic.teardown()
	br := bufio.NewReader(ic.conn)
	if err := readPreamble(br); err != nil {
		return
	}
	if err := writePreamble(ic.conn); err != nil {
		return
	}
	// The peer's stable name and restart epoch (0: unenforced), from its
	// hello, and the record kept under that name.
	var (
		name  string
		epoch uint64
		snd   *sender
	)
	for {
		f, err := readFrame(br)
		if err != nil {
			return
		}
		switch f.kind {
		case frameHello:
			var origins []gcs.Origin
			var group string
			name, epoch, origins, group, err = parseHello(f.body)
			if err != nil {
				return
			}
			if group != "" && t.o.Group != "" && group != t.o.Group {
				// A shard's total order is its own: a connection from a
				// different group is a routing bug (bad ring config, port
				// arithmetic), and accepting it would splice two orders.
				t.o.Logf("wire: rejecting %s from group %q (this is group %q)", name, group, t.o.Group)
				return
			}
			snd = t.senderFor(name)
			snd.mu.Lock()
			if cur := snd.epoch; epoch != 0 && epoch < cur {
				snd.mu.Unlock()
				t.o.Logf("wire: rejecting stale incarnation of %s (epoch %d < %d)", name, epoch, cur)
				return
			}
			t.mu.Lock()
			if epoch > snd.epoch {
				// New incarnation: its seqno space restarts at 1, so the
				// dedup watermark from the previous life must go, or every
				// frame the restarted peer sends would be suppressed. The
				// previous life's client origins are gone for good, so
				// their replay rings go too.
				snd.epoch, snd.lastSeen = epoch, 0
				for o, own := range t.owner {
					if own == name {
						delete(t.replay, o)
						delete(t.owner, o)
					}
				}
			}
			var replayed []gcs.Envelope
			for _, o := range origins {
				if t.routes[o] != ic && t.replay[o].Len() > 0 {
					// The origin reattached on a new connection: anything sent
					// toward it recently may have died with the old one, so
					// redeliver the ring (receivers dedup by request id).
					replayed = append(replayed, t.replay[o].All()...)
				}
				t.routes[o] = ic // latest connection wins
				delete(t.orphaned, o)
				if o.IsClient {
					t.owner[o] = name
				}
			}
			t.mu.Unlock()
			snd.mu.Unlock()
			if len(replayed) > 0 {
				if g, err := envFrame(replayed); err == nil {
					ic.enqueue(g)
				}
			}
			// The peer is demonstrably up: if our own dialed link to it is
			// sitting in reconnect backoff (it just restarted), retry now —
			// a restarted sequencer's heartbeats must resume before the
			// failure detector on this side misreads the silence.
			t.mu.Lock()
			for id, pl := range t.peers {
				if id.String() == name {
					pl.kick()
				}
			}
			t.mu.Unlock()
			if t.o.OnPeerUp != nil {
				t.o.OnPeerUp(name)
			}
		case frameBatch:
			if snd == nil {
				snd = t.senderFor(name) // no hello yet: the nameless sender
			}
			if !ic.receive(snd, name, epoch, f) {
				return
			}
		case frameControl:
			t.handleControl(ic, f)
		case frameAck:
			// Inbound-direction frames are fire-and-forget; nothing to trim.
		}
	}
}

func (ic *inboundConn) writeLoop() {
	defer ic.t.wg.Done()
	bw := bufio.NewWriter(ic.conn)
	for {
		ic.mu.Lock()
		for len(ic.queue) == 0 && !ic.closed {
			ic.cond.Wait()
		}
		if ic.closed {
			ic.mu.Unlock()
			return
		}
		batch := ic.queue
		ic.queue = ic.spare[:0] // recycle last iteration's drained buffer
		ic.mu.Unlock()
		for i, f := range batch {
			if err := writeFrame(bw, f); err != nil {
				for _, g := range batch[i:] {
					releaseFrameBody(g)
				}
				ic.close()
				return
			}
			releaseFrameBody(f) // inbound frames are written exactly once
			batch[i] = frame{}
		}
		ic.mu.Lock()
		ic.spare = batch[:0]
		ic.mu.Unlock()
		if err := bw.Flush(); err != nil {
			ic.close()
			return
		}
	}
}

// teardown unregisters the connection and any routes that still point
// at it.
func (ic *inboundConn) teardown() {
	ic.close()
	t := ic.t
	t.mu.Lock()
	delete(t.inbounds, ic)
	for o, c := range t.routes {
		if c == ic {
			delete(t.routes, o)
			if o.IsClient && t.orphaned != nil {
				// Start the idle clock on this client's replay ring: if no
				// connection re-announces the origin before OriginIdleExpiry,
				// the janitor reclaims it.
				t.orphaned[o] = time.Now()
			}
		}
	}
	t.mu.Unlock()
}
