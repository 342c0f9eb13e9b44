package wire

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"detmt/internal/gcs"
	"detmt/internal/ids"
)

// sink records delivered envelope UIDs.
type sink struct {
	mu   sync.Mutex
	uids []uint64
}

func (s *sink) deliver(envs ...gcs.Envelope) {
	s.mu.Lock()
	for _, e := range envs {
		s.uids = append(s.uids, e.UID)
	}
	s.mu.Unlock()
}

func (s *sink) snapshot() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.uids...)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func listenerFor(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestTCPFIFO sends a stream of envelopes across a real socket and
// checks they arrive exactly once, in send order.
func TestTCPFIFO(t *testing.T) {
	ln := listenerFor(t)
	srv, err := NewTCP(Options{Name: "B", Listener: ln})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var s sink
	srv.Bind(gcs.Origin{Replica: 2}, s.deliver)

	cli, err := NewTCP(Options{Name: "A", Peers: map[ids.ReplicaID]string{2: ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const n = 300
	to := gcs.Origin{Replica: 2}
	for i := 1; i <= n; i++ {
		cli.Send("k", to, gcs.Envelope{UID: uint64(i), To: to, Payload: "x"})
	}
	waitFor(t, "all envelopes", func() bool { return len(s.snapshot()) >= n })
	got := s.snapshot()
	if len(got) != n {
		t.Fatalf("got %d envelopes, want %d", len(got), n)
	}
	for i, uid := range got {
		if uid != uint64(i+1) {
			t.Fatalf("position %d: uid %d (out of order or duplicated)", i, uid)
		}
	}
}

// TestTCPReconnectDedup kills the connection repeatedly mid-stream and
// checks the replay-plus-suppression machinery still yields exactly-once
// in-order delivery.
func TestTCPReconnectDedup(t *testing.T) {
	ln := listenerFor(t)
	srv, err := NewTCP(Options{Name: "B", Listener: ln})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var s sink
	srv.Bind(gcs.Origin{Replica: 2}, s.deliver)

	cli, err := NewTCP(Options{
		Name:       "A",
		Peers:      map[ids.ReplicaID]string{2: ln.Addr().String()},
		BackoffMin: time.Millisecond,
		BackoffMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const n = 500
	to := gcs.Origin{Replica: 2}
	for i := 1; i <= n; i++ {
		cli.Send("k", to, gcs.Envelope{UID: uint64(i), To: to, Payload: "x"})
		if i%50 == 0 {
			cli.DropPeer(2) // sever mid-stream; the link must recover
		}
	}
	waitFor(t, "all envelopes after faults", func() bool { return len(s.snapshot()) >= n })
	// Give any spurious duplicates a moment to show up.
	time.Sleep(50 * time.Millisecond)
	got := s.snapshot()
	if len(got) != n {
		t.Fatalf("got %d envelopes, want exactly %d (duplicates slipped through?)", len(got), n)
	}
	for i, uid := range got {
		if uid != uint64(i+1) {
			t.Fatalf("position %d: uid %d (out of order or duplicated)", i, uid)
		}
	}
}

// gate is a deliver callback that records UIDs and parks inside the first
// delivery of UID hold until release is closed.
type gate struct {
	sink
	hold    uint64
	entered chan struct{} // closed once the callback is parked on hold
	release chan struct{}
	once    sync.Once
}

func newGate(hold uint64) *gate {
	return &gate{hold: hold, entered: make(chan struct{}), release: make(chan struct{})}
}

// parked reports whether the callback is parked on hold (or was).
func (g *gate) parked() bool {
	select {
	case <-g.entered:
		return true
	default:
		return false
	}
}

// open lets the parked delivery return; later calls do nothing.
func (g *gate) open() {
	select {
	case <-g.release:
	default:
		close(g.release)
	}
}

func (g *gate) deliver(envs ...gcs.Envelope) {
	for _, e := range envs {
		if e.UID == g.hold {
			g.once.Do(func() {
				close(g.entered)
				<-g.release
			})
		}
	}
	g.sink.deliver(envs...)
}

// unacked reports the seqnos a client still holds for peer 2, oldest first.
func unacked(cli *TCP) []uint64 {
	cli.mu.Lock()
	pl := cli.peers[2]
	cli.mu.Unlock()
	pl.mu.Lock()
	defer pl.mu.Unlock()
	seqs := make([]uint64, len(pl.queue))
	for i, f := range pl.queue {
		seqs[i] = f.seq
	}
	return seqs
}

// ackedBefore reports whether the client holds no seqno below k for peer 2.
func ackedBefore(cli *TCP, k uint64) bool {
	q := unacked(cli)
	return len(q) == 0 || q[0] >= k
}

// exactlyInOrder fails unless s received UIDs 1..n, once each, in order.
func exactlyInOrder(t *testing.T, s *sink, n int) {
	t.Helper()
	waitFor(t, "all envelopes", func() bool { return len(s.snapshot()) >= n })
	time.Sleep(50 * time.Millisecond) // give a duplicate time to show up
	got := s.snapshot()
	if len(got) != n {
		t.Fatalf("got %d envelopes, want exactly %d", len(got), n)
	}
	for i, uid := range got {
		if uid != uint64(i+1) {
			t.Fatalf("position %d: uid %d (out of order or duplicated)", i, uid)
		}
	}
}

// TestTCPAckFollowsDelivery parks the receiver's deliver callback on frame
// k: the frames before it are acknowledged, but the sender keeps k queued
// for retransmission until the callback returns — an acked frame is a
// delivered frame.
func TestTCPAckFollowsDelivery(t *testing.T) {
	ln := listenerFor(t)
	srv, err := NewTCP(Options{Name: "B", Listener: ln})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const n, k = 20, 8
	g := newGate(k)
	defer g.open() // before srv.Close, which waits for the parked reader
	srv.Bind(gcs.Origin{Replica: 2}, g.deliver)

	cli, err := NewTCP(Options{Name: "A", Peers: map[ids.ReplicaID]string{2: ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	to := gcs.Origin{Replica: 2}
	for i := 1; i <= n; i++ {
		// One envelope a frame, and the client sends nothing else: UID i
		// travels as seqno i.
		cli.Send("k", to, gcs.Envelope{UID: uint64(i), To: to, Payload: "x"})
	}
	waitFor(t, "delivery of frame k", g.parked)
	waitFor(t, "acks for the frames before k", func() bool { return ackedBefore(cli, k) })
	time.Sleep(50 * time.Millisecond) // room for a premature ack to land
	if q := unacked(cli); len(q) == 0 || q[0] != k {
		t.Fatalf("frame %d acknowledged while its delivery is still running: unacked %v", k, q)
	}
	g.open()
	exactlyInOrder(t, &g.sink, n)
	waitFor(t, "every frame acknowledged", func() bool { return len(unacked(cli)) == 0 })
}

// TestTCPOverlappingInboundKeepsOrder severs the sender's connection while
// the receiver is still delivering frame k on it. The sender redials and
// replays from k on a second inbound connection, which overlaps the first
// until the callback returns; delivery must still be exactly once and in
// seqno order.
func TestTCPOverlappingInboundKeepsOrder(t *testing.T) {
	ln := listenerFor(t)
	srv, err := NewTCP(Options{Name: "B", Listener: ln})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const n, k = 40, 10
	g := newGate(k)
	defer g.open()
	srv.Bind(gcs.Origin{Replica: 2}, g.deliver)

	var dials atomic.Int32
	cli, err := NewTCP(Options{
		Name:       "A",
		Peers:      map[ids.ReplicaID]string{2: ln.Addr().String()},
		BackoffMin: time.Millisecond,
		BackoffMax: 5 * time.Millisecond,
		Dial: func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err == nil {
				dials.Add(1)
			}
			return c, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	to := gcs.Origin{Replica: 2}
	for i := 1; i <= n; i++ {
		cli.Send("k", to, gcs.Envelope{UID: uint64(i), To: to, Payload: "x"})
	}
	waitFor(t, "delivery of frame k", g.parked)
	waitFor(t, "acks for the frames before k", func() bool { return ackedBefore(cli, k) })
	cli.DropPeer(2)
	waitFor(t, "the sender to redial", func() bool { return dials.Load() == 2 })
	time.Sleep(20 * time.Millisecond) // let the replay from k reach the receiver
	g.open()
	exactlyInOrder(t, &g.sink, n)
}

// TestTCPClientReplyRouting checks that a hello-announced client origin
// is routable from the server side (replies travel back along the
// inbound connection) and that batches arrive as one deliver call.
func TestTCPClientReplyRouting(t *testing.T) {
	ln := listenerFor(t)
	srv, err := NewTCP(Options{Name: "S", Listener: ln})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var reqs sink
	srv.Bind(gcs.Origin{Replica: 1}, reqs.deliver)

	cli, err := NewTCP(Options{Name: "C", Peers: map[ids.ReplicaID]string{1: ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	clientOrigin := gcs.Origin{Client: 7, IsClient: true}
	var batches [][]uint64
	var mu sync.Mutex
	cli.Bind(clientOrigin, func(envs ...gcs.Envelope) {
		uids := make([]uint64, len(envs))
		for i, e := range envs {
			uids[i] = e.UID
		}
		mu.Lock()
		batches = append(batches, uids)
		mu.Unlock()
	})

	// Client → server: one batch, delivered in a single call.
	to := gcs.Origin{Replica: 1}
	cli.Send("k", to,
		gcs.Envelope{UID: 1, To: to, Payload: "a"},
		gcs.Envelope{UID: 2, To: to, Payload: "b"},
	)
	waitFor(t, "server batch", func() bool { return len(reqs.snapshot()) == 2 })

	// Server → client: routed via the hello-announced origin.
	waitFor(t, "client route", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.routes[clientOrigin] != nil
	})
	srv.Send("r", clientOrigin, gcs.Envelope{UID: 9, To: clientOrigin, Payload: "reply"})
	waitFor(t, "client reply", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(batches) == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if len(batches[0]) != 1 || batches[0][0] != 9 {
		t.Fatalf("client got %v, want [9]", batches)
	}
}

// TestTCPOriginIdleExpiry pins the reply-ring GC: a client origin whose
// process disconnects and never returns must have its replay ring and
// routing state expired after OriginIdleExpiry — otherwise every
// generator incarnation leaks a ring on the server for the lifetime of
// the process. A reconnect before the deadline must cancel the expiry.
func TestTCPOriginIdleExpiry(t *testing.T) {
	ln := listenerFor(t)
	srv, err := NewTCP(Options{
		Name:             "S",
		Listener:         ln,
		OriginIdleExpiry: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var reqs sink
	srv.Bind(gcs.Origin{Replica: 1}, reqs.deliver)

	dialClient := func(name string, epoch uint64, client ids.ClientID) *TCP {
		cli, err := NewTCP(Options{
			Name:       name,
			Epoch:      epoch,
			Peers:      map[ids.ReplicaID]string{1: ln.Addr().String()},
			BackoffMin: time.Millisecond,
			BackoffMax: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		cli.Bind(gcs.Origin{Client: client, IsClient: true}, func(...gcs.Envelope) {})
		return cli
	}

	// Client announces its origin, receives a reply (populating the
	// server-side replay ring), then disconnects for good.
	cli := dialClient("C", 1, 7)
	to := gcs.Origin{Replica: 1}
	cli.Send("k", to, gcs.Envelope{UID: 1, To: to, Payload: "req"})
	waitFor(t, "request", func() bool { return len(reqs.snapshot()) == 1 })
	clientOrigin := gcs.Origin{Client: 7, IsClient: true}
	srv.Send("r", clientOrigin, gcs.Envelope{UID: 9, To: clientOrigin, Payload: "reply"})
	waitFor(t, "replay ring populated", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.replay[clientOrigin].Len() > 0
	})
	cli.Close()

	waitFor(t, "orphaned origin", func() bool { return srv.idleOrigins() == 1 })
	waitFor(t, "idle origin expired", func() bool { return srv.idleOrigins() == 0 })
	srv.mu.Lock()
	_, ring := srv.replay[clientOrigin]
	_, own := srv.owner[clientOrigin]
	srv.mu.Unlock()
	if ring || own {
		t.Fatalf("expired origin still holds state: ring=%v owner=%v", ring, own)
	}

	// A second incarnation that reattaches in time must NOT be expired:
	// its hello cancels the orphan mark.
	cli2 := dialClient("C", 2, 7)
	defer cli2.Close()
	cli2.Send("k", to, gcs.Envelope{UID: 1, To: to, Payload: "req2"})
	waitFor(t, "request 2", func() bool { return len(reqs.snapshot()) == 2 })
	srv.Send("r", clientOrigin, gcs.Envelope{UID: 10, To: clientOrigin, Payload: "reply2"})
	waitFor(t, "replay ring repopulated", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.replay[clientOrigin].Len() > 0
	})
	time.Sleep(300 * time.Millisecond) // well past the expiry window
	srv.mu.Lock()
	_, ring = srv.replay[clientOrigin]
	srv.mu.Unlock()
	if !ring {
		t.Fatal("connected origin's replay ring was expired")
	}
}

// TestTCPControl round-trips out-of-band control requests: a small reply,
// an empty one, and replies long enough to travel in several chunks — all
// in flight at once on one connection, so their frames interleave.
func TestTCPControl(t *testing.T) {
	sized := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i * 31)
		}
		return b
	}
	replies := map[string][]byte{
		"status": []byte("pong:status"),
		"empty":  nil,
		"chunk":  sized(controlChunkSize),     // the largest single-frame reply
		"chunk+": sized(controlChunkSize + 1), // the smallest chunked one
		"exact":  sized(2 * controlChunkSize), // ends on a chunk boundary
		"big":    sized(3*controlChunkSize + 1234),
	}
	ln := listenerFor(t)
	srv, err := NewTCP(Options{
		Name:      "S",
		Listener:  ln,
		OnControl: func(req []byte) []byte { return replies[string(req)] },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := NewTCP(Options{Name: "C", Peers: map[ids.ReplicaID]string{1: ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for req, want := range replies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := cli.Control(1, []byte(req), 5*time.Second)
				if err != nil {
					t.Errorf("control %q: %v", req, err)
				} else if !bytes.Equal(resp, want) {
					t.Errorf("control %q: %d-byte reply, want %d bytes", req, len(resp), len(want))
				}
			}()
		}
	}
	wg.Wait()
	if _, err := cli.Control(7, []byte("status"), time.Second); err == nil {
		t.Error("control request to an unknown peer succeeded")
	}
}

// TestTCPGroupMismatchRejected checks the v6 shard-isolation rule: a
// transport tagged with one group cannot deliver into a receiver tagged
// with another (the hello is refused at handshake), while a same-group
// sender works and untagged legacy senders are still accepted.
func TestTCPGroupMismatchRejected(t *testing.T) {
	ln := listenerFor(t)
	srv, err := NewTCP(Options{Name: "B", Group: "g0", Listener: ln})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var s sink
	srv.Bind(gcs.Origin{Replica: 2}, s.deliver)

	to := gcs.Origin{Replica: 2}

	wrong, err := NewTCP(Options{
		Name:       "A",
		Group:      "g1",
		Peers:      map[ids.ReplicaID]string{2: ln.Addr().String()},
		BackoffMin: time.Millisecond,
		BackoffMax: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wrong.Close()
	wrong.Send("k", to, gcs.Envelope{UID: 99, To: to, Payload: "x"})
	time.Sleep(200 * time.Millisecond) // several redial cycles
	if got := s.snapshot(); len(got) != 0 {
		t.Fatalf("cross-group envelope delivered: %v", got)
	}

	right, err := NewTCP(Options{Name: "C", Group: "g0",
		Peers: map[ids.ReplicaID]string{2: ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer right.Close()
	right.Send("k", to, gcs.Envelope{UID: 1, To: to, Payload: "x"})
	waitFor(t, "same-group envelope", func() bool { return len(s.snapshot()) >= 1 })
	if got := s.snapshot(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("unexpected delivery set %v", got)
	}

	legacy, err := NewTCP(Options{Name: "L",
		Peers: map[ids.ReplicaID]string{2: ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	legacy.Send("k", to, gcs.Envelope{UID: 2, To: to, Payload: "x"})
	waitFor(t, "untagged envelope", func() bool { return len(s.snapshot()) >= 2 })
}
