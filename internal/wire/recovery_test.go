package wire

import (
	"testing"
	"time"

	"detmt/internal/gcs"
	"detmt/internal/ids"
)

// TestTCPEpochResetsDedup simulates a replica restart: the first
// incarnation sends seqnos 1..n, then a second incarnation under the
// same name (higher epoch) starts its seqno space over at 1. Without
// epoch handling the receiver's dedup watermark would silently swallow
// every frame of the new life.
func TestTCPEpochResetsDedup(t *testing.T) {
	ln := listenerFor(t)
	srv, err := NewTCP(Options{Name: "B", Listener: ln})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var s sink
	srv.Bind(gcs.Origin{Replica: 2}, s.deliver)
	to := gcs.Origin{Replica: 2}

	life1, err := NewTCP(Options{Name: "A", Epoch: 1,
		Peers: map[ids.ReplicaID]string{2: ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		life1.Send("k", to, gcs.Envelope{UID: uint64(i), To: to, Payload: "x"})
	}
	waitFor(t, "first life", func() bool { return len(s.snapshot()) >= 5 })
	life1.Close()

	life2, err := NewTCP(Options{Name: "A", Epoch: 2,
		Peers: map[ids.ReplicaID]string{2: ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer life2.Close()
	for i := 6; i <= 10; i++ {
		life2.Send("k", to, gcs.Envelope{UID: uint64(i), To: to, Payload: "x"})
	}
	waitFor(t, "second life", func() bool { return len(s.snapshot()) >= 10 })
	got := s.snapshot()
	for i, uid := range got {
		if uid != uint64(i+1) {
			t.Fatalf("position %d: uid %d (restart frames suppressed or reordered)", i, uid)
		}
	}
}

// TestTCPStaleEpochRejected checks that once a newer incarnation has
// said hello, a connection from the older one can no longer deliver.
func TestTCPStaleEpochRejected(t *testing.T) {
	ln := listenerFor(t)
	srv, err := NewTCP(Options{Name: "B", Listener: ln})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var s sink
	srv.Bind(gcs.Origin{Replica: 2}, s.deliver)
	to := gcs.Origin{Replica: 2}

	// The stale incarnation connects first and proves the link works.
	stale, err := NewTCP(Options{Name: "A", Epoch: 1,
		BackoffMin: time.Millisecond, BackoffMax: 5 * time.Millisecond,
		Peers: map[ids.ReplicaID]string{2: ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	stale.Send("k", to, gcs.Envelope{UID: 1, To: to, Payload: "x"})
	waitFor(t, "stale life delivery", func() bool { return len(s.snapshot()) >= 1 })

	// The new incarnation appears; the stale one keeps sending.
	fresh, err := NewTCP(Options{Name: "A", Epoch: 2,
		Peers: map[ids.ReplicaID]string{2: ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	fresh.Send("k", to, gcs.Envelope{UID: 100, To: to, Payload: "x"})
	waitFor(t, "fresh delivery", func() bool {
		for _, uid := range s.snapshot() {
			if uid == 100 {
				return true
			}
		}
		return false
	})

	for i := 2; i <= 20; i++ {
		stale.Send("k", to, gcs.Envelope{UID: uint64(i), To: to, Payload: "x"})
	}
	time.Sleep(100 * time.Millisecond) // give stale frames a chance to (wrongly) land
	for _, uid := range s.snapshot() {
		if uid >= 2 && uid <= 20 {
			t.Fatalf("stale incarnation frame %d was delivered", uid)
		}
	}
}

// TestTCPRetransmitBound checks the retransmission queue cap: with the
// peer down, enqueueing far more than MaxUnacked frames sheds the
// oldest, keeps the queue at the bound, and counts the shed frames.
func TestTCPRetransmitBound(t *testing.T) {
	cli, err := NewTCP(Options{
		Name:       "A",
		MaxUnacked: 64,
		BackoffMin: time.Millisecond,
		BackoffMax: 5 * time.Millisecond,
		// An address nothing listens on: the link stays down throughout.
		Peers: map[ids.ReplicaID]string{2: "127.0.0.1:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	to := gcs.Origin{Replica: 2}
	const n = 500
	for i := 1; i <= n; i++ {
		cli.Send("k", to, gcs.Envelope{UID: uint64(i), To: to, Payload: "x"})
	}
	cli.mu.Lock()
	pl := cli.peers[2]
	cli.mu.Unlock()
	pl.mu.Lock()
	qlen := len(pl.queue)
	pl.mu.Unlock()
	if qlen > 64 {
		t.Fatalf("queue grew to %d frames despite MaxUnacked=64", qlen)
	}
	if got := cli.RetransmitDropped(); got != n-64 {
		t.Fatalf("RetransmitDropped=%d, want %d", got, n-64)
	}
}

// TestTCPRetransmitUnaffectedWhenAcked checks the cap never triggers in
// healthy operation: a connected peer acks, the queue drains, nothing is
// shed even when total traffic far exceeds the bound.
func TestTCPRetransmitUnaffectedWhenAcked(t *testing.T) {
	ln := listenerFor(t)
	srv, err := NewTCP(Options{Name: "B", Listener: ln})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var s sink
	srv.Bind(gcs.Origin{Replica: 2}, s.deliver)

	cli, err := NewTCP(Options{Name: "A", MaxUnacked: 64,
		Peers: map[ids.ReplicaID]string{2: ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	to := gcs.Origin{Replica: 2}
	const n = 400
	for i := 1; i <= n; i++ {
		cli.Send("k", to, gcs.Envelope{UID: uint64(i), To: to, Payload: "x"})
		if i%32 == 0 {
			// Let acks catch up so the in-flight window stays under the cap;
			// a healthy link must never shed.
			waitFor(t, "ack drain", func() bool { return len(s.snapshot()) >= i-16 })
		}
	}
	waitFor(t, "all envelopes", func() bool { return len(s.snapshot()) >= n })
	if got := cli.RetransmitDropped(); got != 0 {
		t.Fatalf("healthy link shed %d frames", got)
	}
	got := s.snapshot()
	if len(got) != n {
		t.Fatalf("got %d envelopes, want %d", len(got), n)
	}
}

// TestTCPClientReplyReplay checks the client-reply replay ring: a reply
// that dies with the client's severed connection — or is sent before
// the client origin has any route at all — is redelivered when the
// origin reattaches on a new (or first) connection.
func TestTCPClientReplyReplay(t *testing.T) {
	ln := listenerFor(t)
	srv, err := NewTCP(Options{Name: "S", Listener: ln})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var reqs sink
	srv.Bind(gcs.Origin{Replica: 1}, reqs.deliver)

	cli, err := NewTCP(Options{
		Name:       "C",
		Peers:      map[ids.ReplicaID]string{1: ln.Addr().String()},
		BackoffMin: time.Millisecond,
		BackoffMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	clientOrigin := gcs.Origin{Client: 7, IsClient: true}
	var replies sink
	cli.Bind(clientOrigin, replies.deliver)
	waitFor(t, "client route", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.routes[clientOrigin] != nil
	})

	// Sever the client's only connection, then send the reply while it is
	// down: the old inbound conn (or nothing) gets it, so without the
	// replay ring the client would never see it.
	cli.DropPeer(1)
	srv.Send("r", clientOrigin, gcs.Envelope{UID: 9, To: clientOrigin, Payload: "reply"})
	waitFor(t, "reply after reconnect", func() bool {
		for _, uid := range replies.snapshot() {
			if uid == 9 {
				return true
			}
		}
		return false
	})

	// A reply to an origin that has never connected is buffered and
	// replayed once the origin announces itself.
	lateOrigin := gcs.Origin{Client: 8, IsClient: true}
	srv.Send("r", lateOrigin, gcs.Envelope{UID: 11, To: lateOrigin, Payload: "reply"})
	var late sink
	cli.Bind(lateOrigin, late.deliver) // re-announces hello with the new origin
	waitFor(t, "buffered reply", func() bool {
		for _, uid := range late.snapshot() {
			if uid == 11 {
				return true
			}
		}
		return false
	})
}
