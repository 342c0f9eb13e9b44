package main

// relay.go is a counting TCP relay, used only in traced runs: it sits on
// one link (generator->member, sequencer->follower, generator->gateway)
// and counts bytes and read chunks in each direction, so byte and
// syscall counts need no hook inside the program. A chunk is one
// successful Read on the relay's side of the connection; with the
// loopback's large socket buffers that is close to one write syscall of
// the sender.

import (
	"net"
	"sync"
	"sync/atomic"
)

type relay struct {
	ln     net.Listener
	target string

	fwdBytes, fwdChunks atomic.Uint64 // dialer -> target
	revBytes, revChunks atomic.Uint64 // target -> dialer

	mu     sync.Mutex
	conns  []net.Conn
	closed bool
	wg     sync.WaitGroup
}

func startRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		in, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		out, err := net.Dial("tcp", r.target)
		if err != nil {
			in.Close()
			continue
		}
		if !r.track(in, out) {
			return
		}
		r.wg.Add(2)
		go r.pump(in, out, &r.fwdBytes, &r.fwdChunks)
		go r.pump(out, in, &r.revBytes, &r.revChunks)
	}
}

// track remembers the pair so close can unblock their pumps; it reports
// false (and closes the pair) when the relay is already closed.
func (r *relay) track(a, b net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		a.Close()
		b.Close()
		return false
	}
	r.conns = append(r.conns, a, b)
	return true
}

func (r *relay) pump(from, to net.Conn, bytes, chunks *atomic.Uint64) {
	defer r.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, err := from.Read(buf)
		if n > 0 {
			bytes.Add(uint64(n))
			chunks.Add(1)
			if _, werr := to.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	// Closing both ends makes the opposite pump return too.
	from.Close()
	to.Close()
}

// linkCounts is a snapshot of one relay's counters.
type linkCounts struct{ fwdBytes, fwdChunks, revBytes, revChunks uint64 }

func (r *relay) counts() linkCounts {
	return linkCounts{r.fwdBytes.Load(), r.fwdChunks.Load(), r.revBytes.Load(), r.revChunks.Load()}
}

func (a linkCounts) minus(b linkCounts) linkCounts {
	return linkCounts{a.fwdBytes - b.fwdBytes, a.fwdChunks - b.fwdChunks, a.revBytes - b.revBytes, a.revChunks - b.revChunks}
}

func (a linkCounts) plus(b linkCounts) linkCounts {
	return linkCounts{a.fwdBytes + b.fwdBytes, a.fwdChunks + b.fwdChunks, a.revBytes + b.revBytes, a.revChunks + b.revChunks}
}

// sumLinks totals the counters of several relays.
func sumLinks(rs []*relay) linkCounts {
	var t linkCounts
	for _, r := range rs {
		t = t.plus(r.counts())
	}
	return t
}

// close stops accepting, closes every relayed connection and waits for
// the pumps.
func (r *relay) close() {
	r.mu.Lock()
	r.closed = true
	conns := r.conns
	r.conns = nil
	r.mu.Unlock()
	r.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	r.wg.Wait()
}
