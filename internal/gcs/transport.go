package gcs

import (
	"sync"

	"detmt/internal/ring"
)

// Transport moves envelopes between group endpoints. Two implementations
// exist: the in-memory virtual-latency transport built into this package
// (the simulator) and the TCP transport in internal/wire (real
// deployments). A transport must preserve per-link FIFO order: envelopes
// sent with the same key arrive in send order.
type Transport interface {
	// Bind registers the endpoint addressed by at. deliver is invoked
	// for every envelope — or contiguous batch of envelopes — addressed
	// to it; it must be safe to call from any goroutine.
	Bind(at Origin, deliver func(envs ...Envelope))
	// Send places envs on the FIFO link named key toward to as one atomic
	// unit, handed to the receiver's deliver callback in a single call —
	// a burst of forwards sent together stays within one sequencing drain.
	// Envelopes sent with the same key never overtake each other. A
	// transport that carries the recipient in the envelope sets To itself.
	// Send may keep envs, but must not change them after it returns: a
	// multicast hands every recipient the same slice.
	Send(key string, to Origin, envs ...Envelope)
	// Close releases the transport's resources.
	Close() error
}

// Compile-time assertion: the in-memory transport implements the
// interface (internal/wire carries the matching assertion for TCP).
var _ Transport = (*memTransport)(nil)

// memTransport models point-to-point links with a fixed one-way latency
// and FIFO ordering: messages sent on the same link never overtake each
// other, even when their send instants coincide. Send queues the batch on
// its link and arms one arrival Latency later, a ScheduleAt event ranked
// by the link. An arrival hands over the link's oldest batch, so a link
// delivers FIFO and never a batch before its latency has passed. It runs
// only on a Virtual clock (NewGroup panics otherwise): a wall-paced run
// uses a paced one.
type memTransport struct {
	g *Group

	mu    sync.Mutex
	binds map[Origin]func(...Envelope)
	links map[string]*link
}

func newMemTransport(g *Group) *memTransport {
	return &memTransport{
		g:     g,
		binds: map[Origin]func(...Envelope){},
		links: map[string]*link{},
	}
}

func (t *memTransport) Bind(at Origin, deliver func(...Envelope)) {
	t.mu.Lock()
	t.binds[at] = deliver
	t.mu.Unlock()
}

func (t *memTransport) Send(key string, to Origin, envs ...Envelope) {
	lk := t.linkTo(key, to)
	lk.mu.Lock()
	// The link keeps the caller's slice and only reads it: To stays unset,
	// the link knows where it leads.
	lk.queue.Push(envs)
	lk.mu.Unlock()
	v := t.g.vclk
	v.ScheduleAt(v.Now()+t.g.cfg.Latency, lk.order, lk.arrival)
}

func (t *memTransport) Close() error { return nil }

type link struct {
	t  *memTransport
	to Origin
	// order ranks this link's arrivals among same-instant timers: derived
	// from the link key, so simultaneous arrivals on different links are
	// always processed in the same (arbitrary but fixed) order — a
	// requirement for rerun-identical simulations.
	order   uint64
	arrival func() // arrive, bound once so arming an arrival allocates nothing

	mu    sync.Mutex
	queue ring.Buffer[[]Envelope]
}

// linkOrderBase places link timers between thread timers (small ids) and
// the node deliveries, replay feeder and core runtime events (top of the
// range).
const linkOrderBase = uint64(1) << 62

func fnv32(s string) uint64 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return uint64(h)
}

// linkTo returns (creating on demand) the FIFO link identified by key.
func (t *memTransport) linkTo(key string, to Origin) *link {
	t.mu.Lock()
	defer t.mu.Unlock()
	lk := t.links[key]
	if lk == nil {
		lk = &link{t: t, to: to, order: linkOrderBase + fnv32(key)}
		lk.arrival = lk.arrive
		t.links[key] = lk
	}
	return lk
}

// arrive is one arrival: it hands the link's oldest batch to the bound
// endpoint. Arrivals never overlap: an arrival parks nowhere, so the next
// clock event fires only once it has returned.
func (lk *link) arrive() {
	lk.mu.Lock()
	envs, _ := lk.queue.Pop() // one batch was pushed for every arrival armed
	lk.mu.Unlock()
	lk.t.mu.Lock()
	deliver := lk.t.binds[lk.to]
	lk.t.mu.Unlock()
	if deliver != nil {
		deliver(envs...)
	}
}
