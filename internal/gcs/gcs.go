// Package gcs is the group communication system FTflex relies on (paper
// Sect. 2): totally ordered broadcast to a group of replicas, duplicate
// suppression, point-to-point messages, and sequencer failover — on the
// in-memory transport of the simulator, where every transfer costs a
// virtual latency, or on a real one (internal/wire) with stamped delivery.
//
// Total order comes from a fixed sequencer: nodes and clients forward
// payloads to it, it assigns slots and multicasts, and receivers deliver
// in slot order through a hold-back queue, one message at a time (a clock
// event at a quiescent instant on a virtual clock, the discipline of core's
// nested resumes; the receiving goroutine on a real one), suppressing
// duplicates by (origin, uid). The view change — failure detection, the
// objection- and quorum-guarded election, membership and gap healing — is
// one pure state machine (view.go), driven under the group lock by the
// cluster's wall-clock ticker or, in the simulator, by the virtual detect
// timer a crash arms: there, survivors adopt the lowest live member one
// DetectTimeout after the crash and retransmit their pending forwards —
// the takeover cost experiment E5 measures.
package gcs

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"detmt/internal/ids"
	"detmt/internal/metrics"
	"detmt/internal/vclock"
)

// Payload is an application-level message body (defined by the
// replication layer).
type Payload interface{}

// ErrNoSequencer reports that a broadcast could not be submitted because
// every group member is crash-detected: there is nobody left to assign a
// total-order slot, so the send fails cleanly instead of misrouting.
var ErrNoSequencer = errors.New("gcs: no live sequencer")

// Message is a totally ordered delivery.
type Message struct {
	Seq    uint64 // position in the total order (1-based)
	Origin Origin
	UID    uint64 // per-origin unique id (duplicate suppression)
	// Class is the conflict class the sequencer stamped on the payload
	// via Config.Classify (0 = conservative global class). Class-aware
	// replica schedulers use it for early scheduling; everyone else can
	// ignore it.
	Class   uint32
	Payload Payload
}

// Origin identifies the producer of a broadcast: a replica or a client.
type Origin struct {
	Replica  ids.ReplicaID // valid if IsClient is false
	Client   ids.ClientID  // valid if IsClient is true
	IsClient bool
}

func (o Origin) String() string {
	if o.IsClient {
		return o.Client.String()
	}
	return o.Replica.String()
}

// Config parameterises a group.
type Config struct {
	Clock   vclock.Clock
	Members []ids.ReplicaID
	// Group names the replication group in a sharded deployment ("g0",
	// "g1", ...; "" for single-group): identity only, shown in log
	// prefixes. The wire transport's Group tag, which does isolate groups
	// at handshake, is set by whoever builds the transport.
	Group string
	// Latency is the one-way transfer time between any two endpoints
	// (including a node's messages to itself, for symmetry). Only the
	// in-memory transport uses it.
	Latency time.Duration
	// DetectTimeout is how long survivors take to detect a crashed
	// sequencer and fail over (default 50ms).
	DetectTimeout time.Duration

	// Transport carries envelopes between endpoints. nil selects the
	// in-memory virtual-latency transport (the simulator), which needs a
	// *vclock.Virtual Clock. A distributed deployment passes the TCP
	// transport from internal/wire.
	Transport Transport
	// Local lists the member ids hosted in this process. nil means all
	// members are local (the simulator); an empty non-nil slice means
	// none are (a client-only process such as a load generator).
	Local []ids.ReplicaID
	// Learners lists members that receive the sequenced fan-out but carry
	// no quorum weight and cannot be elected: a joiner between its
	// AddReplica change's delivery and activation lists itself here (and
	// in Local); established processes learn of learners via AddLearner.
	Learners []ids.ReplicaID
	// Tick configures stamped sequencing — a non-nil Transport on a
	// Virtual clock, whose pacing must be enabled before NewGroup: the
	// sequencer drains forwards as they arrive (kicksTick) and stamps each
	// slot just above the instant its own clock shows; Tick is the interval
	// of its idle heartbeat. Every member injects a slot at its stamp and
	// takes the stamps as its clock horizon, so all replicas run one
	// virtual schedule whatever the network delays.
	Tick time.Duration

	// FetchGap, when set (stamped mode), fetches up to max sequenced slots
	// from slot from on that this process missed, from member donor: a
	// takeover candidate heals itself with it before it opens the new view,
	// and a follower closes a stalled delivery gap. The server wires it to
	// the wire transport's catch-up fetch. Called from the failure
	// detector's goroutine.
	FetchGap func(donor ids.ReplicaID, from uint64, max int) []Envelope

	// Recovering starts the group in recovery mode (stamped mode only):
	// transport traffic is buffered, so the clock cannot pass the stamps of
	// the tail about to be fetched; ResumeLive replays tail and buffer in
	// slot order at their original stamps.
	Recovering bool
	// SeqRetention bounds the per-node log of delivered sequenced
	// envelopes kept for donor-side catch-up (SequencedTail) and passive
	// failover (Delivered). 0 applies DefaultSeqRetention.
	SeqRetention int

	// Classify, when set, returns the conflict class (package earlysched)
	// the sequencer stamps on a payload it orders, delivered in
	// Message.Class; nil or 0 is the conservative global class. It must be
	// a pure function of the payload, or a takeover would change classes.
	Classify func(Payload) uint32

	// Logf, when set, receives view-change and failure-detection events
	// (elections are rare and operator-relevant; nothing on the per-
	// message hot path logs).
	Logf func(format string, args ...interface{})
}

// DefaultSeqRetention is the sequenced-log bound when Config leaves
// SeqRetention at zero: a rejoiner replays at most this many slots from a
// donor, a longer outage needs a newer checkpoint (taken continuously, so
// in practice this bounds donor memory, not recoverability).
const DefaultSeqRetention = 16384

// takeoverMargin lifts a new sequencer's first stamp above the highest
// stamp or horizon any survivor reported to it (planHeal's floor): the
// deposed sequencer may have published a little higher to a member that
// did not answer.
const takeoverMargin = 5 * time.Millisecond

// Stats counts network traffic, for the message-overhead comparisons of
// experiments E5/E6.
type Stats struct {
	mu        sync.Mutex
	Transfers int // individual point-to-point transfers on the wire
	Broadcast int // total-order broadcasts initiated
	Direct    int // direct (non-ordered) application messages
}

func (s *Stats) add(transfers, broadcasts, directs int) {
	s.mu.Lock()
	s.Transfers += transfers
	s.Broadcast += broadcasts
	s.Direct += directs
	s.mu.Unlock()
}

// Snapshot returns a copy of the counters.
func (s *Stats) Snapshot() (transfers, broadcasts, directs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Transfers, s.Broadcast, s.Direct
}

// Group is one process group plus its client endpoints: in the simulator
// one Group hosts every member; in a cluster each process hosts one member
// (or none: a load generator), and a shared Transport wires them together.
type Group struct {
	cfg     Config
	stats   Stats
	tr      Transport
	vclk    *vclock.Virtual // non-nil when Clock is a Virtual
	stamped bool            // stamped sequencing active (see Config.Tick)
	boot    time.Time       // a cluster's view machine runs on wall time since
	wake    chan struct{}   // ticks a cluster's failure detector at once

	// mu guards the view machine and what follows.
	mu           sync.Mutex
	vs           viewState
	nodes        map[ids.ReplicaID]*Node // one per local member, fixed at NewGroup
	clients      map[ids.ClientID]*ClientEndpoint
	clientList   []*ClientEndpoint // the same, in registration order
	onViewChange []func(view uint64, seq ids.ReplicaID)
	isClosed     bool
	links        []seqLink     // sequencer fan-out (see fanOut); nil after a membership change
	linksFrom    ids.ReplicaID // the sequencer links was built for

	fwdMu      sync.Mutex
	fwdQ       []Envelope        // forwards awaiting the next drain
	fwdSince   time.Time         // when the oldest of them was queued
	tickParker vclock.Parker     // wakes runTicks (see kicksTick); set once by runTicks
	seqStats   SequencerStats    // what runTicks took from fwdQ; the wait quantiles live in seqWait
	seqWait    metrics.Histogram // how long each drain's oldest forward was queued, wall clock

	recMu      sync.Mutex
	recovering bool
	recBuf     []Envelope // transport arrivals buffered during recovery

	closed chan struct{}
}

// NewGroup creates the group and its locally hosted member nodes.
func NewGroup(cfg Config) *Group {
	if cfg.Clock == nil {
		panic("gcs: Config.Clock is required")
	}
	if len(cfg.Members) == 0 {
		panic("gcs: Config.Members must not be empty")
	}
	if cfg.DetectTimeout <= 0 {
		cfg.DetectTimeout = 50 * time.Millisecond
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Millisecond
	}
	members := append([]ids.ReplicaID(nil), cfg.Members...)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	cfg.Members = members
	local := cfg.Local
	if local == nil {
		local = members
	}
	g := &Group{
		cfg:     cfg,
		boot:    time.Now(),
		wake:    make(chan struct{}, 1),
		nodes:   map[ids.ReplicaID]*Node{},
		clients: map[ids.ClientID]*ClientEndpoint{},
		closed:  make(chan struct{}),
	}
	g.vclk, _ = cfg.Clock.(*vclock.Virtual)
	g.tr = cfg.Transport
	if g.tr == nil {
		if g.vclk == nil {
			panic("gcs: the in-memory transport needs a *vclock.Virtual clock (pace it for a wall-clock run)")
		}
		g.tr = newMemTransport(g)
	}
	g.stamped = cfg.Transport != nil && g.vclk != nil
	g.recovering = cfg.Recovering && g.stamped
	g.vs = viewState{self: -1, local: map[ids.ReplicaID]bool{}, detect: cfg.DetectTimeout, margin: takeoverMargin,
		canFetch: cfg.FetchGap != nil && g.stamped, oracle: !g.stamped, seq: members[0],
		crashed: map[ids.ReplicaID]time.Duration{}, members: members, learners: map[ids.ReplicaID]bool{}}
	for _, id := range local {
		g.vs.local[id] = true
	}
	if len(local) == 1 {
		g.vs.self = local[0]
	}
	for _, id := range cfg.Learners {
		if !slices.Contains(members, id) {
			g.vs.learners[id] = true
		}
	}
	if g.cfg.Logf == nil {
		g.cfg.Logf = func(string, ...interface{}) {}
	} else {
		// Prefix events with the hosted member (and group, when sharded)
		// so multi-process and multi-tenant logs interleave readably.
		self := "client"
		if len(local) == 1 {
			self = local[0].String()
		} else if len(local) > 1 {
			self = fmt.Sprintf("%v", local)
		}
		if cfg.Group != "" {
			self = cfg.Group + "/" + self
		}
		inner := g.cfg.Logf
		g.cfg.Logf = func(format string, args ...interface{}) {
			inner("["+self+"] "+format, args...)
		}
	}
	// Host a node for every local id — including a local learner whose id
	// is not (yet) in the voter set: a joining process participates in
	// delivery from the moment the cluster starts fanning out to it.
	for _, id := range local {
		n := newNode(g, id)
		g.nodes[id] = n
		enqueue := n.enqueue // one method value, not one per delivery
		g.tr.Bind(Origin{Replica: id}, func(envs ...Envelope) { g.inject(enqueue, envs...) })
	}
	if g.stamped && len(g.nodes) > 0 {
		// Every member-hosting process runs the sequencing loop; its body is a
		// no-op until this process hosts the current sequencer, so the
		// loop survives takeovers without being restarted.
		cfg.Clock.Go(g.runTicks)
		go g.runMonitor()
	}
	return g
}

// SetOnViewChange registers a callback run after every view adoption (the
// replication layer moves the nested-invocation performer with it).
// Register before traffic flows; callbacks accumulate.
func (g *Group) SetOnViewChange(fn func(view uint64, seq ids.ReplicaID)) {
	g.mu.Lock()
	g.onViewChange = append(g.onViewChange, fn)
	g.mu.Unlock()
}

// CurrentView returns the sequencing view number and the member
// currently assigning slots in it.
func (g *Group) CurrentView() (uint64, ids.ReplicaID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.vs.view, g.vs.seq
}

// Close stops the sequencing loop (if any) and closes the
// transport. Simulated groups never need it.
func (g *Group) Close() error {
	g.mu.Lock()
	if !g.isClosed {
		g.isClosed = true
		close(g.closed)
	}
	g.mu.Unlock()
	return g.tr.Close()
}

// SeqRetention resolves Config.SeqRetention into the bound of every
// member's sequenced log. The replication layer bounds the
// delivered-message log it keeps beside it by the same number.
func (g *Group) SeqRetention() int {
	if g.cfg.SeqRetention <= 0 {
		return DefaultSeqRetention
	}
	return g.cfg.SeqRetention
}

// Stats exposes the traffic counters.
func (g *Group) Stats() *Stats { return &g.stats }

// Node returns the member with the given id.
func (g *Group) Node(id ids.ReplicaID) *Node {
	n := g.nodes[id]
	if n == nil {
		panic(fmt.Sprintf("gcs: unknown member %v", id))
	}
	return n
}

// Members returns the current voter ids in ascending order. The list
// starts as Config.Members and changes only at membership activation
// slots (ApplyMembership).
func (g *Group) Members() []ids.ReplicaID {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Clone(g.vs.members)
}

// MembershipEpoch returns the epoch of the last applied configuration
// (0 until the first runtime change activates).
func (g *Group) MembershipEpoch() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.vs.epoch
}

// AddLearner registers a joining member: it starts receiving sequenced
// traffic and horizon multicasts like a voter but carries no quorum
// weight and cannot be elected. The activation slot's ApplyMembership
// promotes it. Idempotent; a no-op for an existing voter.
func (g *Group) AddLearner(id ids.ReplicaID) {
	g.mu.Lock()
	g.links = nil
	effs := g.vs.step(evLearner{id}, g.now())
	g.mu.Unlock()
	g.apply(effs)
}

// ApplyMembership installs the voter set of a membership configuration
// that reached its activation slot; every replica calls it at the same
// slot with the same arguments, so voter sets never diverge. ordered marks
// a deliberate change, not a seeded snapshot (the pairOrdered election
// exception). Stale epochs are ignored (returns false). A removed
// sequencer falls silent and the lowest remaining voter takes over
// through the ordinary objection-guarded election.
func (g *Group) ApplyMembership(epoch uint64, voters []ids.ReplicaID, ordered bool) bool {
	vs := slices.Clone(voters)
	slices.Sort(vs)
	g.mu.Lock()
	g.links = nil
	before := g.vs.epoch
	effs := g.vs.step(evApply{epoch, vs, ordered}, g.now())
	applied := g.vs.epoch != before
	g.mu.Unlock()
	g.apply(effs)
	return applied
}

// NewClientEndpoint registers a client endpoint.
func (g *Group) NewClientEndpoint(id ids.ClientID) *ClientEndpoint {
	g.mu.Lock()
	if _, dup := g.clients[id]; dup {
		g.mu.Unlock()
		panic(fmt.Sprintf("gcs: duplicate client %v", id))
	}
	c := newClientEndpoint(g, id)
	g.clients[id] = c
	g.clientList = append(g.clientList, c)
	g.mu.Unlock()
	put := c.put
	g.tr.Bind(Origin{Client: id, IsClient: true}, func(envs ...Envelope) { g.inject(put, envs...) })
	return c
}

// sequencer returns the sequencer senders address: in a cluster the view's
// (detection and view-sync already happened), in the simulator the one
// visibleSequencer reads off the crash marks.
func (g *Group) sequencer() ids.ReplicaID {
	now := g.cfg.Clock.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.stamped {
		return g.vs.seq
	}
	return visibleSequencer(g.vs.members, g.vs.crashed, now, g.vs.detect)
}

// Performer is the member that performs nested calls: in stamped mode the
// view's sequencer, in the simulator the lowest live member (-1: none).
func (g *Group) Performer() ids.ReplicaID {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.stamped {
		return g.vs.seq
	}
	return lowestLive(g.vs.members, g.vs.crashed)
}

// alive reports whether a member is still up.
func (g *Group) alive(id ids.ReplicaID) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return !g.vs.down(id)
}

// Crash stops a member: it no longer sends or receives anything; a crashed
// sequencer's survivors fail over after DetectTimeout and retransmit their
// pending forwards. Returns false if the member was already down.
func (g *Group) Crash(id ids.ReplicaID) bool {
	g.mu.Lock()
	was := g.vs.down(id)
	effs := g.vs.step(evCrash{id}, g.now())
	g.mu.Unlock()
	g.apply(effs)
	return !was
}

// AdoptView installs an externally learned view: the load generator, which
// receives no heartbeats, polls the members' Status and feeds view changes
// here so its clients re-route pending requests to the new sequencer.
func (g *Group) AdoptView(view uint64, seq ids.ReplicaID) { g.step(evAdopt{view, seq}) }

// SeedView installs the view a rejoining replica learned from its
// recovery donor before live traffic is replayed: members below the
// current sequencer are marked crash-detected (excluding locally hosted
// ones — the rejoining old sequencer itself stays alive as a follower).
func (g *Group) SeedView(view uint64, seq ids.ReplicaID) { g.step(evSeed{view, seq}) }

// Revive unmarks a crash-detected member after it reconnected (the
// transport reports its hello). Without it the sequencer would exclude
// the rejoined member from sequenced multicasts forever.
func (g *Group) Revive(id ids.ReplicaID) { g.step(evRevive{id}) }

// now is the instant the view machine runs at: virtual time in the
// simulator, wall time since the group was created in a cluster.
func (g *Group) now() time.Duration {
	if g.vs.oracle {
		return g.cfg.Clock.Now()
	}
	return time.Since(g.boot)
}

// step runs ev through the view machine under the group lock, then
// carries out its effects.
func (g *Group) step(ev any) {
	g.mu.Lock()
	effs := g.vs.step(ev, g.now())
	g.mu.Unlock()
	g.apply(effs)
}

// apply carries out the view machine's effects, in order, outside the lock.
func (g *Group) apply(effs []effect) {
	for _, e := range effs {
		switch e.kind {
		case effSend:
			g.transfer(e.key, Origin{Replica: e.to}, e.env)
		case effFetch:
			envs := g.cfg.FetchGap(e.to, e.from, e.max)
			g.step(evFetched{req: e, envs: envs, vnow: g.vclk.Now()})
		case effInject:
			g.inject(g.nodes[e.id].enqueue, e.envs...)
		case effPush:
			envs, _, ok := g.nodes[e.id].SequencedTail(e.from, e.max)
			if !ok {
				continue
			}
			// The takeover's fetched slots lie above our horizon, so they
			// are scheduled here but not delivered, and in no tail yet. A
			// peer that lacks them too would meet the gap only behind the
			// new view's heartbeats, with its clock past their stamps.
			next, end := e.from+uint64(len(envs)), e.from+uint64(e.max)
			for _, env := range e.envs {
				if env.Seq >= next && env.Seq < end {
					envs = append(envs, env)
					next = env.Seq + 1
				}
			}
			key := fmt.Sprintf("seq%v>%v", e.id, e.to)
			for _, env := range envs {
				g.transfer(key, Origin{Replica: e.to}, env)
			}
		case effRaise:
			g.nodes[e.id].raiseHighestSeen(e.from)
		case effPromote:
			if g.vclk != nil {
				g.vclk.PromoteLeader()
			}
		case effInstall:
			g.step(evAdopt{e.view, e.id})
		case effAdopt:
			g.mu.Lock()
			clients, cbs := g.clientList, g.onViewChange // both append-only
			g.mu.Unlock()
			for _, n := range g.nodes {
				if g.alive(n.id) {
					n.retransmitPending()
				}
			}
			for _, c := range clients {
				c.retransmitPending()
			}
			for _, cb := range cbs {
				cb(e.view, e.id)
			}
		case effArm: // the simulator's detect timer is virtual; a cluster's wakes its monitor
			if !g.stamped {
				g.cfg.Clock.Go(func() { g.cfg.Clock.Sleep(e.after); g.step(evTick{}) })
			} else {
				time.AfterFunc(e.after, g.poke)
			}
		case effLog:
			g.cfg.Logf(e.format, e.args...)
		}
	}
}

// poke runs the cluster's monitor tick at once.
func (g *Group) poke() {
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// runMonitor drives the view machine on the wall clock: a tick every
// DetectTimeout/4, and one whenever a timer the machine armed runs out.
// Heartbeats come at least every DetectTimeout/4, so a window without
// stamped traffic means the sequencer (or its expected successor) is gone.
func (g *Group) runMonitor() {
	ticker := time.NewTicker(max(g.cfg.DetectTimeout/4, time.Millisecond))
	defer ticker.Stop()
	for {
		select {
		case <-g.closed:
			return
		case <-ticker.C:
		case <-g.wake:
		}
		g.step(evTick{front: g.frontier(), recovering: g.Recovering()})
	}
}

// frontier is the local member's delivery state (zero when this process
// hosts none, or all of the simulator's).
func (g *Group) frontier() (f frontier) {
	if n := g.nodes[g.vs.self]; n != nil {
		f.next, f.highest = n.Frontier()
	}
	return f
}

// observe filters a stamped envelope against the view (viewState.observe).
func (g *Group) observe(e Envelope) bool {
	now := g.now()
	g.mu.Lock()
	effs, ok := g.vs.observe(e, now)
	g.mu.Unlock()
	g.apply(effs)
	return ok
}

// EnvKind classifies an envelope on the wire.
type EnvKind int

const (
	EnvForward   EnvKind = iota // needs sequencing (to the sequencer)
	EnvSequenced                // sequenced multicast (to all members)
	EnvDirect                   // application point-to-point
	EnvHorizon                  // time-horizon heartbeat (stamped mode)
	EnvViewReq                  // takeover view-sync probe (candidate → survivors)
	EnvViewAck                  // view-sync reply: frontier + highest stamp seen
)

// Envelope is the transport-level unit of transfer. The wire codec in
// internal/wire serializes exactly these fields.
type Envelope struct {
	Kind   EnvKind
	Seq    uint64 // total-order slot (sequenced envelopes)
	View   uint64 // sequencing view the envelope was produced in
	Origin Origin // broadcast originator
	UID    uint64 // per-origin unique id (duplicate suppression)
	From   Origin // transport-level sender (direct messages)
	To     Origin // destination endpoint
	// Stamp is the virtual delivery deadline assigned by the sequencer
	// in stamped mode (zero in the simulator): receivers inject the
	// envelope into their virtual timeline at exactly this instant. On
	// an EnvHorizon heartbeat it is a promise that no later sequenced
	// envelope will carry a smaller stamp.
	Stamp time.Duration
	// Class is the conflict class assigned by the sequencer's
	// Config.Classify when the slot was assigned (sequenced envelopes
	// only; 0 = global class). Wire protocol v5 carries it.
	Class   uint32
	Payload Payload
}

// transfer puts envs on the named FIFO link toward to as one atomic
// unit, counting them.
func (g *Group) transfer(key string, to Origin, envs ...Envelope) {
	g.stats.add(len(envs), 0, 0)
	g.tr.Send(key, to, envs...)
}

// seqLink is one leg of the sequencer's fan-out: a recipient and the
// name of the FIFO link toward it.
type seqLink struct {
	to  ids.ReplicaID
	key string
}

// fanOut returns the links from sequencer from to everyone it fans out
// to: voters plus learners, ascending (learners see the full stream so
// they are bit-identical with the voters by their activation slot). The
// links are built when the membership or the sequencer changes, not per
// multicast; the returned slice is never written again.
func (g *Group) fanOut(from ids.ReplicaID) []seqLink {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.links == nil || g.linksFrom != from {
		to := slices.Clone(g.vs.members)
		for id := range g.vs.learners {
			to = append(to, id)
		}
		sort.Slice(to, func(i, j int) bool { return to[i] < to[j] })
		g.links, g.linksFrom = make([]seqLink, len(to)), from
		for i, id := range to {
			g.links[i] = seqLink{to: id, key: fmt.Sprintf("seq%v>%v", from, id)}
		}
	}
	return g.links
}

// multicast fans sequenced envelopes out to every live recipient, one
// atomic unit per member; every recipient gets the same slice. hz, when
// non-nil, is the drain's horizon heartbeat: it rides behind the envelopes
// toward every remote member (a local one needs none — the sequenced
// stamps raise its horizon on injection) and travels alone when the drain
// sequenced nothing.
func (g *Group) multicast(from ids.ReplicaID, envs []Envelope, hz *Envelope) {
	remote := envs
	if hz != nil {
		remote = append(envs, *hz)
	}
	for _, lk := range g.fanOut(from) {
		if !g.alive(lk.to) {
			continue
		}
		msgs := remote
		if g.vs.local[lk.to] { // local is fixed at NewGroup
			msgs = envs
		}
		if len(msgs) > 0 {
			g.transfer(lk.key, Origin{Replica: lk.to}, msgs...)
		}
	}
}

// tickOrder ranks the sequencing loop's timer (same band as links).
var tickOrder = linkOrderBase + fnv32("tick")

// inject routes envelopes arriving from the transport into the local
// endpoint. In the simulator this is a straight pass-through; in stamped
// mode sequenced envelopes become clock events at their stamps (enqueue),
// forwards are queued for the sequencing loop's next drain, and horizon
// heartbeats raise the clock horizon.
func (g *Group) inject(enqueue func(Envelope), envs ...Envelope) {
	if !g.stamped {
		for _, e := range envs {
			enqueue(e)
		}
		return
	}
	var fwds []Envelope
	// The clock horizon rises once, after the whole batch is scheduled, to
	// the highest stamp in it. A drain's batch shares one stamp: raised after
	// the first envelope, the horizon lets the clock deliver that envelope —
	// a nested outcome, say, resuming its thread — before this goroutine
	// has scheduled the same-instant request behind it, and the replica
	// grants a shared mutex in an order no other replica sees.
	var horizon time.Duration
	for _, e := range envs {
		// View-sync runs outside both the virtual clock (which may be
		// stalled at the dead sequencer's last horizon) and recovery
		// buffering (a recovering donor can still report its frontier).
		switch e.Kind {
		case EnvViewReq:
			g.step(evViewReq{req: e, front: g.frontier(), recovering: g.Recovering()})
			continue
		case EnvViewAck:
			g.step(evViewAck{e})
			continue
		}
		// Recovery mode: buffer everything else. Injecting live sequenced
		// traffic now would advance the virtual clock past the stamps of
		// the tail we are about to fetch, executing replayed requests at
		// the wrong virtual instants — divergence. Direct messages (LSA
		// decisions, replies) are buffered too, not dropped: the transport
		// already acked them, so a drop would be permanent.
		g.recMu.Lock()
		if g.recovering {
			g.recBuf = append(g.recBuf, e)
			g.recMu.Unlock()
			continue
		}
		g.recMu.Unlock()
		switch {
		case e.Kind == EnvForward:
			fwds = append(fwds, e)
		case e.Kind == EnvHorizon || (e.Kind == EnvSequenced && e.Stamp > 0):
			if !g.observe(e) {
				// Stale view: a deposed sequencer's zombie heartbeat, or a
				// slot the order moved on without.
				continue
			}
			horizon = max(horizon, e.Stamp)
			if e.Kind == EnvSequenced {
				enqueue(e)
			}
		default:
			enqueue(e)
		}
	}
	g.vclk.SetHorizon(horizon) // a no-op at zero: the horizon is monotone
	if len(fwds) > 0 {
		g.fwdMu.Lock()
		g.fwdQ = append(g.fwdQ, fwds...)
		kick := kicksTick(len(g.fwdQ), len(fwds))
		if kick {
			g.fwdSince = time.Now()
		}
		parker := g.tickParker
		g.fwdMu.Unlock()
		// At most one wake-up per drain: only the loop empties the queue, so
		// between two drains one append finds it empty, and the parker keeps
		// a wake-up that lands while the loop is busy draining. A process
		// that does not host the sequencer never drains, so it runs the
		// hosting check once, not per forward.
		if kick && parker != nil && g.hostsSequencer() {
			parker.Unpark()
		}
	}
}

// hostsSequencer reports whether this process hosts the current
// sequencer (i.e. its sequencing loop is the one assigning slots).
func (g *Group) hostsSequencer() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.vs.local[g.vs.seq]
}

// BufferedSeqRange reports the sequenced envelopes buffered while the
// group is in recovery mode: the lowest and highest slot seen and their
// count. The recovery orchestrator uses it to decide when the fetched
// tail is contiguous with the live stream.
func (g *Group) BufferedSeqRange() (min, max uint64, count int) {
	g.recMu.Lock()
	defer g.recMu.Unlock()
	for _, e := range g.recBuf {
		if e.Kind != EnvSequenced {
			continue
		}
		if count == 0 || e.Seq < min {
			min = e.Seq
		}
		if e.Seq > max {
			max = e.Seq
		}
		count++
	}
	return min, max, count
}

// Recovering reports whether the group is still buffering (recovery
// mode).
func (g *Group) Recovering() bool {
	g.recMu.Lock()
	defer g.recMu.Unlock()
	return g.recovering
}

// ResumeLive ends recovery mode for the local member node: the fetched
// sequenced tail and the live traffic buffered since startup are merged
// (deduplicated by slot, ascending) and injected at their original
// virtual stamps, so the replayed schedule is bit-identical to the one
// the survivors executed. Once every slot is on the timeline, the horizon
// is raised to the highest stamp — that raises the paced clock's wall
// offset to at least that stamp, so the whole tail is wall-overdue and
// replays at full speed instead of in real time.
//
// next is the first total-order slot the node still has to deliver
// (checkpoint seq + 1). Tail entries and buffered slots below it are
// discarded.
func (g *Group) ResumeLive(next uint64, tail []Envelope) {
	g.recMu.Lock()
	defer g.recMu.Unlock()
	if !g.recovering {
		return
	}
	g.recovering = false
	buf := g.recBuf
	g.recBuf = nil

	node := g.nodes[g.vs.self] // recovery mode hosts exactly one local member
	if node == nil {
		return
	}

	var maxStamp time.Duration
	var slots, others []Envelope
	for _, e := range slices.Concat(tail, buf) {
		switch e.Kind {
		case EnvHorizon:
			maxStamp = max(maxStamp, e.Stamp)
		case EnvSequenced:
			if e.Seq >= next {
				slots = append(slots, e)
			}
		default:
			// Directs (LSA decisions, replies) keep their arrival order;
			// stray forwards re-route to the sequencer via handleForward.
			others = append(others, e)
		}
	}
	// Ascending, one envelope per slot: the tail's copy before a buffered one.
	slices.SortStableFunc(slots, func(a, b Envelope) int { return cmp.Compare(a.Seq, b.Seq) })
	slots = slices.CompactFunc(slots, func(a, b Envelope) bool { return a.Seq == b.Seq })
	for _, e := range slots {
		maxStamp = max(maxStamp, e.Stamp)
	}

	g.mu.Lock() // view-sync reports it: a new sequencer stamps above it
	g.vs.maxStamp = max(g.vs.maxStamp, maxStamp)
	g.mu.Unlock()
	node.resumeAt(next)
	// Each slot is a clock event at its stamp ranked by slot (enqueue), so
	// same-stamp slots deliver in sequencing order, also among the live
	// slots that readers inject from here on. The horizon opens only after
	// the last one is scheduled: this goroutine is not the clock's, and
	// opened first, it let the clock run the first slots' threads past the
	// stamps of slots not on the timeline yet, which then ran late.
	for _, e := range slots {
		node.enqueue(e)
	}
	g.vclk.SetHorizon(maxStamp) // a no-op at zero: the horizon is monotone
	for _, e := range others {
		node.enqueue(e)
	}
}

// runTicks is the stamped-mode sequencing loop, run by every member-
// hosting process: its body is a no-op unless this process currently
// hosts the sequencer, so a takeover activates it without restarting
// anything. The loop is arrival-driven: the first forward into an empty
// queue wakes it (kicksTick), it takes everything queued, assigns the
// total-order slots under one shared stamp and multicasts them with a
// horizon heartbeat (carrying the current view).
// Forwards that arrive while a drain and its fan-out are under way ride
// the next drain, so batches grow exactly when the sequencer is busy.
// The timer is left with the idle heartbeat, one every Tick: between
// arrivals it is the only thing that raises a follower's clock horizon,
// and it keeps the failure detector fed. Stamps rise strictly from
// drain to drain and only the sequencer decides when to drain —
// followers obey the stamps — so the schedule every replica executes is
// a function of arrival order and stamps alone. After a takeover the
// stamp floor keeps new stamps above every horizon the previous
// sequencer published.
//
// A stamp is the sequencer's current instant plus 1ns, so its own replica
// runs the drain at once, gated by wall time only, and usually answers
// first. The invariant is that a stamp lies strictly above every instant
// the sequencer's clock has reached. It holds because the clock cannot
// move between Now and the multicast: this loop is a runnable managed
// goroutine, and a virtual clock advances only when none is runnable; the
// transport hands the local member its copy inside the multicast
// (ScheduleAt), which keeps the clock from passing the stamp before the
// delivery runs. Followers still obey stamps and horizons alone.
//
// Group commit: a drain's sequenced envelopes — which all share one
// stamp and deliver in slot order — travel as a single multi-envelope
// frame per member, with the horizon heartbeat last in the same frame,
// so one syscall and one frame header carry the whole drain's decisions.
func (g *Group) runTicks() {
	parker := g.vclk.NewOrderedParker("gcs tick", tickOrder)
	g.fwdMu.Lock()
	g.tickParker = parker
	g.fwdMu.Unlock()
	var last time.Duration // previous drain's stamp
	for {
		parker.ParkTimeout(g.cfg.Tick)
		select {
		case <-g.closed:
			return
		default:
		}
		if g.Recovering() {
			continue
		}
		g.mu.Lock()
		seqID, view, floor := g.vs.seq, g.vs.view, g.vs.floor
		n := g.nodes[seqID]
		if n != nil && g.vs.down(seqID) {
			// An ordered removal took this process's member out of the
			// voter set while it was the sequencer: fall silent so the
			// survivors' failure detector hands the role to the lowest
			// remaining voter.
			n = nil
		}
		g.mu.Unlock()
		if n == nil {
			continue // not hosting the sequencer (yet)
		}
		g.fwdMu.Lock()
		batch := g.fwdQ
		g.fwdQ = nil
		if st := &g.seqStats; len(batch) > 0 {
			st.Drains++
			st.Sequenced += uint64(len(batch))
			st.MaxBatch = max(st.MaxBatch, len(batch))
			g.seqWait.Add(time.Since(g.fwdSince))
		}
		g.fwdMu.Unlock()
		// Strictly above the previous drain's stamp: a drain happens at the
		// instant the clock shows, consecutive drains usually share that
		// instant, and a follower already executing the first batch at its
		// stamp would admit a second batch of the same stamp behind work
		// this process — which schedules both before the instant arrives —
		// runs after it.
		stamp := max(g.cfg.Clock.Now()+1, floor, last+1)
		last = stamp
		g.multicast(seqID, n.sequence(batch, stamp, view),
			&Envelope{Kind: EnvHorizon, View: view, From: Origin{Replica: seqID}, Stamp: stamp})
	}
}

// kicksTick reports whether forwards arriving into the sequencer's queue
// (arrived of them, queued in total now) wake the loop: the ones that
// found the queue empty do. Later arrivals ride the drain already on its
// way.
func kicksTick(queued, arrived int) bool {
	return queued == arrived
}

// SequencerStats is the sequencer stage of a request, measured where it
// happens: what the local sequencing loop took from its queue (zero on a
// process that never hosted the sequencer). Sequenced/Drains is the mean
// batch — about 1 while the sequencer keeps up, growing when arrivals
// find it busy — and QueueWait the wall-clock time the oldest forward of
// a drain spent queued. It is the "sequencing" block of the server's
// status and, through String, one line of its shutdown log.
type SequencerStats struct {
	Drains         uint64  `json:"drains"`    // drains that took at least one forward
	Sequenced      uint64  `json:"sequenced"` // forwards they took
	MaxBatch       int     `json:"max_batch"`
	QueueWaitP50Ms float64 `json:"queue_wait_p50_ms"`
	QueueWaitP99Ms float64 `json:"queue_wait_p99_ms"`
}

func (s SequencerStats) String() string {
	return fmt.Sprintf("drains=%d sequenced=%d max_batch=%d queue_wait_ms p50=%.3f p99=%.3f",
		s.Drains, s.Sequenced, s.MaxBatch, s.QueueWaitP50Ms, s.QueueWaitP99Ms)
}

// SequencerStats snapshots the local sequencing loop's counters.
func (g *Group) SequencerStats() SequencerStats {
	g.fwdMu.Lock()
	defer g.fwdMu.Unlock()
	st := g.seqStats
	q := g.seqWait.Quantiles(50, 99)
	st.QueueWaitP50Ms = float64(q[0]) / float64(time.Millisecond)
	st.QueueWaitP99Ms = float64(q[1]) / float64(time.Millisecond)
	return st
}
