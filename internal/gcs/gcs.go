// Package gcs simulates the group communication system that FTflex
// relies on (paper Sect. 2): totally ordered broadcast to a static group
// of replicas, duplicate suppression, point-to-point messages, and a
// simple sequencer-takeover protocol for leader failure.
//
// The simulation runs on a vclock.Clock: every message transfer costs the
// configured one-way latency of virtual time, and per-node delivery loops
// hand messages to the replication layer one at a time, only when the
// rest of the system is quiescent at the current instant — the same
// discipline as core's event pump, which keeps simultaneous deliveries
// deterministic.
//
// Total order is provided by a fixed-sequencer protocol: nodes (and
// clients) forward payloads to the current sequencer, which assigns
// sequence numbers and multicasts; receivers deliver in sequence order
// through a hold-back queue, suppressing duplicates by (origin, uid).
// When the sequencer crashes, surviving nodes detect the failure after
// DetectTimeout, adopt the lowest-id survivor as the new sequencer, and
// retransmit their unsequenced forwards — the takeover cost that
// experiment E5 measures for LSA versus the symmetric algorithms.
package gcs

import (
	"errors"
	"fmt"
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
	// Group names the replication group this endpoint belongs to in a
	// sharded deployment ("g0", "g1", ...; "" for single-group). It is
	// the group's identity, not behavior: member ids, views, and seqno
	// spaces of distinct groups are independent, and the tag shows up in
	// log prefixes and server status so interleaved multi-tenant output
	// stays attributable. The matching wire-transport Group tag (which
	// DOES enforce isolation at handshake) is set separately by the
	// process that builds the transport.
	Group string
	// Latency is the one-way transfer time between any two endpoints
	// (including a node's messages to itself, for symmetry). Only the
	// in-memory transport uses it.
	Latency time.Duration
	// DetectTimeout is how long survivors take to detect a crashed
	// sequencer and fail over.
	DetectTimeout time.Duration

	// Transport carries envelopes between endpoints. nil selects the
	// in-memory virtual-latency transport (the simulator). A distributed
	// deployment passes the TCP transport from internal/wire.
	Transport Transport
	// Local lists the member ids hosted in this process. nil means all
	// members are local (the simulator); an empty non-nil slice means
	// none are (a client-only process such as a load generator).
	Local []ids.ReplicaID
	// Learners lists members that receive sequenced traffic and horizon
	// multicasts but carry no quorum weight and cannot be elected — the
	// state a joining replica occupies between its AddReplica change
	// being delivered and that change's activation slot. A joining
	// process lists itself here (and in Local) while its id is absent
	// from Members; established processes learn of learners at runtime
	// via AddLearner.
	Learners []ids.ReplicaID
	// Tick and Budget configure stamped sequencing, active when a
	// non-nil Transport is combined with a Virtual clock: the sequencer
	// drains forwarded broadcasts as they arrive (see kicksTick) and
	// stamps each sequenced message with a virtual delivery deadline
	// Budget in the future; Tick is the base interval of the heartbeat it
	// multicasts when nothing arrives (see nextTick for the idle stretch).
	// Every member injects the message into its own virtual timeline at
	// exactly that instant and treats the stamps as its clock horizon,
	// so all replicas execute an identical virtual schedule even though
	// real network delays differ. When stamped sequencing is active the
	// clock must have pacing enabled (vclock.Virtual.EnablePacing)
	// before NewGroup is called.
	Tick   time.Duration
	Budget time.Duration

	// FetchGap, when set (stamped mode), fetches up to max sequenced
	// slots starting at from that this process missed, from the donor
	// member. The sequencer-takeover path uses it to heal the candidate
	// before it assumes the new view; the server wires it to the wire
	// transport's catch-up fetch. Called from an unmanaged goroutine.
	FetchGap func(donor ids.ReplicaID, from uint64, max int) []Envelope

	// Recovering starts the group in recovery mode (stamped mode only):
	// all transport traffic is buffered instead of injected, so the
	// virtual clock cannot advance past the stamps of the sequenced tail
	// the process is about to fetch from a donor. ResumeLive ends the
	// mode, replaying the tail and the buffered live stream in seq order
	// at their original stamps.
	Recovering bool
	// SeqRetention bounds the per-node log of delivered sequenced
	// envelopes kept for donor-side catch-up (SequencedTail). 0 applies
	// DefaultSeqRetention; negative retains everything.
	SeqRetention int

	// Classify, when set, runs at the sequencer against every payload
	// being assigned a total-order slot and returns its conflict class
	// (package earlysched); the class is stamped into the sequenced
	// envelope and delivered in Message.Class on every member. nil (or a
	// return of 0) means the conservative global class. Classify must be
	// a pure function of the payload: every member that could become
	// sequencer must stamp identically, or a takeover would change the
	// classes mid-stream.
	Classify func(Payload) uint32

	// Logf, when set, receives view-change and failure-detection events
	// (elections are rare and operator-relevant; nothing on the per-
	// message hot path logs).
	Logf func(format string, args ...interface{})
}

// DefaultSeqRetention is the sequenced-log bound applied when Config
// leaves SeqRetention at zero. A rejoining replica can replay at most
// this many slots from a donor; a longer outage needs a checkpoint
// newer than the donor's log start (checkpoints are taken continuously,
// so in practice this bounds donor memory, not recoverability).
const DefaultSeqRetention = 16384

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

// Group is one process group plus its client endpoints. In the simulator
// every member is hosted by the same Group; in a distributed deployment
// each process hosts a Group with one local member (or none, for pure
// client processes), wired together by a shared Transport implementation.
type Group struct {
	cfg     Config
	stats   Stats
	tr      Transport
	vclk    *vclock.Virtual // non-nil when Clock is a Virtual
	stamped bool            // stamped sequencing active (see Config.Tick)

	mu        sync.Mutex
	nodes     map[ids.ReplicaID]*Node
	localSet  map[ids.ReplicaID]bool
	clients   map[ids.ClientID]*ClientEndpoint
	crashed   map[ids.ReplicaID]bool
	crashedAt map[ids.ReplicaID]time.Duration
	isClosed  bool

	// Dynamic membership (epoch-based reconfiguration): members is the
	// current voter set, mutated only by ApplyMembership at activation
	// slots of the total order; learners receive the full sequenced
	// fan-out but carry no quorum weight. memberEpoch gates stale
	// applications; pairOrdered records that the current 2-voter set
	// resulted from an ordered removal (see takeoverQuorumMet).
	members     []ids.ReplicaID
	learners    map[ids.ReplicaID]bool
	memberEpoch uint64
	pairOrdered bool
	links       []seqLink     // sequencer fan-out (see fanOut); nil after a membership change
	linksFrom   ids.ReplicaID // the sequencer links was built for

	// Sequencing view: a monotone number bumped on every takeover, with
	// the member currently assigning total-order slots. Every stamped
	// envelope carries the view; receivers drop traffic from older views
	// and adopt newer ones (viewstamped-replication style).
	view         uint64
	seqID        ids.ReplicaID
	maxStamp     time.Duration              // highest stamp/horizon observed
	stampFloor   time.Duration              // new-view stamps must exceed this
	viewAcks     map[ids.ReplicaID]Envelope // view-sync replies being collected
	viewAckFor   uint64                     // ... for this proposed view
	onViewChange []func(view uint64, seq ids.ReplicaID)
	takingOver   bool

	// Wall-clock failure detection (stamped mode): the monitor marks the
	// sequencer crashed when no stamped traffic arrived for DetectTimeout.
	trafficMu      sync.Mutex
	lastSeqTraffic time.Time

	fwdMu      sync.Mutex
	fwdQ       []Envelope        // forwards awaiting the next drain
	fwdSince   time.Time         // when the oldest of them was queued
	tickParker vclock.Parker     // wakes runTicks (see kicksTick); set once by runTicks
	seqStats   SequencerStats    // what runTicks took from fwdQ; the wait quantiles live in seqWait
	seqWait    metrics.Histogram // how long each drain's oldest forward was queued, wall clock

	recMu      sync.Mutex
	recovering bool
	recBuf     []Envelope // transport arrivals buffered during recovery

	// gapWedged marks a delivery gap whose slots' stamps the local
	// virtual clock has already passed: in-band healing would execute
	// them at the wrong instants (divergence), so only a full recovery
	// restart can fix it. Cleared on a view change (the takeover heal
	// may close the hole from the outside).
	gapWedged bool

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
	if cfg.Budget <= 0 {
		cfg.Budget = 5 * time.Millisecond
	}
	members := append([]ids.ReplicaID(nil), cfg.Members...)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	cfg.Members = members
	local := cfg.Local
	if local == nil {
		local = members
	}
	g := &Group{
		cfg:       cfg,
		nodes:     map[ids.ReplicaID]*Node{},
		localSet:  map[ids.ReplicaID]bool{},
		clients:   map[ids.ClientID]*ClientEndpoint{},
		crashed:   map[ids.ReplicaID]bool{},
		crashedAt: map[ids.ReplicaID]time.Duration{},
		members:   members,
		learners:  map[ids.ReplicaID]bool{},
		closed:    make(chan struct{}),
	}
	for _, id := range local {
		g.localSet[id] = true
	}
	for _, id := range cfg.Learners {
		if !containsID(members, id) {
			g.learners[id] = true
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
	g.vclk, _ = cfg.Clock.(*vclock.Virtual)
	g.tr = cfg.Transport
	if g.tr == nil {
		g.tr = newMemTransport(g)
	}
	g.stamped = cfg.Transport != nil && g.vclk != nil
	g.recovering = cfg.Recovering && g.stamped
	g.seqID = members[0]
	g.lastSeqTraffic = time.Now()
	// Host a node for every local id — including a local learner whose id
	// is not (yet) in the voter set: a joining process participates in
	// delivery from the moment the cluster starts fanning out to it.
	for _, id := range local {
		n := newNode(g, id)
		g.nodes[id] = n
		g.tr.Bind(Origin{Replica: id}, func(envs ...Envelope) { g.inject(n.enqueue, envs...) })
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

// SetOnViewChange registers a callback invoked (from an unmanaged
// goroutine) after every view adoption. The replication layer uses it to
// move the nested-invocation performer role. Register before traffic
// flows; callbacks accumulate so every locally hosted replica can
// observe the change.
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
	return g.view, g.seqID
}

// Distributed reports whether the group runs in stamped (real-transport)
// mode rather than the in-memory simulator.
func (g *Group) Distributed() bool { return g.stamped }

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

func (g *Group) isLocal(id ids.ReplicaID) bool { return g.localSet[id] }

// SeqRetention resolves Config.SeqRetention into the bound of every
// member's sequenced log: 0 applies the default, negative disables trimming
// (0 here). The replication layer bounds the delivered-message log it
// keeps beside it by the same number.
func (g *Group) SeqRetention() int {
	if g.cfg.SeqRetention == 0 {
		return DefaultSeqRetention
	}
	if g.cfg.SeqRetention < 0 {
		return 0
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
	return append([]ids.ReplicaID(nil), g.members...)
}

// Learners returns the current learner ids in ascending order.
func (g *Group) Learners() []ids.ReplicaID {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]ids.ReplicaID, 0, len(g.learners))
	for id := range g.learners {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MembershipEpoch returns the epoch of the last applied configuration
// (0 until the first runtime change activates).
func (g *Group) MembershipEpoch() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.memberEpoch
}

// AddLearner registers a joining member: it starts receiving sequenced
// traffic and horizon multicasts like a voter but carries no quorum
// weight and cannot be elected. The activation slot's ApplyMembership
// promotes it. Idempotent; a no-op for an existing voter.
func (g *Group) AddLearner(id ids.ReplicaID) {
	g.mu.Lock()
	already := g.learners[id] || containsID(g.members, id)
	if !already {
		g.learners[id] = true
		g.links = nil
	}
	// A learner may carry a stale crash mark (e.g. an id reused after an
	// earlier removal); clear it so fan-out reaches it.
	delete(g.crashed, id)
	delete(g.crashedAt, id)
	g.mu.Unlock()
	if !already {
		g.cfg.Logf("gcs: member %v added as learner", id)
	}
}

// ApplyMembership installs the voter set of a membership configuration
// that reached its activation slot. Every replica calls it at the same
// slot with the same arguments (the config rode the total order), so
// voter sets never diverge. ordered marks a deliberate (in-order)
// change as opposed to a seeded snapshot; it feeds the pairOrdered
// election exception. Stale epochs are ignored (returns false).
//
// A sequencer that is removed by the new config marks itself crashed
// and falls silent; survivors mark it crashed too (back-dated, no
// detection window for senders) and the lowest remaining voter then
// announces the next view through the normal objection-guarded
// takeover once the silence is observed.
func (g *Group) ApplyMembership(epoch uint64, voters []ids.ReplicaID, ordered bool) bool {
	vs := append([]ids.ReplicaID(nil), voters...)
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	g.mu.Lock()
	if epoch <= g.memberEpoch || len(vs) == 0 {
		g.mu.Unlock()
		return false
	}
	old := g.members
	g.memberEpoch = epoch
	g.members = vs
	g.links = nil
	g.pairOrdered = ordered && len(vs) == 2
	now := g.cfg.Clock.Now()
	var removed []ids.ReplicaID
	for _, id := range old {
		if !containsID(vs, id) {
			removed = append(removed, id)
		}
	}
	for _, id := range vs {
		if g.learners[id] {
			delete(g.learners, id)
			// A promoted learner is by definition caught up (it delivered
			// this very activation slot); make sure no stale crash mark
			// hides it from the fan-out or the election scan.
			delete(g.crashed, id)
			delete(g.crashedAt, id)
		}
	}
	for _, id := range removed {
		delete(g.learners, id)
		if !g.crashed[id] {
			g.crashed[id] = true
			g.crashedAt[id] = now - g.cfg.DetectTimeout
		}
	}
	seqRemoved := !containsID(vs, g.seqID)
	g.mu.Unlock()
	g.cfg.Logf("gcs: membership epoch %d active: voters %v (removed %v)", epoch, vs, removed)
	if seqRemoved {
		// The sequencer left by configuration: restart the silence window
		// so the takeover candidate gets a full DetectTimeout after the
		// deposed sequencer's final multicast.
		g.touchSeqTraffic()
	}
	return true
}

func containsID(s []ids.ReplicaID, id ids.ReplicaID) bool {
	for _, x := range s {
		if x == id {
			return true
		}
	}
	return false
}

// GroupTag returns the shard identity this group was configured with
// ("" in single-group deployments).
func (g *Group) GroupTag() string { return g.cfg.Group }

// NewClientEndpoint registers a client endpoint.
func (g *Group) NewClientEndpoint(id ids.ClientID) *ClientEndpoint {
	g.mu.Lock()
	if _, dup := g.clients[id]; dup {
		g.mu.Unlock()
		panic(fmt.Sprintf("gcs: duplicate client %v", id))
	}
	c := newClientEndpoint(g, id)
	g.clients[id] = c
	g.mu.Unlock()
	g.tr.Bind(Origin{Client: id, IsClient: true}, func(envs ...Envelope) { g.inject(c.enqueue, envs...) })
	return c
}

// sequencer returns the sequencer as *currently visible* to senders: a
// crashed sequencer keeps receiving (and dropping) traffic until the
// failure-detection timeout passes — that lost window is exactly the
// takeover cost experiment E5 measures.
func (g *Group) sequencer() ids.ReplicaID {
	now := g.cfg.Clock.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.stamped {
		// Distributed mode: the view state machine is authoritative (the
		// wall-clock monitor and view-sync already encode detection).
		return g.seqID
	}
	for _, id := range g.members {
		if at, dead := g.crashedAt[id]; dead && now >= at+g.cfg.DetectTimeout {
			continue // failure already detected: skip
		}
		return id
	}
	return -1
}

// CurrentSequencer exposes the sender-visible sequencer (may be -1 when
// every member is crash-detected). The replication layer uses it to pick
// the nested-invocation performer in distributed mode.
func (g *Group) CurrentSequencer() ids.ReplicaID { return g.sequencer() }

// actualSequencerLocked ignores detection delay (internal liveness view).
func (g *Group) actualSequencerLocked() ids.ReplicaID {
	for _, id := range g.members {
		if !g.crashed[id] {
			return id
		}
	}
	return -1
}

// alive reports whether a member is still up.
func (g *Group) alive(id ids.ReplicaID) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return !g.crashed[id]
}

// Alive reports whether a member is still up (public view for the
// replication layer, e.g. to pick the nested-invocation performer).
func (g *Group) Alive(id ids.ReplicaID) bool { return g.alive(id) }

// LiveMembers returns the live member ids in ascending order.
func (g *Group) LiveMembers() []ids.ReplicaID {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []ids.ReplicaID
	for _, id := range g.members {
		if !g.crashed[id] {
			out = append(out, id)
		}
	}
	return out
}

// Crash stops a member: it no longer sends or receives anything. If the
// member was the sequencer, survivors fail over after DetectTimeout:
// they adopt the next sequencer and retransmit unsequenced forwards.
// Returns false if the member was already down.
func (g *Group) Crash(id ids.ReplicaID) bool {
	g.mu.Lock()
	if g.crashed[id] {
		g.mu.Unlock()
		return false
	}
	wasSequencer := g.actualSequencerLocked() == id
	g.crashed[id] = true
	g.crashedAt[id] = g.cfg.Clock.Now()
	newSeq := g.actualSequencerLocked()
	g.mu.Unlock()

	if !wasSequencer || newSeq < 0 {
		return true
	}
	// Failure detection after the timeout: survivors adopt the next view
	// (recomputing the lowest live member at that instant, so cascading
	// crashes during the window resolve to the right sequencer) and
	// retransmit their unsequenced forwards.
	g.cfg.Clock.Go(func() {
		g.cfg.Clock.Sleep(g.cfg.DetectTimeout)
		g.detectFailover()
	})
	return true
}

// detectFailover recomputes the sequencer from current liveness and, if
// it moved, adopts the next view. The simulator schedules it one
// DetectTimeout after a sequencer crash; the distributed wall-clock
// monitor reaches the same state machine through leadTakeover.
func (g *Group) detectFailover() {
	g.mu.Lock()
	s := g.actualSequencerLocked()
	if s < 0 || s == g.seqID {
		g.mu.Unlock()
		return
	}
	v := g.view + 1
	g.mu.Unlock()
	g.adoptView(v, s)
}

// adoptView installs view v with sequencer s, marks every member below s
// as crash-detected, retransmits unsequenced forwards from local nodes
// and clients, and fires the view-change callback. Stale or duplicate
// views are ignored (returns false).
func (g *Group) adoptView(v uint64, s ids.ReplicaID) bool {
	g.mu.Lock()
	if v <= g.view {
		g.mu.Unlock()
		return false
	}
	g.view = v
	g.seqID = s
	g.gapWedged = false // the new view's takeover heal may close the hole
	now := g.cfg.Clock.Now()
	for _, id := range g.members {
		if id < s && !g.crashed[id] {
			g.crashed[id] = true
			// Back-date so the sender-visible scan skips it immediately.
			g.crashedAt[id] = now - g.cfg.DetectTimeout
		}
	}
	var nodes []*Node
	for _, n := range g.nodes {
		if !g.crashed[n.id] {
			nodes = append(nodes, n)
		}
	}
	clients := make([]*ClientEndpoint, 0, len(g.clients))
	for _, c := range g.clients {
		clients = append(clients, c)
	}
	cbs := make([]func(uint64, ids.ReplicaID), len(g.onViewChange))
	copy(cbs, g.onViewChange)
	g.mu.Unlock()
	g.cfg.Logf("gcs: adopted view %d, sequencer %v", v, s)
	g.touchSeqTraffic()
	for _, n := range nodes {
		n.retransmitPending()
	}
	for _, c := range clients {
		c.retransmitPending()
	}
	for _, cb := range cbs {
		cb(v, s)
	}
	return true
}

// AdoptView installs an externally learned view (public entry for
// processes that receive no heartbeats — the load generator polls the
// members' Status and feeds view changes here so its clients re-route
// pending requests to the new sequencer).
func (g *Group) AdoptView(view uint64, seq ids.ReplicaID) { g.adoptView(view, seq) }

// SeedView installs the view a rejoining replica learned from its
// recovery donor before live traffic is replayed: members below the
// current sequencer are marked crash-detected (excluding locally hosted
// ones — the rejoining old sequencer itself stays alive as a follower).
func (g *Group) SeedView(view uint64, seq ids.ReplicaID) {
	g.mu.Lock()
	if view > g.view || (view == g.view && seq > g.seqID) {
		g.view = view
		g.seqID = seq
		now := g.cfg.Clock.Now()
		for _, id := range g.members {
			if id < seq && !g.crashed[id] && !g.localSet[id] {
				g.crashed[id] = true
				g.crashedAt[id] = now - g.cfg.DetectTimeout
			}
		}
	}
	g.mu.Unlock()
	g.touchSeqTraffic()
}

// Revive unmarks a crash-detected member after it reconnected (the
// transport reports its hello). Without it the sequencer would exclude
// the rejoined member from sequenced multicasts forever.
func (g *Group) Revive(id ids.ReplicaID) {
	g.mu.Lock()
	was := g.crashed[id]
	delete(g.crashed, id)
	delete(g.crashedAt, id)
	g.mu.Unlock()
	if was {
		g.cfg.Logf("gcs: member %v revived", id)
	}
}

// touchSeqTraffic resets the wall-clock staleness window used by the
// failure monitor.
func (g *Group) touchSeqTraffic() {
	g.trafficMu.Lock()
	g.lastSeqTraffic = time.Now()
	g.trafficMu.Unlock()
}

// seqTrafficAge returns the wall time since the last sequencer sign of
// life.
func (g *Group) seqTrafficAge() time.Duration {
	g.trafficMu.Lock()
	defer g.trafficMu.Unlock()
	return time.Since(g.lastSeqTraffic)
}

// runMonitor is the distributed failure detector: a wall-clock loop
// (stamped processes host real goroutines freely — only managed ones
// obey the virtual clock) that watches for sequencer silence. Heartbeats
// arrive at least every 4·Tick (capped at DetectTimeout/4), so
// DetectTimeout without any stamped traffic means the sequencer (or the
// candidate expected to replace it) is gone; the lowest live member then
// leads a takeover, everyone else widens the window and waits for the
// new view to announce itself.
func (g *Group) runMonitor() {
	interval := g.cfg.DetectTimeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var gapNext uint64     // frontier last seen stuck below highestSeen
	var gapSince time.Time // when it was first seen stuck there
	for {
		select {
		case <-g.closed:
			return
		case <-ticker.C:
		}
		if g.Recovering() {
			g.touchSeqTraffic()
			continue
		}
		g.mu.Lock()
		seq := g.seqID
		hostingSeq := g.localSet[seq]
		busy := g.takingOver
		g.mu.Unlock()
		if hostingSeq || busy {
			g.touchSeqTraffic()
			continue
		}
		g.healDeliveryGap(&gapNext, &gapSince)
		if g.seqTrafficAge() < g.cfg.DetectTimeout {
			continue
		}
		// The sequencer is silent: declare it crashed and line up behind
		// the lowest live member. If that is us, run the takeover; if
		// not, restart the window so the candidate gets its own
		// DetectTimeout to announce the new view before we cascade past
		// it.
		g.mu.Lock()
		if !g.crashed[seq] {
			g.crashed[seq] = true
			g.crashedAt[seq] = g.cfg.Clock.Now() - g.cfg.DetectTimeout
		}
		cand := g.actualSequencerLocked()
		lead := cand >= 0 && g.localSet[cand]
		if lead {
			g.takingOver = true
		}
		curView := g.view
		g.mu.Unlock()
		g.cfg.Logf("gcs: sequencer %v silent for %v (view %d): candidate %v (lead=%v)",
			seq, g.cfg.DetectTimeout, curView, cand, lead)
		g.touchSeqTraffic()
		if lead {
			g.leadTakeover(cand)
			g.mu.Lock()
			g.takingOver = false
			g.mu.Unlock()
		}
	}
}

// healDeliveryGap closes a follower's delivery hole outside a takeover.
// A member partitioned across a view change holds slots ABOVE a gap the
// takeover heal never closed (it was unreachable when the new sequencer
// collected frontiers), so its frontier wedges below highestSeen forever
// while the cluster moves on. When the frontier sits still below
// highestSeen for a full detect window — ordinary in-flight slots clear
// within a tick — the monitor fetches the missing range from a live
// peer and injects it through the stamped path, exactly like the
// takeover self-heal. gapNext/gapSince persist across monitor ticks to
// carry the stall detection.
func (g *Group) healDeliveryGap(gapNext *uint64, gapSince *time.Time) {
	if g.cfg.FetchGap == nil || !g.stamped {
		return
	}
	g.mu.Lock()
	wedged := g.gapWedged
	var self ids.ReplicaID = -1
	var n *Node
	for id, node := range g.nodes {
		if self < 0 || id < self {
			self, n = id, node
		}
	}
	seq := g.seqID
	var donors []ids.ReplicaID
	for _, id := range g.members {
		if id != self && !g.crashed[id] && !g.localSet[id] {
			donors = append(donors, id)
		}
	}
	g.mu.Unlock()
	if wedged {
		return
	}
	if n == nil || len(donors) == 0 {
		return
	}
	next, highest := n.Frontier()
	if highest < next {
		*gapNext = 0
		return
	}
	if next != *gapNext {
		*gapNext, *gapSince = next, time.Now()
		return
	}
	if time.Since(*gapSince) < g.cfg.DetectTimeout {
		return
	}
	// Prefer the sequencer: its retention window is authoritative. A
	// trimmed range comes back empty and the replica stays wedged — that
	// is the pre-existing "restart with -recover" case, now logged.
	donor := donors[0]
	for _, id := range donors {
		if id == seq {
			donor = id
			break
		}
	}
	envs := g.cfg.FetchGap(donor, next, int(highest-next)+1)
	switch {
	case len(envs) > 0 && envs[0].Stamp > 0 && envs[0].Stamp <= g.vclk.Now():
		// The local clock already passed the missing slots' stamps (a
		// long partition, typically across a view change): injecting now
		// would execute them at the wrong virtual instants — divergence.
		// Only a full recovery restart replays them correctly.
		g.mu.Lock()
		g.gapWedged = true
		g.mu.Unlock()
		g.cfg.Logf("gcs: %v delivery gap [%d..%d] predates the local virtual clock (stamp %v <= now %v); "+
			"in-band heal unsafe, restart with -recover", self, next, highest, envs[0].Stamp, g.vclk.Now())
	case len(envs) > 0:
		g.cfg.Logf("gcs: %v healing delivery gap [%d..%d]: fetched %d slots from %v",
			self, next, highest, len(envs), donor)
		g.inject(n.enqueue, envs...)
	default:
		g.cfg.Logf("gcs: %v delivery gap [%d..%d] not healable from %v (trimmed?); restart with -recover",
			self, next, highest, donor)
	}
	*gapSince = time.Now() // re-arm: retry after another full window
}

// leadTakeover promotes the local member self to sequencer of the next
// view. One round of view-sync collects every live peer's delivery
// frontier and highest promised stamp; slot assignment resumes above the
// highest slot any survivor saw (so the total order cannot fork) and new
// stamps start above every previously published horizon (so no
// follower's clock has passed them). Survivors that missed the dead
// sequencer's final multicasts are healed from the best frontier before
// the new view's traffic reaches them — per-link FIFO then guarantees
// they observe the missing slots first.
func (g *Group) leadTakeover(self ids.ReplicaID) {
	g.mu.Lock()
	v := g.view + 1
	deposed := g.seqID
	g.viewAcks = map[ids.ReplicaID]Envelope{}
	g.viewAckFor = v
	var peers, required []ids.ReplicaID
	for _, id := range g.members {
		if g.localSet[id] {
			continue
		}
		// Probe every remote member — including those believed crashed.
		// A falsely-accused sequencer (our inbound link went quiet, not
		// the sequencer itself) answers with an objection and the
		// takeover aborts instead of forking the order. Only members
		// still believed live gate the wait, so a genuinely dead peer
		// costs nothing.
		peers = append(peers, id)
		if !g.crashed[id] {
			required = append(required, id)
		}
	}
	g.mu.Unlock()
	for _, id := range peers {
		g.transfer(fmt.Sprintf("vr%v>%v", self, id), Origin{Replica: id},
			Envelope{Kind: EnvViewReq, View: v, From: Origin{Replica: self}})
	}
	deadline := time.Now().Add(g.cfg.DetectTimeout)
	for {
		g.mu.Lock()
		got := 0
		for _, id := range required {
			if _, ok := g.viewAcks[id]; ok {
				got++
			}
		}
		objected := viewObjection(g.viewAcks)
		g.mu.Unlock()
		if objected || got >= len(required) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	n := g.nodes[self]
	next, maxSeen := n.Frontier()
	g.mu.Lock()
	maxStamp := g.maxStamp
	acks := g.viewAcks
	g.viewAcks = nil
	g.mu.Unlock()

	// Abort on objection: some peer (possibly the accused sequencer
	// itself) still observes live traffic from the current view. Our own
	// silence was a link or timing artifact — revive the sequencer and
	// give the detector a fresh window rather than splitting the order.
	if viewObjection(acks) {
		g.cfg.Logf("gcs: %v aborting view-%d takeover: a peer still observes sequencer %v alive",
			self, v, deposed)
		g.Revive(deposed)
		g.touchSeqTraffic()
		return
	}
	// Quorum over the voter set active now (learners and removed members
	// carry no weight); see takeoverQuorumMet for the rule and the
	// ordered-pair exception.
	g.mu.Lock()
	localVoters := 0
	for id := range g.nodes {
		if containsID(g.members, id) && !g.crashed[id] {
			localVoters++
		}
	}
	voterCount := len(g.members)
	pairOrdered := g.pairOrdered
	g.mu.Unlock()
	if !takeoverQuorumMet(localVoters, len(acks), voterCount, pairOrdered) {
		g.cfg.Logf("gcs: %v aborting view-%d takeover: %d acks is short of a majority of %d",
			self, v, len(acks), voterCount)
		g.Revive(deposed)
		g.touchSeqTraffic()
		return
	}

	bestDonor, bestFrontier := ids.ReplicaID(-1), maxSeen
	for id, a := range acks {
		if a.Seq > maxSeen {
			maxSeen = a.Seq
		}
		if a.Stamp > maxStamp {
			maxStamp = a.Stamp
		}
		if a.Seq > bestFrontier {
			bestFrontier, bestDonor = a.Seq, id
		}
	}

	// Self-heal: fetch slots we missed from the most advanced survivor
	// and inject them through the normal stamped path *before* opening
	// the horizon — their stamps lie above our current horizon, so they
	// replay at their original virtual instants.
	if bestDonor >= 0 && next <= maxSeen && g.cfg.FetchGap != nil {
		if envs := g.cfg.FetchGap(bestDonor, next, int(maxSeen-next)+1); len(envs) > 0 {
			g.inject(n.enqueue, envs...)
		}
	}

	// Heal lagging peers from our own sequenced log: every survivor holds
	// a FIFO prefix of the dead sequencer's stream, so re-multicasting
	// our tail (original stamps, pre-takeover view) ahead of the first
	// new-view heartbeat closes their gaps in order.
	for id, a := range acks {
		peerNext := a.UID // acks carry the peer's frontier in UID
		if peerNext > maxSeen {
			continue
		}
		envs, _, ok := n.SequencedTail(peerNext, int(maxSeen-peerNext)+1)
		if !ok {
			continue
		}
		for _, e := range envs {
			g.transfer(fmt.Sprintf("seq%v>%v", self, id), Origin{Replica: id}, e)
		}
	}

	n.raiseHighestSeen(maxSeen)
	g.mu.Lock()
	if f := maxStamp + g.cfg.Budget; f > g.stampFloor {
		g.stampFloor = f
	}
	g.mu.Unlock()
	g.vclk.PromoteLeader()
	g.cfg.Logf("gcs: %v taking over as view-%d sequencer: %d/%d acks, resume past slot %d, stamp floor %v",
		self, v, len(acks), len(peers), maxSeen, maxStamp+g.cfg.Budget)
	g.adoptView(v, self)
}

// takeoverQuorumMet decides whether a takeover candidate may install a
// new view: its local live voters plus the collected acks must cover a
// majority of the configured voter set. A candidate that heard from
// nobody cannot tell "they all died" from "my inbound links are down" —
// and in the latter case assigning slots would fork the order the
// silent majority still extends.
//
// The one exception is a 2-voter remainder produced by an ordered
// removal (pairOrdered): the survivor may elect alone. The config
// itself was majority-agreed in the total order before the set shrank,
// the objection probe still runs first (a reachable peer that observes
// the old view alive aborts the takeover), and the operator who shrank
// the cluster to two deliberately traded partition tolerance for
// availability. A static 2-member group, or one whose peer merely
// crash-detected out of a larger config, keeps the stall — safety over
// liveness.
func takeoverQuorumMet(localVoters, acks, voters int, pairOrdered bool) bool {
	if localVoters+acks >= voters/2+1 {
		return true
	}
	return pairOrdered && voters == 2 && localVoters >= 1
}

// handleViewReq answers a takeover candidate's view-sync probe with this
// process's delivery frontier (UID), highest slot seen (Seq) and highest
// promised stamp (Stamp). Handled outside the virtual clock: the clock
// may be stalled at the dead sequencer's last horizon.
//
// When this process still observes the current view alive — it hosts the
// accused sequencer itself, saw its traffic within DetectTimeout, or
// already sits in a view at least as new as the proposal — the ack
// carries an objection (Origin set to the responder, see viewObjection)
// and the candidate aborts: its silence was a link artifact, and a
// takeover that excluded a live sequencer would fork the total order.
func (g *Group) handleViewReq(e Envelope) {
	age := g.seqTrafficAge()
	// A recovering process has no live observation of the sequencer: its
	// traffic is buffered unseen and the monitor self-touches seqTraffic
	// to keep it from leading takeovers. Letting it object would wedge
	// the cluster — its own catch-up needs the very election it vetoes —
	// so it only acks (still countable toward the candidate's quorum).
	recovering := g.Recovering()
	g.mu.Lock()
	var self ids.ReplicaID = -1
	var n *Node
	for id, node := range g.nodes {
		if self < 0 || id < self {
			self, n = id, node
		}
	}
	maxStamp := g.maxStamp
	object := e.View <= g.view ||
		(!recovering &&
			(g.localSet[g.seqID] ||
				(age < g.cfg.DetectTimeout && !g.crashed[g.seqID])))
	g.mu.Unlock()
	if n == nil {
		return
	}
	ack := Envelope{
		Kind: EnvViewAck,
		View: e.View,
		From: Origin{Replica: self},
	}
	if object {
		ack.Origin = Origin{Replica: self}
		g.transfer(fmt.Sprintf("va%v>%v", self, e.From.Replica), e.From, ack)
		return
	}
	// A takeover is in progress: give the candidate its window.
	g.touchSeqTraffic()
	next, highest := n.Frontier()
	ack.Seq, ack.UID, ack.Stamp = highest, next, maxStamp
	g.transfer(fmt.Sprintf("va%v>%v", self, e.From.Replica), e.From, ack)
}

// viewObjection reports whether any view-sync ack objects to the
// takeover: an objecting responder sets the otherwise-unused Origin
// field to its own (non-zero) replica id.
func viewObjection(acks map[ids.ReplicaID]Envelope) bool {
	for _, a := range acks {
		if a.Origin.Replica != 0 {
			return true
		}
	}
	return false
}

func (g *Group) handleViewAck(e Envelope) {
	g.mu.Lock()
	if g.viewAcks != nil && e.View == g.viewAckFor {
		g.viewAcks[e.From.Replica] = e
	}
	g.mu.Unlock()
}

// observeView filters a stamped envelope against the view state: traffic
// from older views is dropped (a deposed sequencer's zombie multicasts
// must not fork the order), newer views are adopted on the spot.
func (g *Group) observeView(e Envelope) bool {
	g.mu.Lock()
	cur := g.view
	g.mu.Unlock()
	if e.View < cur {
		// Stale-view traffic from a live member means it missed the view
		// change — typically a sequencer that stalled through its own
		// deposition and whose objection lost the race. It was marked
		// crashed at detection, which excludes it from the new view's
		// horizon multicasts, so without this revive it would never learn
		// the new view and the group would split permanently. Drop the
		// frame, revive the sender: the next horizon announces the view
		// and the straggler stands down into it.
		if id := e.From.Replica; id > 0 && !e.From.IsClient {
			g.Revive(id)
		}
		return false
	}
	if e.View > cur {
		from := e.From.Replica
		if !g.adoptView(e.View, from) {
			g.mu.Lock()
			cur = g.view
			g.mu.Unlock()
			if e.View < cur {
				return false
			}
		}
	}
	g.touchSeqTraffic()
	return true
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
// unit, counting them. To is stamped in place, so a caller fanning the
// same envelopes out to several members passes each its own copy.
func (g *Group) transfer(key string, to Origin, envs ...Envelope) {
	g.stats.add(len(envs), 0, 0)
	for i := range envs {
		envs[i].To = to
	}
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
		to := append([]ids.ReplicaID(nil), g.members...)
		for id := range g.learners {
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
// atomic unit per member. hz, when non-nil, is the drain's horizon
// heartbeat: it rides behind the envelopes toward every remote member
// (a local one needs none — the sequenced stamps raise its horizon on
// injection) and travels alone when the drain sequenced nothing.
func (g *Group) multicast(from ids.ReplicaID, envs []Envelope, hz *Envelope) {
	for _, lk := range g.fanOut(from) {
		if !g.alive(lk.to) {
			continue
		}
		msgs := append(make([]Envelope, 0, len(envs)+1), envs...)
		if hz != nil && !g.isLocal(lk.to) {
			msgs = append(msgs, *hz)
		}
		if len(msgs) > 0 {
			g.transfer(lk.key, Origin{Replica: lk.to}, msgs...)
		}
	}
}

// Delivery-order ranks for stamped-mode timers (same band as links).
var (
	injectOrder = linkOrderBase + fnv32("inject")
	tickOrder   = linkOrderBase + fnv32("tick")
)

// inject routes envelopes arriving from the transport into the local
// endpoint. In the simulator this is a straight pass-through; in stamped
// mode sequenced envelopes are scheduled at their stamped virtual
// instant, forwards are queued for the sequencing loop's next drain, and
// horizon heartbeats raise the clock horizon.
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
	// the first envelope, the horizon lets the pump deliver that envelope —
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
			g.handleViewReq(e)
			continue
		case EnvViewAck:
			g.handleViewAck(e)
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
			if !g.observeView(e) {
				// Stale view: a deposed sequencer's zombie heartbeat, or a
				// slot the order moved on without.
				continue
			}
			g.noteStamp(e.Stamp)
			if e.Stamp > horizon {
				horizon = e.Stamp
			}
			if e.Kind == EnvSequenced {
				env := e
				// Rank same-stamp injections by slot: a drain's batch shares one
				// stamp, and ScheduleAt's goroutines park in racy real-time
				// order — without the slot rank, same-instant delivery order
				// (and with it admission-order-sensitive schedulers like PDS)
				// would differ across replicas.
				g.vclk.ScheduleAt(env.Stamp, injectOrder+env.Seq, "gcs inject", func() { enqueue(env) })
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
	return g.localSet[g.seqID]
}

// noteStamp records the highest stamp/horizon this process has observed;
// view-sync reports it so a new sequencer's stamps start above every
// instant any survivor's clock may already have reached.
func (g *Group) noteStamp(st time.Duration) {
	g.mu.Lock()
	if st > g.maxStamp {
		g.maxStamp = st
	}
	g.mu.Unlock()
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
// the survivors executed. The horizon is raised to the highest stamp
// first — that anchors the paced clock's wall offset at roughly
// cluster-now, so the whole tail is wall-overdue and replays at full
// speed instead of in real time.
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

	var node *Node
	for _, n := range g.nodes {
		node = n // recovery mode hosts exactly one local member
	}
	if node == nil {
		return
	}

	var maxStamp time.Duration
	seqs := map[uint64]Envelope{}
	var order []uint64
	var others []Envelope
	classify := func(e Envelope) {
		switch {
		case e.Kind == EnvHorizon:
			if e.Stamp > maxStamp {
				maxStamp = e.Stamp
			}
		case e.Kind == EnvSequenced:
			if e.Seq < next {
				return
			}
			if _, dup := seqs[e.Seq]; dup {
				return
			}
			seqs[e.Seq] = e
			order = append(order, e.Seq)
			if e.Stamp > maxStamp {
				maxStamp = e.Stamp
			}
		default:
			// Directs (LSA decisions, replies) keep their arrival order;
			// stray forwards re-route to the sequencer via handleForward.
			others = append(others, e)
		}
	}
	for _, e := range tail {
		classify(e)
	}
	for _, e := range buf {
		classify(e)
	}
	sortUint64(order)

	if maxStamp > 0 {
		g.noteStamp(maxStamp)
		g.vclk.SetHorizon(maxStamp)
	}
	node.resumeAt(next)
	// Ascending slot order, with the slot as the same-instant rank:
	// same-stamp envelopes must deliver in sequencing order even though
	// ScheduleAt's goroutines park in racy real-time order.
	for _, s := range order {
		env := seqs[s]
		if env.Stamp > 0 {
			env := env
			g.vclk.ScheduleAt(env.Stamp, injectOrder+env.Seq, "gcs inject", func() { node.enqueue(env) })
		} else {
			node.enqueue(env)
		}
	}
	for _, e := range others {
		node.enqueue(e)
	}
}

// runTicks is the stamped-mode sequencing loop, run by every member-
// hosting process: its body is a no-op unless this process currently
// hosts the sequencer, so a takeover activates it without restarting
// anything. The loop is arrival-driven: the first forward into an empty
// queue wakes it (kicksTick), it takes everything queued, assigns the
// total-order slots under one shared virtual delivery deadline and
// multicasts them with a horizon heartbeat (carrying the current view).
// Forwards that arrive while a drain and its fan-out are under way ride
// the next drain, so batches grow exactly when the sequencer is busy.
// The timer is left with the idle heartbeat that keeps follower clocks
// and the failure detector fed (nextTick). Stamps rise strictly from
// drain to drain and only the sequencer decides when to drain —
// followers obey the stamps — so the schedule every replica executes is
// a function of arrival order and stamps alone. After a takeover the
// stamp floor keeps new deadlines above every horizon the previous
// sequencer published.
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
	tick := g.cfg.Tick
	var last time.Duration // previous drain's stamp
	for {
		parker.ParkTimeout(tick)
		select {
		case <-g.closed:
			return
		default:
		}
		if g.Recovering() {
			continue
		}
		g.mu.Lock()
		seqID, view, floor := g.seqID, g.view, g.stampFloor
		n := g.nodes[seqID]
		if n != nil && g.crashed[seqID] {
			// An ordered removal took this process's member out of the
			// voter set while it was the sequencer: fall silent so the
			// survivors' failure detector hands the role to the lowest
			// remaining voter.
			n = nil
		}
		g.mu.Unlock()
		if n == nil {
			tick = nextTick(g.cfg.Tick, g.cfg.DetectTimeout, tick, 0)
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
		// instant, and a follower already executing the first batch at
		// now+Budget would admit a second batch of the same stamp behind
		// work this process — which schedules both before the instant
		// arrives — runs after it.
		deadline := max(g.cfg.Clock.Now()+g.cfg.Budget, floor, last+1)
		last = deadline
		g.multicast(seqID, n.sequence(batch, deadline, view),
			&Envelope{Kind: EnvHorizon, View: view, From: Origin{Replica: seqID}, Stamp: deadline})
		tick = nextTick(g.cfg.Tick, g.cfg.DetectTimeout, tick, len(batch))
	}
}

// nextTick is the heartbeat cadence: how long the sequencer parks for
// when no arrival wakes it, given the base interval, the failure
// detector's window, the park that just ended and how many forwards the
// drain after it took. Traffic resets the cadence to the base; idle
// rounds stretch it geometrically to 4·base — fewer empty heartbeat
// multicasts — but never past detect/4, so heartbeats keep the failure
// detector quiet.
func nextTick(base, detect, cur time.Duration, drained int) time.Duration {
	if drained > 0 {
		return base
	}
	return max(base, min(2*cur, 4*base, detect/4))
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
