package gcs

import (
	"container/heap"
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"detmt/internal/ids"
)

// A seeded simulator of the view change: 3–5 voters (and sometimes a
// learner), each a viewState driven exactly as Group drives it, over FIFO
// links with latency that faults can hold and release, with crashes,
// recovering restarts, an ordered removal, stalls and skewed clocks. A
// minimal slot model rides on it: the sequencer of a view assigns
// consecutive slots above its resume point, stamps them max(now+Budget,
// floor, last+1) and fans them out with a heartbeat; members accept only
// traffic of their current view. The invariants are checked after every
// step. A failing seed prints the one-line test that replays it.

var (
	simSeeds = flag.Int("viewsim.seeds", 0, "seeds TestViewSim runs (0: 10 000, 200 under -race)")
	simSeed  = flag.Int64("viewsim.seed", -1, "run TestViewSim on this seed only, logging every event")
)

const (
	simDetect  = 40 * time.Millisecond
	simTick    = simDetect / 4
	simBudget  = 5 * time.Millisecond
	simLatency = 2 * time.Millisecond // the most a link delays a message it does not hold
	simFaults  = 10 * simDetect       // faults happen before this...
	simSettle  = 8 * simDetect        // ...and the cluster settles within this of the last heal
)

type simEvent struct {
	at   time.Duration
	n    uint64 // insertion order: same-instant events run FIFO
	kind int
	m    ids.ReplicaID
	inc  int // the incarnation of m the event belongs to
	env  Envelope
	f    func()
}

const (
	seDeliver = iota // env arrives at m
	seTick           // m's failure detector ticks (and re-arms)
	seArmed          // a tick the machine armed
	seDrain          // m's sequencing loop runs (and re-arms)
	seFault          // f runs
)

type simQueue []simEvent

func (q simQueue) Len() int { return len(q) }
func (q simQueue) Less(i, j int) bool {
	return q[i].at < q[j].at || (q[i].at == q[j].at && q[i].n < q[j].n)
}
func (q simQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *simQueue) Push(x any)   { *q = append(*q, x.(simEvent)) }
func (q *simQueue) Pop() (x any) { old := *q; x = old[len(old)-1]; *q = old[:len(old)-1]; return x }

// simLink is a FIFO link; while held, what is sent on it waits.
type simLink struct {
	held bool
	last time.Duration // arrival of the latest message
	wait []Envelope
}

// simSlot is a delivered slot; own marks a slot the member assigned itself
// in a view older than one a quorum had installed: a deposed straggler's
// deliveries, which no silence-based view change can prevent and which the
// server's divergence gossip halts. They are kept out of the fork check.
type simSlot struct {
	env Envelope
	own bool
}

type simMember struct {
	id     ids.ReplicaID
	vs     viewState
	inc    int  // incarnation: bumped by crash and restart
	down   bool // crashed (until a restart) or removed (for good)
	gone   bool // removed
	stall  time.Duration
	defer_ []Envelope // arrivals during a stall
	recov  bool       // restarting: stamped traffic is buffered
	recBuf []Envelope
	offset time.Duration // clock skew
	rate   float64

	next, highest uint64
	holdback      map[uint64]Envelope
	delivered     map[uint64]simSlot
	assign        uint64        // next slot to assign as sequencer
	last          time.Duration // last stamp issued
	held          time.Duration // the highest stamp accepted
	heldView      uint64        // ... in this view
	lastView      uint64        // the last view adopted
	sequenced     bool          // it sequenced a view since it (re)started
	acks          map[uint64]int
}

type viewSim struct {
	t        *testing.T
	rng      *rand.Rand
	now      time.Duration
	n        uint64
	q        simQueue
	ms       map[ids.ReplicaID]*simMember
	order    []ids.ReplicaID
	links    map[[2]ids.ReplicaID]*simLink
	payload  uint64
	seqOf    map[uint64]ids.ReplicaID // view -> the sequencer every adopter saw
	topView  uint64                   // the highest view a quorum installed
	healed   time.Duration            // when the last fault ended
	boot     []ids.ReplicaID          // the voters a (re)started process is configured with
	learners map[ids.ReplicaID]bool
	verbose  bool
	failed   string
}

func (s *viewSim) at(d time.Duration, e simEvent) {
	e.at, e.n = s.now+d, s.n
	s.n++
	heap.Push(&s.q, e)
}

func (s *viewSim) fail(format string, args ...any) {
	if s.failed == "" {
		s.failed = fmt.Sprintf("t=%v: ", s.now) + fmt.Sprintf(format, args...)
	}
}

func (s *viewSim) logf(format string, args ...any) {
	if s.verbose {
		s.t.Logf("%8v "+format, append([]any{s.now}, args...)...)
	}
}

// clock is m's skewed reading of the global instant: the failure
// detector's wall clock and, as sequencer, its stamp clock.
func (m *simMember) clock(now time.Duration) time.Duration {
	return m.offset + time.Duration(float64(now)*m.rate)
}

func (m *simMember) front() frontier { return frontier{m.next, m.highest} }

func (s *viewSim) step(m *simMember, ev any) {
	s.apply(m, m.vs.step(ev, m.clock(s.now)))
}

// send puts env on the link from->to.
func (s *viewSim) send(from, to ids.ReplicaID, env Envelope) {
	env.To = Origin{Replica: to}
	k := [2]ids.ReplicaID{from, to}
	lk := s.links[k]
	if lk == nil {
		lk = &simLink{}
		s.links[k] = lk
	}
	if lk.held {
		lk.wait = append(lk.wait, env)
		return
	}
	lk.last = max(lk.last, s.now+time.Duration(s.rng.Int63n(int64(simLatency))+1))
	s.at(lk.last-s.now, simEvent{kind: seDeliver, m: to, env: env})
}

func (s *viewSim) release(k [2]ids.ReplicaID) {
	lk := s.links[k]
	lk.held = false
	wait := lk.wait
	lk.wait = nil
	for _, env := range wait {
		s.send(k[0], k[1], env)
	}
}

// receive mirrors Group.inject in stamped mode.
func (s *viewSim) receive(m *simMember, env Envelope) {
	if m.down {
		return
	}
	if m.stall > s.now {
		m.defer_ = append(m.defer_, env)
		return
	}
	switch env.Kind {
	case EnvViewReq:
		s.logf("%v asked for view %d by %v (view %d, heard %v ago, recovering %v, crashed %v)", m.id, env.View, env.From.Replica,
			m.vs.view, m.clock(s.now)-m.vs.heard, m.recov, m.vs.crashed)
		s.step(m, evViewReq{req: env, front: m.front(), recovering: m.recov})
		return
	case EnvViewAck:
		if r := m.vs.round; r != nil && r.plan == nil && env.View == r.view && env.Origin.Replica == 0 {
			m.acks[env.View]++
		}
		s.step(m, evViewAck{env})
		return
	}
	if m.recov {
		m.recBuf = append(m.recBuf, env)
		return
	}
	effs, ok := m.vs.observe(env, m.clock(s.now))
	s.apply(m, effs)
	if !ok {
		return
	}
	own := env.Class == 1 && env.From.Replica == m.id
	if !own {
		if env.View > m.heldView && env.Stamp < m.held {
			s.fail("%v accepts view %d stamp %v below the stamp %v of view %d it holds", m.id, env.View, env.Stamp, m.held, m.heldView)
		}
		if env.Stamp > m.held {
			m.held, m.heldView = env.Stamp, env.View
		}
	}
	if env.Kind != EnvSequenced {
		return
	}
	m.highest = max(m.highest, env.Seq)
	if env.Seq < m.next {
		return
	}
	m.holdback[env.Seq] = env
	for e, ok := m.holdback[m.next]; ok; e, ok = m.holdback[m.next] {
		delete(m.holdback, m.next)
		s.deliver(m, e)
		m.next++
	}
}

// deliver records a delivered slot and checks it against every other
// live member's: no slot is delivered with two payloads.
func (s *viewSim) deliver(m *simMember, e Envelope) {
	own := e.Class == 1 && e.From.Replica == m.id
	m.delivered[e.Seq] = simSlot{e, own}
	if own {
		return
	}
	for _, id := range s.order {
		o := s.ms[id]
		if d, ok := o.delivered[e.Seq]; ok && o != m && !o.down && !d.own && d.env.UID != e.UID {
			s.fail("slot %d: %v delivered payload %d (view %d), %v payload %d (view %d)",
				e.Seq, m.id, e.UID, e.View, o.id, d.env.UID, d.env.View)
		}
	}
}

// apply carries out m's effects as Group.apply does.
func (s *viewSim) apply(m *simMember, effs []effect) {
	for _, e := range effs {
		switch e.kind {
		case effSend:
			s.send(m.id, e.to, e.env)
		case effFetch:
			var envs []Envelope
			if d := s.ms[e.to]; !d.down && !s.links[[2]ids.ReplicaID{e.to, m.id}].isHeld() {
				for slot := e.from; slot < e.from+uint64(e.max); slot++ {
					got, ok := d.delivered[slot]
					if !ok {
						break
					}
					envs = append(envs, got.env)
				}
			}
			s.step(m, evFetched{req: e, envs: envs, vnow: m.held})
		case effInject:
			for _, env := range e.envs {
				s.receive(m, env)
			}
		case effPush:
			for slot := e.from; slot < e.from+uint64(e.max); slot++ {
				if got, ok := m.delivered[slot]; ok {
					s.send(m.id, e.to, got.env)
				}
			}
		case effRaise:
			m.highest = max(m.highest, e.from)
		case effInstall:
			voters := len(m.vs.members)
			if acks := m.acks[e.view]; 1+acks < voters/2+1 && !(m.vs.pairOrdered && voters == 2) {
				s.fail("%v installs view %d with %d acks of %d voters", m.id, e.view, acks, voters)
			}
			s.topView = max(s.topView, e.view)
			s.step(m, evAdopt{e.view, e.id})
		case effAdopt:
			s.adopted(m, e.view, e.id)
			if e.id == m.id {
				m.sequenced = true
				m.assign = max(m.assign, m.highest+1)
			}
		case effArm:
			s.at(e.after, simEvent{kind: seArmed, m: m.id, inc: m.inc})
		case effLog:
			s.logf("%v: "+e.format, append([]any{m.id}, e.args...)...)
		}
	}
}

func (lk *simLink) isHeld() bool { return lk != nil && lk.held }

// adopted checks that every adopter of a view sees one sequencer, and that
// each member's views strictly increase.
func (s *viewSim) adopted(m *simMember, view uint64, seq ids.ReplicaID) {
	if prev, ok := s.seqOf[view]; ok && prev != seq {
		s.fail("%v adopts view %d with sequencer %v, others with %v", m.id, view, seq, prev)
	}
	s.seqOf[view] = seq
	if view <= m.lastView {
		s.fail("%v adopts view %d after view %d", m.id, view, m.lastView)
	}
	m.lastView = view
}

// newState is a member's view machine as NewGroup builds it for a process
// hosting id alone, with the voters and learners given.
func newState(id ids.ReplicaID, voters []ids.ReplicaID, learners map[ids.ReplicaID]bool) viewState {
	ls := map[ids.ReplicaID]bool{}
	for l := range learners {
		ls[l] = true
	}
	return viewState{self: id, local: map[ids.ReplicaID]bool{id: true}, detect: simDetect, budget: simBudget,
		canFetch: true, seq: voters[0], crashed: map[ids.ReplicaID]time.Duration{},
		members: append([]ids.ReplicaID(nil), voters...), learners: ls}
}

// start (re)starts m's failure detector and sequencing loop.
func (s *viewSim) start(m *simMember) {
	s.at(time.Duration(s.rng.Int63n(int64(simTick))), simEvent{kind: seTick, m: m.id, inc: m.inc})
	s.at(time.Duration(s.rng.Int63n(int64(simTick))), simEvent{kind: seDrain, m: m.id, inc: m.inc})
}

// drain is runTicks' body: the sequencer of m's view assigns a slot half
// the time and fans it out with the heartbeat to every member it does not
// crash-mark, itself included.
func (s *viewSim) drain(m *simMember) {
	if m.stall > s.now || m.recov || m.vs.seq != m.id || m.vs.down(m.id) {
		return
	}
	zombie := uint32(0)
	if m.vs.view < s.topView {
		zombie = 1
	}
	m.last = max(m.clock(s.now)+simBudget, m.vs.floor, m.last+1)
	hz := Envelope{Kind: EnvHorizon, View: m.vs.view, From: Origin{Replica: m.id}, Stamp: m.last, Class: zombie}
	var slot []Envelope
	if s.rng.Intn(2) == 0 {
		m.assign = max(m.assign, m.highest+1)
		s.payload++
		slot = append(slot, hz)
		slot[0].Kind, slot[0].Seq, slot[0].UID = EnvSequenced, m.assign, s.payload
		m.assign++
	}
	for _, id := range s.order {
		if (!slices.Contains(m.vs.members, id) && !m.vs.learners[id]) || m.vs.down(id) {
			continue
		}
		if id == m.id {
			for _, e := range slot {
				s.receive(m, e)
			}
			continue
		}
		for _, e := range append(slot, hz) {
			s.send(m.id, id, e)
		}
	}
}

// live picks a member that is up, neither stalled nor recovering, in the
// highest view any such member is in (nil: none). A rejoiner seeded by a
// straggler still living in an old view would copy its divergent tail.
func (s *viewSim) live(not ids.ReplicaID) *simMember {
	var c []*simMember
	for _, id := range s.order {
		m := s.ms[id]
		if m.down || m.recov || m.stall > s.now || id == not {
			continue
		}
		if len(c) > 0 && m.vs.view > c[0].vs.view {
			c = c[:0]
		}
		if len(c) == 0 || m.vs.view == c[0].vs.view {
			c = append(c, m)
		}
	}
	if len(c) == 0 {
		return nil
	}
	return c[s.rng.Intn(len(c))]
}

// copyFrom is a rejoiner's state transfer: checkpoint plus tail.
func (m *simMember) copyFrom(d *simMember) {
	m.delivered = map[uint64]simSlot{}
	for k, v := range d.delivered {
		m.delivered[k] = simSlot{v.env, false}
	}
	m.next, m.highest = d.next, max(m.highest, d.next-1)
	m.held, m.heldView = max(m.held, d.held), max(m.heldView, d.heldView)
	for k := range m.holdback {
		if k < m.next {
			delete(m.holdback, k)
		}
	}
}

func (s *viewSim) crash(m *simMember) {
	m.down, m.inc, m.defer_, m.recBuf = true, m.inc+1, nil, nil
	s.logf("%v crashes", m.id)
	// A restart takes longer than the view change the crash may cause: a
	// hello that revives the rejoiner before some survivor adopts that view
	// is undone by the adoption's crash-marking, and the rejoiner, still
	// believing itself live and lowest, can be a second candidate for the
	// next view (EXPERIMENTS).
	s.at(2*simDetect+time.Duration(s.rng.Int63n(int64(3*simDetect))), simEvent{kind: seFault, f: func() { s.restart(m) }})
}

// restart brings m back as a recovering member: it seeds the view and state
// of a live donor, the others revive it (its hello), and a while later it
// fetches the tail and replays what it buffered meanwhile.
func (s *viewSim) restart(m *simMember) {
	// The rejoin protocol assumes the view has moved past a crashed
	// sequencer: one that rejoins into its own view while the survivors'
	// election is blocked acks their round as a recovering member and then
	// sequences that view again (EXPERIMENTS).
	d := s.live(m.id)
	if d == nil || m.gone || d.vs.seq == m.id {
		if !m.gone {
			s.at(simDetect, simEvent{kind: seFault, f: func() { s.restart(m) }})
		}
		return
	}
	m.inc++
	m.down, m.recov, m.stall, m.sequenced = false, true, 0, false
	// As a restarted server does: the boot configuration, the donor's view,
	// then its membership snapshot.
	m.vs = newState(m.id, s.boot, s.learners)
	m.holdback, m.acks, m.assign, m.last = map[uint64]Envelope{}, map[uint64]int{}, 0, 0
	m.copyFrom(d)
	s.step(m, evSeed{d.vs.view, d.vs.seq})
	if d.vs.epoch > 0 {
		s.step(m, evApply{d.vs.epoch, d.vs.members, false})
	}
	if prev, ok := s.seqOf[d.vs.view]; ok && prev != d.vs.seq {
		s.fail("%v seeds view %d with sequencer %v, others adopted %v", m.id, d.vs.view, d.vs.seq, prev)
	}
	m.lastView = d.vs.view
	s.logf("%v restarts from %v in view %d", m.id, d.id, d.vs.view)
	for _, id := range s.order {
		if o := s.ms[id]; !o.down && o != m {
			s.step(o, evRevive{m.id})
		}
	}
	s.start(m)
	inc := m.inc
	resume := simDetect/4 + time.Duration(s.rng.Int63n(int64(simDetect)))
	s.healed = max(s.healed, s.now+resume)
	s.at(resume, simEvent{kind: seFault, f: func() {
		if m.inc != inc {
			return
		}
		if d := s.live(m.id); d != nil {
			m.copyFrom(d)
		}
		m.recov = false
		buf := m.recBuf
		m.recBuf = nil
		for _, env := range buf {
			s.receive(m, env)
		}
	}})
}

// fault runs one randomly chosen fault.
// calm reports whether the last fault has fully healed: every member up
// and caught up in one view, no round running, no link held, and nobody
// crash-marking a live member. Faults do not overlap: a false suspicion's
// crash mark never heals while the sequencer's current-view traffic keeps
// coming (it revives only stale senders), and a member holding one no
// longer objects — a second false suspicion then deposes a live sequencer
// (EXPERIMENTS). So once a mark is wrong, no further fault is injected.
func (s *viewSim) calm() bool {
	var ref *simMember
	for _, lk := range s.links {
		if lk.held {
			return false
		}
	}
	for _, id := range s.order {
		m := s.ms[id]
		if m.gone {
			continue
		}
		if m.down || m.recov || m.stall > s.now || m.vs.round != nil || ref != nil && (m.vs.view != ref.vs.view || m.vs.seq != ref.vs.seq) {
			return false
		}
		for c := range m.vs.crashed {
			if o := s.ms[c]; o != nil && !o.down {
				return false
			}
		}
		ref = m
	}
	return true
}

// fault injects one randomly chosen fault once the last one has healed.
func (s *viewSim) fault() {
	if !s.calm() {
		if s.now < simFaults {
			s.at(simTick, simEvent{kind: seFault, f: s.fault})
		}
		return
	}
	m := s.live(-1)
	if m == nil {
		return
	}
	kind := s.rng.Intn(6)
	if (kind < 2 || kind == 3) && len(m.vs.members) == 2 {
		// An ordered pair trades partition tolerance for availability
		// (takeoverQuorumMet): its survivor elects alone, so a pair is
		// neither partitioned nor stalled (a stall looks the same).
		return
	}
	switch kind {
	case 0, 1: // hold one link (never two at once) for a while
		for _, lk := range s.links {
			if lk.held {
				return
			}
		}
		to := s.order[s.rng.Intn(len(s.order))]
		if to == m.id {
			return
		}
		k := [2]ids.ReplicaID{m.id, to}
		if s.links[k] == nil {
			s.links[k] = &simLink{}
		}
		s.links[k].held = true
		d := simDetect/2 + time.Duration(s.rng.Int63n(int64(3*simDetect)))
		s.healed = max(s.healed, s.now+d)
		s.logf("hold %v>%v for %v", m.id, to, d)
		s.at(d, simEvent{kind: seFault, f: func() { s.release(k) }})
	case 2: // never the last live voter: a rejoiner needs a donor
		d := s.live(m.id)
		if d == nil || !slices.Contains(d.vs.members, d.id) {
			return
		}
		// A rejoiner applies the membership snapshot unordered, and a pair
		// without the ordered-pair exception cannot fail over (by design):
		// a pair member crashes only while both hold it.
		for _, id := range m.vs.members {
			if len(m.vs.members) == 2 && !s.ms[id].vs.pairOrdered {
				return
			}
		}
		// A rejoiner's SeedView crash-marks every member below the donor's
		// sequencer: a live one there (an ex-sequencer that rejoined) would
		// be invisible to it for good, and could become a second candidate
		// for the next view (EXPERIMENTS). Crash one member at a time, and
		// only where that cannot be.
		for _, id := range s.order {
			if o := s.ms[id]; o != m && (!o.down && id < d.vs.seq || o.down && !o.gone || o.recov) {
				return
			}
		}
		s.crash(m)
	case 3: // stall: short enough to go unnoticed, or long enough to wake into a settled view
		d := simDetect/8 + time.Duration(s.rng.Int63n(int64(simDetect/4)))
		if s.rng.Intn(2) == 0 {
			d = 2*simDetect + time.Duration(s.rng.Int63n(int64(2*simDetect)))
		}
		m.stall = s.now + d
		s.healed = max(s.healed, m.stall)
		s.logf("%v stalls for %v", m.id, d)
		inc := m.inc
		var wake func()
		wake = func() {
			if m.inc != inc {
				return
			}
			if m.vs.seq == m.id && !s.quiet(m) && s.now < simFaults+4*simDetect {
				// A sequencer waking while the others elect its successor
				// races their first heartbeat with its own, which no
				// silence-based view change can prevent: wake it into a
				// settled view.
				m.stall = s.now + simTick
				s.healed = max(s.healed, m.stall)
				s.at(simTick, simEvent{kind: seFault, f: wake})
				return
			}
			if s.rng.Intn(2) == 0 {
				s.step(m, evTick{front: m.front(), recovering: m.recov})
			}
			q := m.defer_
			m.defer_ = nil
			for _, env := range q {
				s.receive(m, env)
			}
		}
		s.at(d, simEvent{kind: seFault, f: wake})
	case 5: // the sequencer crashes while the link from its successor to a peer is held
		seq := s.ms[m.vs.seq]
		var to []ids.ReplicaID
		for _, id := range m.vs.members {
			if id != seq.id && id != lowestLive(m.vs.members, map[ids.ReplicaID]time.Duration{seq.id: 0}) {
				to = append(to, id)
			}
		}
		if len(m.vs.members) < 3 || len(to) == 0 || seq.id != m.vs.members[0] {
			return
		}
		cand := lowestLive(m.vs.members, map[ids.ReplicaID]time.Duration{seq.id: 0})
		k := [2]ids.ReplicaID{cand, to[s.rng.Intn(len(to))]}
		if s.links[k] == nil {
			s.links[k] = &simLink{}
		}
		s.links[k].held = true
		d := simDetect + time.Duration(s.rng.Int63n(int64(2*simDetect)))
		s.healed = max(s.healed, s.now+d)
		s.logf("hold %v>%v for %v", k[0], k[1], d)
		s.at(d, simEvent{kind: seFault, f: func() { s.release(k) }})
		s.crash(seq)
	case 4: // an ordered removal, at most one, never below two voters
		if len(m.vs.members) < 3 || m.vs.epoch > 0 || !slices.Contains(m.vs.members, m.id) {
			return
		}
		for _, lk := range s.links {
			if lk.held && len(m.vs.members) == 3 {
				return
			}
		}
		// The change rides the total order: every member applies it at the
		// same slot, so in one settled view.
		for _, o := range s.ms {
			if o.gone {
				continue
			}
			if o.down || o.stall > s.now || o.recov || o.vs.view != m.vs.view || o.vs.seq != m.vs.seq || o.vs.round != nil {
				return
			}
		}
		voters := slices.DeleteFunc(slices.Clone(m.vs.members), func(id ids.ReplicaID) bool { return id == m.id })
		s.logf("remove %v: voters %v", m.id, voters)
		for _, id := range s.order {
			if o := s.ms[id]; !o.down {
				s.step(o, evApply{1, voters, true})
			}
		}
		m.gone, m.down = true, true
		s.healed = max(s.healed, s.now)
	}
}

// quiet reports whether the members other than m run no round and agree on
// one view.
func (s *viewSim) quiet(m *simMember) bool {
	var ref *simMember
	for _, id := range s.order {
		o := s.ms[id]
		if o == m || o.down || o.recov {
			continue
		}
		if o.vs.round != nil || ref != nil && (o.vs.view != ref.vs.view || o.vs.seq != ref.vs.seq) {
			return false
		}
		ref = o
	}
	return true
}

// settled is the liveness invariant, checked simSettle after the last
// heal: every voter shares one view whose sequencer is a live voter. It
// reports false, checking nothing, when a straggler is left: a sequencer
// deposed while alive (stalled, or behind a held link) and not restarted
// since. Such a member either keeps sequencing its old view, never
// suspecting itself, when its successor died before reaching it, or, once
// it adopts a successor's view, crash-marks itself with the members below
// the new sequencer and drops everything — while the others may wait for
// it as their candidate (EXPERIMENTS).
func (s *viewSim) settled() bool {
	for _, id := range s.order {
		if m := s.ms[id]; !m.down && m.sequenced && (m.vs.seq != id || m.vs.view < s.topView) {
			return false
		}
	}
	var view uint64
	var seq ids.ReplicaID = -1
	for _, id := range s.order {
		m := s.ms[id]
		if m.gone || !slices.Contains(m.vs.members, id) {
			continue
		}
		if m.down {
			s.fail("%v still down", id)
			return true
		}
		if seq >= 0 && (m.vs.view != view || m.vs.seq != seq) {
			s.fail("%v in view %d (sequencer %v), others in view %d (sequencer %v)", id, m.vs.view, m.vs.seq, view, seq)
			return true
		}
		view, seq = m.vs.view, m.vs.seq
	}
	if o := s.ms[seq]; o == nil || o.down || o.gone {
		s.fail("view %d's sequencer %v is not live", view, seq)
	}
	return true
}

// runViewSim runs one seed and returns the first violation ("" if none),
// and whether liveness was checked (see settled).
func runViewSim(t *testing.T, seed int64, verbose bool) (string, bool) {
	s := &viewSim{t: t, rng: rand.New(rand.NewSource(seed)), ms: map[ids.ReplicaID]*simMember{},
		links: map[[2]ids.ReplicaID]*simLink{}, seqOf: map[uint64]ids.ReplicaID{0: 1}, verbose: verbose}
	nv := 3 + s.rng.Intn(3)
	voters := make([]ids.ReplicaID, nv)
	for i := range voters {
		voters[i] = ids.ReplicaID(i + 1)
	}
	s.order = append(s.order, voters...)
	s.boot, s.learners = voters, map[ids.ReplicaID]bool{}
	if s.rng.Intn(2) == 0 {
		s.learners[ids.ReplicaID(nv+1)] = true
		s.order = append(s.order, ids.ReplicaID(nv+1))
	}
	for _, id := range s.order {
		m := &simMember{id: id, vs: newState(id, voters, s.learners), next: 1, sequenced: id == voters[0], rate: 0.97 + 0.06*s.rng.Float64(),
			offset:   time.Duration(s.rng.Int63n(int64(60*time.Millisecond))) - 30*time.Millisecond,
			holdback: map[uint64]Envelope{}, delivered: map[uint64]simSlot{}, acks: map[uint64]int{}}
		s.ms[id] = m
		s.start(m)
	}
	for i, n := 0, 2+s.rng.Intn(5); i < n; i++ {
		s.at(simDetect+time.Duration(s.rng.Int63n(int64(simFaults-simDetect))), simEvent{kind: seFault, f: s.fault})
	}
	s.healed = simFaults
	for s.q.Len() > 0 && s.failed == "" {
		e := heap.Pop(&s.q).(simEvent)
		if e.at > s.healed+simSettle {
			break
		}
		s.now = e.at
		m := s.ms[e.m]
		switch e.kind {
		case seDeliver:
			s.receive(m, e.env)
		case seTick, seArmed, seDrain:
			if m.inc != e.inc || m.down {
				continue
			}
			switch e.kind {
			case seTick:
				s.at(simTick, e)
			case seDrain:
				s.at(simTick, e)
				s.drain(m)
				continue
			}
			if m.stall <= s.now {
				s.step(m, evTick{front: m.front(), recovering: m.recov})
			}
		case seFault:
			e.f()
		}
	}
	checked := true
	if s.failed == "" {
		checked = s.settled()
	}
	return s.failed, checked
}

// TestViewSim runs the simulator over many seeds (-viewsim.seeds; one with
// -viewsim.seed, logging every event under -v).
func TestViewSim(t *testing.T) {
	if *simSeed >= 0 {
		checkViewSim(t, *simSeed)
		return
	}
	n := *simSeeds
	if n == 0 {
		n = 10000
	}
	stragglers := 0
	for seed := int64(1); seed <= int64(n); seed++ {
		msg, checked := runViewSim(t, seed, false)
		if !checked {
			stragglers++
		}
		if msg != "" {
			t.Fatalf("seed %d: %s\nreplay it: go test ./internal/gcs -run TestViewSim -viewsim.seed=%d -v\n"+
				"or as a unit test: func TestViewSimSeed%d(t *testing.T) { checkViewSim(t, %d) }", seed, msg, seed, seed, seed)
		}
	}
	t.Logf("%d seeds, %d ended with a straggler (liveness not checked)", n, stragglers)
}

func checkViewSim(t *testing.T, seed int64) {
	t.Helper()
	if msg, _ := runViewSim(t, seed, testing.Verbose()); msg != "" {
		t.Fatalf("seed %d: %s", seed, msg)
	}
}
