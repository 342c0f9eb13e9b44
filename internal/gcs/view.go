package gcs

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"detmt/internal/ids"
)

// The view change is one value, viewState, and one function, step: given
// an event and its instant, the state moves and the effects the caller must
// carry out come back. Nothing here locks, reads a clock, sleeps, starts a
// goroutine or touches the transport. Instants are on the driver's clock:
// wall time since the group was built in a cluster, virtual in the simulator.

// viewState is what the view change decides on.
type viewState struct {
	// Fixed when the group is built.
	self     ids.ReplicaID          // the one member this process hosts (-1: none, or the simulator's all)
	local    map[ids.ReplicaID]bool // every member this process hosts
	detect   time.Duration          // the failure detector's silence window
	budget   time.Duration          // the sequencer's stamp budget
	canFetch bool                   // a gap can be fetched from a peer (Config.FetchGap)
	oracle   bool                   // the simulator: crash marks are ground truth, no traffic is watched

	view    uint64
	seq     ids.ReplicaID
	crashed map[ids.ReplicaID]time.Duration // crash-detected members, and since when

	// Voters change only at activation slots of the total order; learners
	// get the sequenced fan-out but no quorum weight. pairOrdered: the
	// current 2-voter set came from an ordered removal (takeoverQuorumMet).
	members     []ids.ReplicaID
	learners    map[ids.ReplicaID]bool
	epoch       uint64
	pairOrdered bool

	maxStamp time.Duration // the highest stamp or horizon observed
	floor    time.Duration // a view this process sequences stamps above it

	heard  time.Duration // the sequencer's last sign of life
	gap    gapWatch      // a delivery frontier stuck below the highest slot seen
	wedged bool          // a gap whose stamps the local clock passed: only a restart heals it
	round  *round        // the view-sync round this process leads, if any
}

// round is a takeover in progress: the candidate asked every remote voter
// for view view and collects acks until the ones it believes live answered,
// one objected, or the detect window ran out.
type round struct {
	view     uint64
	cand     ids.ReplicaID
	deposed  ids.ReplicaID
	peers    int             // voters asked
	required []ids.ReplicaID // ... of which believed live
	acks     map[ids.ReplicaID]Envelope
	deadline time.Duration
	plan     *healPlan // decided, waiting for the plan's gap fetch
}

// complete reports whether the round has heard enough to end early.
func (r *round) complete() bool {
	if viewObjection(r.acks) {
		return true
	}
	for _, id := range r.required {
		if _, ok := r.acks[id]; !ok {
			return false
		}
	}
	return true
}

// frontier is a member's first undelivered slot and highest slot seen.
type frontier struct{ next, highest uint64 }

// The events; front is the local member's frontier.
type (
	evTick struct { // the detector's clock ticked
		front      frontier
		recovering bool
	}
	evViewReq struct { // a candidate asks for our frontier
		req        Envelope
		front      frontier
		recovering bool
	}
	evFetched struct { // a gap fetch returned, at local virtual instant vnow
		req  effect
		envs []Envelope
		vnow time.Duration
	}
	evApply struct { // a membership config activates
		epoch   uint64
		voters  []ids.ReplicaID // ascending
		ordered bool
	}
	evTraffic struct{ env Envelope }     // a stamped envelope of another view
	evViewAck struct{ ack Envelope }     // a peer answers our round
	evCrash   struct{ id ids.ReplicaID } // the simulator kills a member
	evRevive  struct{ id ids.ReplicaID } // a crash-marked member is back
	evLearner struct{ id ids.ReplicaID } // a joiner starts receiving
	evSeed    viewOf                     // the view a rejoiner's donor reported
	evAdopt   viewOf                     // a view from outside, or our own takeover's
)

// viewOf names a view and its sequencer.
type viewOf struct {
	view uint64
	seq  ids.ReplicaID
}

// effectKind names what the driver must do.
type effectKind int

const (
	effSend    effectKind = iota // transfer env to member to on link key
	effFetch                     // fetch [from, from+max) from member to into member id; step the result as evFetched
	effInject                    // inject envs into member id's delivery path
	effPush                      // re-send member id's retained slots [from, from+max) to member to
	effRaise                     // raise member id's highest slot seen to from
	effPromote                   // make the paced clock the pacing leader
	effInstall                   // step evAdopt{view, id}: our takeover opens its view
	effAdopt                     // view is in with sequencer id: retransmit pending, run the callbacks
	effArm                       // tick again after after
	effLog                       // log format with args
)

// effect is one thing the driver does, in order.
type effect struct {
	kind     effectKind
	id, to   ids.ReplicaID
	key      string
	env      Envelope
	envs     []Envelope
	from     uint64
	max      int
	takeover bool // effFetch: the takeover's own heal
	view     uint64
	after    time.Duration
	format   string
	args     []any
}

// observe filters a stamped envelope against the view and notes its stamp;
// ok is false for one to drop. Traffic of an older view is dropped (a
// deposed sequencer's zombie multicasts must not fork the order), a newer
// view is adopted on the spot. The current view's traffic — every envelope
// but a few around a view change — only restarts the silence window.
func (st *viewState) observe(e Envelope, now time.Duration) (effs []effect, ok bool) {
	if e.View == st.view {
		st.heard, st.maxStamp = now, max(st.maxStamp, e.Stamp)
		return nil, true
	}
	stale := e.View < st.view
	return st.step(evTraffic{e}, now), !stale
}

func logf(format string, args ...any) effect { return effect{kind: effLog, format: format, args: args} }

// down reports whether id is crash-marked.
func (st *viewState) down(id ids.ReplicaID) bool {
	_, ok := st.crashed[id]
	return ok
}

// markDown crash-marks members as detected already (back-dated a window).
func (st *viewState) markDown(members []ids.ReplicaID, now time.Duration) {
	for _, id := range members {
		st.crashed[id] = now - st.detect
	}
}

// step applies ev at instant now and returns the effects to carry out.
func (st *viewState) step(ev any, now time.Duration) []effect {
	switch ev := ev.(type) {
	case evTick:
		return st.tick(ev, now)
	case evTraffic:
		switch verdict, revive := observeRule(ev.env.View, st.view, ev.env.From); verdict {
		case viewStale:
			return st.revive(revive)
		case viewNewer:
			effs := st.adopt(ev.env.View, ev.env.From.Replica, now)
			st.maxStamp = max(st.maxStamp, ev.env.Stamp)
			return effs
		}
	case evViewReq:
		return st.answer(ev, now)
	case evViewAck:
		if r := st.round; r != nil && r.plan == nil && ev.ack.View == r.view {
			r.acks[ev.ack.From.Replica] = ev.ack
			if r.complete() {
				return []effect{{kind: effArm}} // decide now, not at the deadline
			}
		}
	case evFetched:
		if !ev.req.takeover {
			return st.healed(ev, now)
		}
		if st.round != nil && st.round.plan != nil { // else a newer view came first
			return st.install(ev.envs)
		}
	case evCrash:
		if !st.down(ev.id) {
			wasSeq := lowestLive(st.members, st.crashed) == ev.id
			st.crashed[ev.id] = now
			if wasSeq && lowestLive(st.members, st.crashed) >= 0 {
				return []effect{{kind: effArm, after: st.detect}}
			}
		}
	case evRevive:
		return st.revive(ev.id)
	case evLearner:
		delete(st.crashed, ev.id) // an id reused after a removal: fan-out must reach it
		if !st.learners[ev.id] && !slices.Contains(st.members, ev.id) {
			st.learners[ev.id] = true
			return []effect{logf("gcs: member %v added as learner", ev.id)}
		}
	case evSeed:
		if seedAdopts(ev.view, ev.seq, st.view, st.seq) {
			st.view, st.seq = ev.view, ev.seq
			st.markDown(crashBelow(st.members, ev.seq, st.crashed, st.local), now)
		}
		st.heard = now
	case evAdopt:
		return st.adopt(ev.view, ev.seq, now)
	case evApply:
		return st.apply(ev, now)
	default:
		panic(fmt.Sprintf("gcs: unknown view event %T", ev))
	}
	return nil
}

func (st *viewState) revive(id ids.ReplicaID) []effect {
	if id < 0 || !st.down(id) {
		return nil
	}
	delete(st.crashed, id)
	return []effect{logf("gcs: member %v revived", id)}
}

// adopt installs view v with sequencer s: the members below s are marked,
// the new sequencer's heal may close a wedged gap, our own round gives way.
func (st *viewState) adopt(v uint64, s ids.ReplicaID, now time.Duration) []effect {
	if v <= st.view {
		return nil
	}
	st.view, st.seq, st.wedged, st.round = v, s, false, nil
	st.markDown(crashBelow(st.members, s, st.crashed, nil), now)
	st.heard = now
	return []effect{logf("gcs: adopted view %d, sequencer %v", v, s), {kind: effAdopt, view: v, id: s}}
}

// tick is the failure detector. A cluster heals a stalled delivery gap and
// suspects a sequencer silent for the detect window; the simulator suspects
// a crash-marked one. The lowest live voter is then the candidate: its
// process opens a view-sync round, everyone else restarts the window to
// give it time to announce the view.
func (st *viewState) tick(ev evTick, now time.Duration) []effect {
	if r := st.round; r != nil {
		if r.plan == nil && (r.complete() || now >= r.deadline) {
			return st.decide(ev.front, now)
		}
		return nil
	}
	var effs []effect
	if st.oracle {
		if !st.down(st.seq) {
			return nil
		}
	} else {
		verdict := monitorRule(ev.recovering, st.local[st.seq], now-st.heard, st.detect)
		if verdict == monitorSkip {
			st.heard = now
			return nil
		}
		if effs = st.watchGap(ev.front, now); verdict == monitorWait {
			return effs
		}
	}
	deposed := st.seq
	if !st.down(deposed) {
		st.crashed[deposed] = now - st.detect
	}
	cand := lowestLive(st.members, st.crashed)
	lead := cand >= 0 && st.local[cand]
	effs = append(effs, logf("gcs: sequencer %v silent for %v (view %d): candidate %v (lead=%v)",
		deposed, st.detect, st.view, cand, lead))
	st.heard = now
	if !lead {
		return effs
	}
	// Probe every remote voter: a falsely accused sequencer (our inbound
	// link went quiet, not it) objects. Only the ones believed live are
	// waited for, so a genuinely dead one costs nothing.
	r := &round{view: st.view + 1, cand: cand, deposed: deposed, acks: map[ids.ReplicaID]Envelope{}, deadline: now + st.detect}
	for _, id := range st.members {
		if st.local[id] {
			continue
		}
		r.peers++
		if !st.down(id) {
			r.required = append(r.required, id)
		}
		effs = append(effs, effect{kind: effSend, to: id, key: fmt.Sprintf("vr%v>%v", cand, id),
			env: Envelope{Kind: EnvViewReq, View: r.view, From: Origin{Replica: cand}}})
	}
	st.round = r
	if r.complete() {
		return append(effs, st.decide(ev.front, now)...)
	}
	return append(effs, effect{kind: effArm, after: st.detect})
}

// watchGap is the in-band gap healer: a member partitioned across a view
// change can hold slots above a hole the takeover's heal never closed (it
// was unreachable then); once stalled, the range is fetched from a peer.
func (st *viewState) watchGap(front frontier, now time.Duration) []effect {
	if !st.canFetch || st.wedged || st.self < 0 {
		return nil
	}
	donor, ok := healDonor(st.members, st.crashed, st.self, st.seq)
	if !ok {
		return nil
	}
	var stalled bool
	if st.gap, stalled = gapStalled(st.gap, front.next, front.highest, now, st.detect); !stalled {
		return nil
	}
	return []effect{{kind: effFetch, id: st.self, to: donor, from: front.next, max: int(front.highest-front.next) + 1}}
}

// healed handles the slots a gap fetch returned, and re-arms the watch.
func (st *viewState) healed(ev evFetched, now time.Duration) []effect {
	st.gap.since = now
	first, last, donor := ev.req.from, ev.req.from+uint64(ev.req.max)-1, ev.req.to
	switch healRule(ev.envs, ev.vnow) {
	case healWedged:
		st.wedged = true
		return []effect{logf("gcs: %v delivery gap [%d..%d] predates the local virtual clock (stamp %v <= now %v); "+
			"in-band heal unsafe, restart with -recover", st.self, first, last, ev.envs[0].Stamp, ev.vnow)}
	case healInject:
		return []effect{logf("gcs: %v healing delivery gap [%d..%d]: fetched %d slots from %v",
			st.self, first, last, len(ev.envs), donor), {kind: effInject, id: st.self, envs: ev.envs}}
	}
	return []effect{logf("gcs: %v delivery gap [%d..%d] not healable from %v (trimmed?); restart with -recover",
		st.self, first, last, donor)}
}

// answer is the responder's half of view-sync: our frontier (UID), highest
// slot seen (Seq) and highest stamp (Stamp), or an objection (Origin set).
func (st *viewState) answer(ev evViewReq, now time.Duration) []effect {
	if st.self < 0 {
		return nil
	}
	ack := Envelope{Kind: EnvViewAck, View: ev.req.View, From: Origin{Replica: st.self}}
	if viewReqObjects(ev.req.View, st.view, ev.recovering, st.local[st.seq], now-st.heard < st.detect, st.down(st.seq)) {
		ack.Origin = Origin{Replica: st.self}
	} else {
		st.heard = now // a takeover is under way: give the candidate its window
		ack.Seq, ack.UID, ack.Stamp = ev.front.highest, ev.front.next, st.maxStamp
	}
	from := ev.req.From.Replica
	return []effect{{kind: effSend, to: from, key: fmt.Sprintf("va%v>%v", st.self, from), env: ack}}
}

// decide ends our round: an objection or a missing quorum aborts it and
// revives the deposed sequencer; otherwise the heal plan runs, fetching
// first when we are behind. The voters this process hosts count toward the
// quorum: their state is known, not suspected.
func (st *viewState) decide(front frontier, now time.Duration) []effect {
	r, voters := st.round, 0
	for _, id := range st.members {
		if st.local[id] {
			voters++
		}
	}
	var why string
	switch takeoverRule(r.acks, voters, len(st.members), st.pairOrdered) {
	case takeoverObjected:
		why = fmt.Sprintf("a peer still observes sequencer %v alive", r.deposed)
	case takeoverShort:
		why = fmt.Sprintf("%d acks is short of a majority of %d", len(r.acks), len(st.members))
	default:
		p := planHeal(front.next, front.highest, st.maxStamp, st.budget, r.acks, st.canFetch)
		if r.plan = &p; p.donor >= 0 {
			return []effect{{kind: effFetch, id: r.cand, to: p.donor, from: p.fetchFrom, max: p.fetchMax, takeover: true}}
		}
		return st.install(nil)
	}
	st.round, st.heard = nil, now
	return append([]effect{logf("gcs: %v aborting view-%d takeover: %s", r.cand, r.view, why)}, st.revive(r.deposed)...)
}

// install finishes a decided round (guard 3, heal-before-promote): fetched
// slots first (their stamps lie above our horizon), our retained tail to
// lagging peers ahead of the new view's first heartbeat, assignment past
// the highest slot reported, stamps above the highest stamp; only then
// the paced clock's promotion and the view.
func (st *viewState) install(fetched []Envelope) []effect {
	r, p := st.round, st.round.plan
	st.round = nil
	var effs []effect
	if len(fetched) > 0 {
		effs = append(effs, effect{kind: effInject, id: r.cand, envs: fetched})
	}
	for _, push := range p.pushes {
		effs = append(effs, effect{kind: effPush, id: r.cand, to: push.to, from: push.from, max: push.max})
	}
	st.floor = max(st.floor, p.floor)
	return append(effs, effect{kind: effRaise, id: r.cand, from: p.resume}, effect{kind: effPromote},
		logf("gcs: %v taking over as view-%d sequencer: %d/%d acks, resume past slot %d, stamp floor %v",
			r.cand, r.view, len(r.acks), r.peers, p.resume, p.floor),
		effect{kind: effInstall, view: r.view, id: r.cand})
}

// apply installs a membership config at its activation slot. A removed
// member is crash-marked at once; a removed sequencer falls silent, and the
// window restarts so the candidate waits a full one after its last multicast.
func (st *viewState) apply(ev evApply, now time.Duration) []effect {
	if ev.epoch <= st.epoch || len(ev.voters) == 0 {
		return nil
	}
	var removed []ids.ReplicaID
	for _, id := range st.members {
		if !slices.Contains(ev.voters, id) {
			removed = append(removed, id)
		}
	}
	st.epoch, st.members, st.pairOrdered = ev.epoch, ev.voters, ev.ordered && len(ev.voters) == 2
	for _, id := range ev.voters {
		if st.learners[id] { // promoted: it delivered this very slot, no stale mark may hide it
			delete(st.learners, id)
			delete(st.crashed, id)
		}
	}
	for _, id := range removed {
		delete(st.learners, id)
		if !st.down(id) {
			st.crashed[id] = now - st.detect
		}
	}
	if !slices.Contains(ev.voters, st.seq) {
		st.heard = now
	}
	return []effect{logf("gcs: membership epoch %d active: voters %v (removed %v)", ev.epoch, ev.voters, removed)}
}

// The decision rules, each a pure function of what it reads; crashed maps
// each crash-detected member to the instant it was marked.

// viewReqObjects is the objection rule (guard 1 of DESIGN §7): a responder
// objects when it sits in a view that new, or — unless recovering, when it
// sees no traffic — when it hosts the sequencer or heard from it within the
// detect window and did not crash-mark it since.
func viewReqObjects(proposed, cur uint64, recovering, hostsSeq, heard, seqCrashed bool) bool {
	return proposed <= cur || (!recovering && (hostsSeq || (heard && !seqCrashed)))
}

// viewVerdict is what a stamped envelope's view means to its receiver.
type viewVerdict int

const (
	viewCurrent viewVerdict = iota // accept
	viewStale                      // drop
	viewNewer                      // adopt, then accept
)

// observeRule classifies an envelope of view envView against ours, cur. A
// stale frame from a member is a straggler (typically a sequencer that
// stalled through its deposition): revive names it, so that the new view's
// multicasts, which skip crash-marked members, reach it again.
func observeRule(envView, cur uint64, from Origin) (v viewVerdict, revive ids.ReplicaID) {
	switch {
	case envView < cur && from.Replica > 0 && !from.IsClient:
		return viewStale, from.Replica
	case envView < cur:
		return viewStale, -1
	case envView > cur:
		return viewNewer, -1
	}
	return viewCurrent, -1
}

// monitorVerdict is what one tick of the cluster's failure detector does.
type monitorVerdict int

const (
	monitorSkip    monitorVerdict = iota // nothing to watch: restart the window
	monitorWait                          // the sequencer spoke within the window
	monitorSuspect                       // silent for the whole window
)

// monitorRule: a recovering process observes nothing and a process
// hosting the sequencer does not watch itself; anyone else suspects a
// sequencer silent for detect.
func monitorRule(recovering, hostsSeq bool, silent, detect time.Duration) monitorVerdict {
	switch {
	case recovering || hostsSeq:
		return monitorSkip
	case silent < detect:
		return monitorWait
	}
	return monitorSuspect
}

// lowestLive is the takeover candidate: the lowest voter not crash-marked
// (-1: none).
func lowestLive(members []ids.ReplicaID, crashed map[ids.ReplicaID]time.Duration) ids.ReplicaID {
	for _, id := range members {
		if _, down := crashed[id]; !down {
			return id
		}
	}
	return -1
}

// visibleSequencer is the sequencer the simulator's senders address: a
// crashed member keeps receiving (and dropping) traffic until the detect
// window after its crash has passed — the takeover cost experiment E5
// measures. -1 when every member is detected dead.
func visibleSequencer(members []ids.ReplicaID, crashed map[ids.ReplicaID]time.Duration, now, detect time.Duration) ids.ReplicaID {
	for _, id := range members {
		if at, down := crashed[id]; !down || now < at+detect {
			return id
		}
	}
	return -1
}

// crashBelow lists the members a view with sequencer seq crash-marks: the
// live ones below it (the election passed them over) not in spare — a
// rejoiner seeding its view spares the members it hosts.
func crashBelow(members []ids.ReplicaID, seq ids.ReplicaID, crashed map[ids.ReplicaID]time.Duration, spare map[ids.ReplicaID]bool) []ids.ReplicaID {
	var out []ids.ReplicaID
	for _, id := range members {
		if _, down := crashed[id]; id < seq && !down && !spare[id] {
			out = append(out, id)
		}
	}
	return out
}

// seedAdopts reports whether a view from a recovery donor replaces ours: a
// newer view, or the same view with a higher sequencer.
func seedAdopts(view uint64, seq ids.ReplicaID, cur uint64, curSeq ids.ReplicaID) bool {
	return view > cur || (view == cur && seq > curSeq)
}

// gapWatch tracks a delivery frontier that sits below the highest slot seen.
type gapWatch struct {
	next  uint64        // the stuck frontier (0: no gap)
	since time.Duration // when it was first seen stuck there
}

// gapStalled: a frontier next below highest that has not moved for a whole
// detect window is a hole no in-flight slot will fill (those clear within a
// tick). It returns the watch to keep and whether to fetch [next..highest].
func gapStalled(w gapWatch, next, highest uint64, now, detect time.Duration) (gapWatch, bool) {
	switch {
	case highest < next:
		return gapWatch{since: w.since}, false
	case next != w.next:
		return gapWatch{next: next, since: now}, false
	}
	return w, now-w.since >= detect
}

// healDonor picks whom a gap is fetched from: the sequencer when it is a
// live peer (its retention window is authoritative), else the lowest one.
func healDonor(members []ids.ReplicaID, crashed map[ids.ReplicaID]time.Duration, self, seq ids.ReplicaID) (ids.ReplicaID, bool) {
	var first ids.ReplicaID = -1
	for _, id := range members {
		if _, down := crashed[id]; id == self || down {
			continue
		}
		if id == seq {
			return id, true
		}
		if first < 0 {
			first = id
		}
	}
	return first, first >= 0
}

// healOutcome is what a fetched gap allows.
type healOutcome int

const (
	healInject healOutcome = iota // inject the slots through the stamped path
	healWedged                    // the local clock passed their stamps: only a restart replays them
	healEmpty                     // the donor had nothing (trimmed?)
)

// healRule: slots whose stamps the local clock (at vnow) already passed
// would execute at the wrong instants if injected — divergence.
func healRule(envs []Envelope, vnow time.Duration) healOutcome {
	switch {
	case len(envs) == 0:
		return healEmpty
	case envs[0].Stamp > 0 && envs[0].Stamp <= vnow:
		return healWedged
	}
	return healInject
}

// takeoverQuorumMet (guard 2): the candidate's local voters plus the acks
// must be a majority of the voters — one that heard from nobody cannot
// tell "they all died" from "my inbound links are down". The exception is
// a pair left by an ordered removal (pairOrdered): that config was agreed
// in the total order, the objection probe still runs, and the operator
// traded partition tolerance for availability. A static pair, or one left
// by crash detection, keeps the stall — safety over liveness.
func takeoverQuorumMet(localVoters, acks, voters int, pairOrdered bool) bool {
	if localVoters+acks >= voters/2+1 {
		return true
	}
	return pairOrdered && voters == 2 && localVoters >= 1
}

// viewObjection reports whether any view-sync ack objects: an objecting
// responder sets the otherwise unused Origin to its own (non-zero) id.
func viewObjection(acks map[ids.ReplicaID]Envelope) bool {
	for _, a := range acks {
		if a.Origin.Replica != 0 {
			return true
		}
	}
	return false
}

// takeoverVerdict is how a view-sync round ends.
type takeoverVerdict int

const (
	takeoverProceeds takeoverVerdict = iota
	takeoverObjected                 // some peer still observes the sequencer alive
	takeoverShort                    // too few acks for a quorum
)

// takeoverRule ends a round: an objection aborts it, then the quorum rule
// must hold over the candidate's local voters and the acks.
func takeoverRule(acks map[ids.ReplicaID]Envelope, localVoters, voters int, pairOrdered bool) takeoverVerdict {
	switch {
	case viewObjection(acks):
		return takeoverObjected
	case !takeoverQuorumMet(localVoters, len(acks), voters, pairOrdered):
		return takeoverShort
	}
	return takeoverProceeds
}

// tailPush re-sends retained slots [from, from+max) to a peer behind us.
type tailPush struct {
	to   ids.ReplicaID
	from uint64
	max  int
}

// healPlan is what the winner of a round does before it opens the view.
type healPlan struct {
	donor     ids.ReplicaID // fetch [fetchFrom, fetchFrom+fetchMax) from it first; -1: nothing to fetch
	fetchFrom uint64
	fetchMax  int
	pushes    []tailPush    // lagging peers, ascending
	resume    uint64        // the highest slot anyone reported: assignment resumes past it
	floor     time.Duration // the highest stamp anyone reported, plus the budget
}

// planHeal computes the plan from the candidate's frontier (next, highest),
// the highest stamp it observed and the acks (a peer's highest slot in Seq,
// its frontier in UID, its highest stamp in Stamp). The donor is the peer
// that reported the most slots (ties to the lowest id), fetched from only
// when fetching is possible at all.
func planHeal(next, highest uint64, maxStamp, budget time.Duration, acks map[ids.ReplicaID]Envelope, canFetch bool) healPlan {
	peers := make([]ids.ReplicaID, 0, len(acks))
	for id := range acks {
		peers = append(peers, id)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	p := healPlan{donor: -1, resume: highest}
	for _, id := range peers {
		a := acks[id]
		if a.Seq > p.resume {
			p.donor = id
		}
		p.resume = max(p.resume, a.Seq)
		maxStamp = max(maxStamp, a.Stamp)
	}
	if p.donor < 0 || next > p.resume || !canFetch {
		p.donor = -1
	} else {
		p.fetchFrom, p.fetchMax = next, int(p.resume-next)+1
	}
	for _, id := range peers {
		if from := acks[id].UID; from <= p.resume {
			p.pushes = append(p.pushes, tailPush{to: id, from: from, max: int(p.resume-from) + 1})
		}
	}
	p.floor = maxStamp + budget
	return p
}
