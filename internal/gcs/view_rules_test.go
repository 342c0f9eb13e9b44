package gcs

import (
	"reflect"
	"testing"
	"time"

	"detmt/internal/ids"
)

// The decision rules of the view change as tables, recorded while
// leadTakeover, runMonitor, healDeliveryGap, handleViewReq, observeView,
// adoptView, SeedView and the simulator's sequencer scan still made them
// inline. A change to the view machine must leave every row as it is.

const ms = time.Millisecond

// crashedAt builds a crash map: id, instant, id, instant, ...
func crashedAt(kv ...int) map[ids.ReplicaID]time.Duration {
	m := map[ids.ReplicaID]time.Duration{}
	for i := 0; i+1 < len(kv); i += 2 {
		m[ids.ReplicaID(kv[i])] = time.Duration(kv[i+1]) * ms
	}
	return m
}

// (a) handleViewReq's objection predicate.
func TestRuleObjection(t *testing.T) {
	for _, c := range []struct {
		name                                  string
		proposed, cur                         uint64
		recovering, hostsSeq, heard, seqCrash bool
		want                                  bool
	}{
		{"a proposal for the view we are in", 3, 3, false, false, false, false, true},
		{"a proposal for an older view", 2, 3, false, false, false, false, true},
		{"even a recovering member objects to an old view", 3, 3, true, false, false, false, true},
		{"the next view, sequencer silent", 4, 3, false, false, false, false, false},
		{"we host the sequencer", 4, 3, false, true, false, false, true},
		{"we heard it within the window", 4, 3, false, false, true, false, true},
		{"heard, but we crash-marked it since", 4, 3, false, false, true, true, false},
		{"recovering: never objects to a newer view", 4, 3, true, true, true, false, false},
		{"hosting wins over a crash mark", 4, 3, false, true, false, true, true},
	} {
		if got := viewReqObjects(c.proposed, c.cur, c.recovering, c.hostsSeq, c.heard, c.seqCrash); got != c.want {
			t.Errorf("%s: viewReqObjects = %v, want %v", c.name, got, c.want)
		}
	}
}

// (b) observeView's stale/newer rule, with the revive of a stale sender.
func TestRuleObserveView(t *testing.T) {
	for _, c := range []struct {
		name       string
		env, cur   uint64
		from       Origin
		want       viewVerdict
		wantRevive ids.ReplicaID
	}{
		{"current view", 2, 2, Origin{Replica: 1}, viewCurrent, -1},
		{"newer view", 3, 2, Origin{Replica: 2}, viewNewer, -1},
		{"stale frame of a member revives it", 1, 2, Origin{Replica: 1}, viewStale, 1},
		{"stale frame with no sender", 1, 2, Origin{}, viewStale, -1},
		{"stale frame of a client", 1, 2, Origin{Client: 4, IsClient: true}, viewStale, -1},
		{"view 0 against view 5", 0, 5, Origin{Replica: 3}, viewStale, 3},
	} {
		v, r := observeRule(c.env, c.cur, c.from)
		if v != c.want || r != c.wantRevive {
			t.Errorf("%s: observeRule = (%v, %v), want (%v, %v)", c.name, v, r, c.want, c.wantRevive)
		}
	}
}

// (c) runMonitor's skip / suspect / lead rule.
func TestRuleMonitor(t *testing.T) {
	const detect = 50 * ms
	for _, c := range []struct {
		name                 string
		recovering, hostsSeq bool
		silent               time.Duration
		want                 monitorVerdict
	}{
		{"recovering watches nothing", true, false, time.Hour, monitorSkip},
		{"the sequencer does not watch itself", false, true, time.Hour, monitorSkip},
		{"traffic within the window", false, false, detect - 1, monitorWait},
		{"silent for exactly the window", false, false, detect, monitorSuspect},
		{"silent for longer", false, false, 3 * detect, monitorSuspect},
	} {
		if got := monitorRule(c.recovering, c.hostsSeq, c.silent, detect); got != c.want {
			t.Errorf("%s: monitorRule = %v, want %v", c.name, got, c.want)
		}
	}
	members := []ids.ReplicaID{1, 2, 3, 4}
	for _, c := range []struct {
		name    string
		crashed map[ids.ReplicaID]time.Duration
		local   ids.ReplicaID
		cand    ids.ReplicaID
		lead    bool
	}{
		{"nobody crashed: the lowest", crashedAt(), 1, 1, true},
		{"the sequencer crashed: next one leads", crashedAt(1, 0), 2, 2, true},
		{"the next one is elsewhere: follow", crashedAt(1, 0), 3, 2, false},
		{"a gap in the live set", crashedAt(1, 0, 2, 5), 3, 3, true},
		{"everyone crashed", crashedAt(1, 0, 2, 0, 3, 0, 4, 0), 4, -1, false},
	} {
		cand := lowestLive(members, c.crashed)
		lead := cand >= 0 && cand == c.local
		if cand != c.cand || lead != c.lead {
			t.Errorf("%s: candidate %v lead %v, want %v %v", c.name, cand, lead, c.cand, c.lead)
		}
	}
}

// (d) healDeliveryGap's stall, donor and wedge rule.
func TestRuleGapHeal(t *testing.T) {
	const detect = 50 * ms
	for _, c := range []struct {
		name          string
		w             gapWatch
		next, highest uint64
		now           time.Duration
		want          gapWatch
		fetch         bool
	}{
		{"no gap forgets the watch", gapWatch{7, 10 * ms}, 8, 7, 100 * ms, gapWatch{0, 10 * ms}, false},
		{"a new gap starts the watch", gapWatch{}, 5, 9, 100 * ms, gapWatch{5, 100 * ms}, false},
		{"the frontier moved: restart", gapWatch{5, 10 * ms}, 6, 9, 100 * ms, gapWatch{6, 100 * ms}, false},
		{"stuck for less than the window", gapWatch{5, 60 * ms}, 5, 9, 100 * ms, gapWatch{5, 60 * ms}, false},
		{"stuck for the window: fetch", gapWatch{5, 50 * ms}, 5, 9, 100 * ms, gapWatch{5, 50 * ms}, true},
		{"a single missing slot", gapWatch{5, 0}, 5, 5, 100 * ms, gapWatch{5, 0}, true},
	} {
		w, fetch := gapStalled(c.w, c.next, c.highest, c.now, detect)
		if w != c.want || fetch != c.fetch {
			t.Errorf("%s: gapStalled = (%+v, %v), want (%+v, %v)", c.name, w, fetch, c.want, c.fetch)
		}
	}
	members := []ids.ReplicaID{1, 2, 3, 4}
	for _, c := range []struct {
		name      string
		crashed   map[ids.ReplicaID]time.Duration
		self, seq ids.ReplicaID
		donor     ids.ReplicaID
		ok        bool
	}{
		{"the sequencer is preferred", crashedAt(), 1, 3, 3, true},
		{"else the lowest live peer", crashedAt(3, 0), 1, 3, 2, true},
		{"never ourselves", crashedAt(), 2, 2, 1, true},
		{"crashed peers are skipped", crashedAt(1, 0, 2, 0), 3, 1, 4, true},
		{"no live peer", crashedAt(1, 0, 2, 0, 3, 0), 4, 1, -1, false},
	} {
		d, ok := healDonor(members, c.crashed, c.self, c.seq)
		if d != c.donor || ok != c.ok {
			t.Errorf("%s: healDonor = (%v, %v), want (%v, %v)", c.name, d, ok, c.donor, c.ok)
		}
	}
	at := func(stamps ...time.Duration) []Envelope {
		envs := make([]Envelope, len(stamps))
		for i, s := range stamps {
			envs[i] = Envelope{Kind: EnvSequenced, Seq: uint64(i + 1), Stamp: s}
		}
		return envs
	}
	for _, c := range []struct {
		name string
		envs []Envelope
		vnow time.Duration
		want healOutcome
	}{
		{"nothing fetched", nil, 0, healEmpty},
		{"stamps ahead of the clock", at(20*ms, 21*ms), 10 * ms, healInject},
		{"the clock passed the first stamp", at(10*ms, 30*ms), 10 * ms, healWedged},
		{"an unstamped slot never wedges", at(0), 10 * ms, healInject},
	} {
		if got := healRule(c.envs, c.vnow); got != c.want {
			t.Errorf("%s: healRule = %v, want %v", c.name, got, c.want)
		}
	}
}

// (e) leadTakeover's abort rule and heal plan.
func TestRuleTakeover(t *testing.T) {
	ack := func(from ids.ReplicaID, highest, next uint64, stamp time.Duration) Envelope {
		return Envelope{Kind: EnvViewAck, View: 1, From: Origin{Replica: from}, Seq: highest, UID: next, Stamp: stamp}
	}
	objection := Envelope{Kind: EnvViewAck, View: 1, From: Origin{Replica: 3}, Origin: Origin{Replica: 3}}
	for _, c := range []struct {
		name                string
		acks                map[ids.ReplicaID]Envelope
		localVoters, voters int
		pairOrdered         bool
		want                takeoverVerdict
	}{
		{"a majority of 3", map[ids.ReplicaID]Envelope{3: ack(3, 5, 6, 0)}, 1, 3, false, takeoverProceeds},
		{"an objection beats a quorum", map[ids.ReplicaID]Envelope{3: objection, 4: ack(4, 5, 6, 0)}, 1, 5, false, takeoverObjected},
		{"an objection alone", map[ids.ReplicaID]Envelope{3: objection}, 1, 3, false, takeoverObjected},
		{"nobody answered", map[ids.ReplicaID]Envelope{}, 1, 3, false, takeoverShort},
		{"one ack of 5", map[ids.ReplicaID]Envelope{3: ack(3, 5, 6, 0)}, 1, 5, false, takeoverShort},
		{"the ordered pair", map[ids.ReplicaID]Envelope{}, 1, 2, true, takeoverProceeds},
		{"the static pair", map[ids.ReplicaID]Envelope{}, 1, 2, false, takeoverShort},
		{"all voters in process", map[ids.ReplicaID]Envelope{}, 2, 2, false, takeoverProceeds},
	} {
		if got := takeoverRule(c.acks, c.localVoters, c.voters, c.pairOrdered); got != c.want {
			t.Errorf("%s: takeoverRule = %v, want %v", c.name, got, c.want)
		}
	}

	const budget = 5 * ms
	for _, c := range []struct {
		name          string
		next, highest uint64
		maxStamp      time.Duration
		acks          map[ids.ReplicaID]Envelope
		canFetch      bool
		want          healPlan
	}{
		{
			"everyone level: no fetch, nobody behind",
			11, 10, 40 * ms,
			map[ids.ReplicaID]Envelope{3: ack(3, 10, 11, 40*ms)},
			true,
			healPlan{donor: -1, resume: 10, floor: 45 * ms},
		},
		{
			"we are behind: fetch from the best donor",
			8, 7, 30 * ms,
			map[ids.ReplicaID]Envelope{3: ack(3, 10, 11, 42*ms), 4: ack(4, 9, 10, 41*ms)},
			true,
			healPlan{donor: 3, fetchFrom: 8, fetchMax: 3, resume: 10, floor: 47 * ms, pushes: []tailPush{{4, 10, 1}}},
		},
		{
			"ties go to the lowest id",
			8, 7, 0,
			map[ids.ReplicaID]Envelope{5: ack(5, 10, 11, 0), 3: ack(3, 10, 11, 0), 4: ack(4, 10, 11, 0)},
			true,
			healPlan{donor: 3, fetchFrom: 8, fetchMax: 3, resume: 10, floor: budget},
		},
		{
			"no fetch hook: nobody to fetch from",
			8, 7, 0,
			map[ids.ReplicaID]Envelope{3: ack(3, 10, 11, 0)},
			false,
			healPlan{donor: -1, resume: 10, floor: budget},
		},
		{
			"lagging peers get our tail, ascending",
			13, 12, 50 * ms,
			map[ids.ReplicaID]Envelope{4: ack(4, 12, 9, 50*ms), 3: ack(3, 11, 12, 48*ms), 5: ack(5, 12, 13, 50*ms)},
			true,
			healPlan{donor: -1, resume: 12, floor: 55 * ms, pushes: []tailPush{{3, 12, 1}, {4, 9, 4}}},
		},
		{
			"the highest stamp may come from a peer behind us",
			13, 12, 20 * ms,
			map[ids.ReplicaID]Envelope{3: ack(3, 11, 13, 90*ms)},
			true,
			healPlan{donor: -1, resume: 12, floor: 95 * ms},
		},
		{
			"a lone candidate resumes past its own highest slot",
			4, 9, 7 * ms,
			map[ids.ReplicaID]Envelope{},
			true,
			healPlan{donor: -1, resume: 9, floor: 12 * ms},
		},
	} {
		got := planHeal(c.next, c.highest, c.maxStamp, budget, c.acks, c.canFetch)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: planHeal =\n  %+v, want\n  %+v", c.name, got, c.want)
		}
	}
}

// (f) adoptView's and SeedView's crash-marking.
func TestRuleCrashMarking(t *testing.T) {
	members := []ids.ReplicaID{1, 2, 3, 4}
	for _, c := range []struct {
		name    string
		seq     ids.ReplicaID
		crashed map[ids.ReplicaID]time.Duration
		spare   map[ids.ReplicaID]bool
		want    []ids.ReplicaID
	}{
		{"adopting the lowest marks nobody", 1, crashedAt(), nil, nil},
		{"everyone below the new sequencer", 3, crashedAt(), nil, []ids.ReplicaID{1, 2}},
		{"already marked stays as it was", 3, crashedAt(1, 7), nil, []ids.ReplicaID{2}},
		{"a seeded view spares the local member", 3, crashedAt(), map[ids.ReplicaID]bool{1: true}, []ids.ReplicaID{2}},
		{"members above are untouched", 2, crashedAt(), nil, []ids.ReplicaID{1}},
	} {
		if got := crashBelow(members, c.seq, c.crashed, c.spare); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: crashBelow = %v, want %v", c.name, got, c.want)
		}
	}
	for _, c := range []struct {
		name   string
		view   uint64
		seq    ids.ReplicaID
		cur    uint64
		curSeq ids.ReplicaID
		want   bool
	}{
		{"a newer view", 2, 1, 1, 3, true},
		{"the same view, higher sequencer", 1, 3, 1, 2, true},
		{"the same view and sequencer", 1, 2, 1, 2, false},
		{"the same view, lower sequencer", 1, 1, 1, 2, false},
		{"an older view", 0, 4, 1, 2, false},
	} {
		if got := seedAdopts(c.view, c.seq, c.cur, c.curSeq); got != c.want {
			t.Errorf("%s: seedAdopts = %v, want %v", c.name, got, c.want)
		}
	}
}

// (g) the simulator's sender-visible sequencer.
func TestRuleVisibleSequencer(t *testing.T) {
	const detect = 20 * ms
	members := []ids.ReplicaID{1, 2, 3}
	for _, c := range []struct {
		name    string
		crashed map[ids.ReplicaID]time.Duration
		now     time.Duration
		want    ids.ReplicaID
	}{
		{"nobody crashed", crashedAt(), 100 * ms, 1},
		{"crashed, not yet detected: still addressed", crashedAt(1, 90), 100 * ms, 1},
		{"detected at exactly the window", crashedAt(1, 80), 100 * ms, 2},
		{"back-dated marks count as detected at once", crashedAt(1, 80, 2, 80), 100 * ms, 3},
		{"a cascade inside the window", crashedAt(1, 50, 2, 95), 100 * ms, 2},
		{"everyone detected", crashedAt(1, 0, 2, 0, 3, 0), 100 * ms, -1},
	} {
		if got := visibleSequencer(members, c.crashed, c.now, detect); got != c.want {
			t.Errorf("%s: visibleSequencer = %v, want %v", c.name, got, c.want)
		}
	}
}
