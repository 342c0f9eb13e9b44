package core

import (
	"cmp"
	"slices"
)

// PDS is the preemptive deterministic scheduling algorithm (Basile et
// al., paper Sect. 3.3).
//
// A pool of at most W threads processes requests. Each thread runs freely
// until it requests its first lock, then blocks at a barrier. When every
// pool member has arrived (and no critical section from the previous
// round is still open), the round closes: all arrived requests become
// *eligible* and are granted in admission order — conflicting requests on
// the same mutex serialise within the round as their predecessors
// release. After a thread leaves its critical section it runs on to its
// next lock request, which belongs to the next round.
//
// Two properties the paper criticises are directly observable here:
// lock acquisition stalls until W requests have arrived (the dummy
// message machinery in package workload exists to unblock it), and the
// algorithm expects all requests to have a similar profile.
//
// Condition variables and nested invocations use the documented FTflex
// adaptation: a suspending thread leaves the pool (the barrier proceeds
// without it) and rejoins when it resumes — as a running member after a
// nested reply, or as a new ineligible arrival for its monitor
// reacquisition after a notify.
//
// Conflict classes (package earlysched) generalise the one pool to one
// per class: every class runs its own PDS *lane* — window, barrier
// rounds, eligibility, admission-order grants — so non-conflicting
// classes close rounds and execute critical sections concurrently. The
// paper's PDS is the case where every thread is in the global class 0
// (what Runtime.Submit admits): one lane, and a gate that never bars.
//
// The merge barrier is a *grant gate* over the stamped admission order:
// a non-global thread is never granted a lock while an older global-
// class thread is live, and a global thread is never granted one while
// an older non-global thread is live (gateAdmits). Round structure is
// per lane, so a multi-lane run is *not* promised to replay the one-lane
// round timing for W > 1; with W = 1 (one request per lane at a time) the
// per-mutex grant order provably equals serial admission order, which the
// hash-equivalence tests in package replica pin down.
type PDS struct {
	NopScheduler
	rt *Runtime

	// W is the pool size of every lane: the number of simultaneously
	// processed requests a barrier waits for.
	W int
	// RequireFullPool makes a lane's barriers wait until its pool has W
	// members, as the published algorithm does (needing dummy requests to
	// avoid starvation). When false (relaxed), a barrier fires as soon as
	// every *current* member has arrived. A replica that spreads requests
	// over several lanes runs relaxed: a lane sees only its own class's
	// requests, and the dummies drain through a lane of their own.
	//
	// Relaxed round membership therefore depends on the order in which
	// pool joins and arrivals are processed, also when they carry the
	// same virtual instant: an arrival that closes the round before a
	// same-instant admission, nested resume or wait wake-up has joined
	// leaves the joiner to the next round; the other order holds the
	// round open for it (admission and nested resume join as running
	// members) or adds it as an ineligible arrival (wake-up). The
	// schedule is deterministic only if that order is. On the replica
	// path it is: the virtual clock fires same-instant timers by rank —
	// thread computations in thread-id order, then group-communication
	// deliveries (admissions), then the event pump (nested replies and
	// wait timeouts, in thread-id order) — and each runs its cascade to
	// completion before the next fires. A driver that admits from a
	// goroutine racing the threads it already started (a unit-test
	// spawner) has no such order and must gate the thread bodies behind
	// the last admission.
	RequireFullPool bool

	lanes laneSet[pdsLane]
	classCounters
}

type pdsLane struct {
	members      []*Thread // started, alive, unsuspended; admission order
	waitingStart []*Thread // admitted beyond W, waiting for a pool slot
	round        int64
}

// NewPDS returns a PDS scheduler with per-lane pool size w.
func NewPDS(w int, requireFullPool bool) *PDS {
	if w < 1 {
		w = 1
	}
	return &PDS{W: w, RequireFullPool: requireFullPool}
}

type pdsPhase int

const (
	pdsRunning pdsPhase = iota // executing, not yet at its next lock
	pdsArrived                 // blocked at the barrier with a lock request
	pdsInCS                    // granted, inside its critical section
)

type pdsState struct {
	phase    pdsPhase
	need     *Mutex
	eligible bool // arrival belongs to the currently open round
}

func pdsOf(t *Thread) *pdsState {
	if t.sched == nil {
		t.sched = &pdsState{}
	}
	return t.sched.(*pdsState)
}

// Name implements Scheduler.
func (s *PDS) Name() string { return "PDS" }

// Attach implements Scheduler.
func (s *PDS) Attach(rt *Runtime) { s.rt = rt }

// ClassStats implements ClassScheduler. Decision lock held.
func (s *PDS) ClassStats() ClassStats { return s.snapshot(s.rt) }

func (s *PDS) laneOf(t *Thread) *pdsLane { return s.lanes.of(t.Class()) }

// join inserts t where its admission index puts it: members stay in
// admission order, and admission indices are unique.
func (l *pdsLane) join(t *Thread) {
	i, _ := slices.BinarySearchFunc(l.members, t.admitIdx, func(u *Thread, idx uint64) int {
		return cmp.Compare(u.admitIdx, idx)
	})
	l.members = slices.Insert(l.members, i, t)
}

func (l *pdsLane) leave(t *Thread) {
	for i, u := range l.members {
		if u == t {
			l.members = slices.Delete(l.members, i, i+1)
			return
		}
	}
}

// gateAdmits reports whether the merge barrier lets t commit scheduler
// grants: no older live thread on the other side of the global/non-global
// divide. Decision lock held; the admission-order scan stops at t itself.
//
// Threads still queued in waitingStart need no exemption, although they
// have executed nothing: a lane starts its requests strictly in
// admission order and refills on every leave, so a queued thread always
// has W older, started, live lane-mates that bar t in their own right.
// Every blocking edge — queued on older members, gate-barred on older
// threads — therefore points younger to older, and the only edge that
// can point the other way is the round wait tryBarrier exempts.
func (s *PDS) gateAdmits(t *Thread) bool {
	global := t.Class() == 0
	for _, u := range s.rt.ThreadsByAdmission() {
		if u.admitIdx >= t.admitIdx {
			return true
		}
		if (u.Class() == 0) != global {
			return false
		}
	}
	return true
}

// Admit starts the thread if its lane has a free pool slot, else leaves
// it queued in the lane.
func (s *PDS) Admit(t *Thread) {
	s.admitted(t)
	l := s.laneOf(t)
	l.waitingStart = append(l.waitingStart, t)
	s.refill(l)
}

// Acquire blocks the thread at its lane's barrier.
func (s *PDS) Acquire(t *Thread, m *Mutex) {
	st := pdsOf(t)
	st.phase = pdsArrived
	st.need = m
	st.eligible = false
	s.tryBarrier(s.laneOf(t))
}

// Release ends the critical section; the mutex goes to the next eligible
// arrival of the round, and every lane is re-examined: the released
// mutex (or the releaser's progress) may unblock this lane or the other
// side of the merge barrier.
func (s *PDS) Release(t *Thread, m *Mutex) {
	st := pdsOf(t)
	if st.phase == pdsInCS {
		st.phase = pdsRunning
	}
	s.sweep()
}

// WaitPark removes the waiting thread from its lane's pool; its monitor
// was released, which may unblock an eligible arrival anywhere.
func (s *PDS) WaitPark(t *Thread, m *Mutex) {
	l := s.laneOf(t)
	l.leave(t)
	s.refill(l)
	s.sweep()
}

// WaitWake rejoins the pool as an ineligible arrival that needs its
// monitor back.
func (s *PDS) WaitWake(t *Thread, m *Mutex) {
	st := pdsOf(t)
	st.phase = pdsArrived
	st.need = m
	st.eligible = false
	if !mutexHasWaiter(m, t) {
		m.waiters = append(m.waiters, t)
	}
	l := s.laneOf(t)
	l.join(t)
	s.tryBarrier(l)
}

// NestedBegin removes the suspending thread from its lane's pool for the
// duration of the call.
func (s *PDS) NestedBegin(t *Thread) {
	l := s.laneOf(t)
	l.leave(t)
	s.refill(l)
	s.tryBarrier(l)
}

// NestedResume rejoins the pool as a running member.
func (s *PDS) NestedResume(t *Thread) {
	pdsOf(t).phase = pdsRunning
	s.laneOf(t).join(t)
	s.rt.ResumeNested(t)
}

// Exit frees the pool slot, admits the lane's next queued request, and
// re-examines every lane — an exit is what clears the merge barrier.
func (s *PDS) Exit(t *Thread) {
	l := s.laneOf(t)
	l.leave(t)
	s.refill(l)
	s.exited(t)
	s.sweep()
}

// refill starts queued requests of one lane while pool slots are free.
func (s *PDS) refill(l *pdsLane) {
	for len(l.members) < s.W && len(l.waitingStart) > 0 {
		t := l.waitingStart[0]
		l.waitingStart = l.waitingStart[1:]
		pdsOf(t).phase = pdsRunning
		l.join(t)
		s.rt.StartThread(t)
	}
}

// sweep re-runs grants and barriers on every lane, in sorted class
// order. Grant decisions across lanes are independent (disjoint
// footprints; the gate serialises the global class), so the sweep order
// cannot change a grant, only make it.
func (s *PDS) sweep() {
	for _, l := range s.lanes.sorted {
		s.grantEligible(l)
		s.tryBarrier(l)
	}
}

// tryBarrier closes a lane's round when every member has arrived, no
// critical section is open, and no eligible arrival is still stuck on a
// held mutex. All current arrivals become eligible and are granted in
// admission order.
//
// An eligible arrival stuck only on the merge-barrier *gate* does not
// keep the round closed: its wait is owned by the gate (an older
// opposite-polarity thread must exit), not by this lane, and blocking
// the round on it closes a cycle — an older lane-mate waiting for the
// next round, while the global thread barring the younger gate-stuck
// member is itself gate-barred behind that older lane-mate. Letting the
// round open lets the older member go eligible, pass the gate (older
// threads have smaller bar-sets; the oldest's is empty) and exit, which
// is exactly what clears the gate. With W = 1 a lane has no other
// members, so the serial-equivalent configuration is unaffected.
func (s *PDS) tryBarrier(l *pdsLane) {
	if len(l.members) == 0 {
		return
	}
	if s.RequireFullPool && len(l.members) < s.W {
		return
	}
	for _, t := range l.members {
		st := pdsOf(t)
		if st.phase != pdsArrived {
			return // someone still running or in a critical section
		}
		if st.eligible {
			if st.need.Free() && !s.gateAdmits(t) {
				continue // gate-stuck: the merge barrier owns this wait
			}
			return // stuck on a held mutex
		}
	}
	l.round++
	s.rt.RecordBarrier(l.members[0], l.round)
	for _, t := range l.members {
		pdsOf(t).eligible = true
	}
	s.grantEligible(l)
}

// grantEligible grants free mutexes to the lane's gate-admissible
// eligible arrivals in admission order.
func (s *PDS) grantEligible(l *pdsLane) {
	for _, t := range l.members {
		st := pdsOf(t)
		if st.phase != pdsArrived || !st.eligible || !st.need.Free() {
			continue
		}
		if !s.gateAdmits(t) {
			s.mergeStalls++
			continue
		}
		m := st.need
		st.phase = pdsInCS
		st.need = nil
		st.eligible = false
		s.rt.Grant(t, m)
	}
}

// Rounds returns the completed barrier rounds of every lane, keyed by
// class (diagnostics).
func (s *PDS) Rounds() map[uint32]int64 {
	out := make(map[uint32]int64, len(s.lanes.sorted))
	for i, l := range s.lanes.sorted {
		out[s.lanes.classes[i]] = l.round
	}
	return out
}
