package core

import "sort"

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
type PDS struct {
	NopScheduler
	rt *Runtime

	// W is the pool size: the number of simultaneously processed
	// requests a barrier waits for.
	W int
	// RequireFullPool makes barriers wait until the pool has W members,
	// as the published algorithm does (needing dummy requests to avoid
	// starvation). When false (relaxed), a barrier fires as soon as every
	// *current* member has arrived.
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

	members      []*Thread // started, alive, unsuspended; admission order
	waitingStart []*Thread // admitted beyond W, waiting for a pool slot
	round        int64
}

// NewPDS returns a PDS scheduler with pool size w.
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
	// started marks that the thread has begun executing (joined a lane
	// pool at least once). Only ClassPDS sets it: threads still queued in
	// waitingStart must not bar the merge-barrier gate — see gateAdmits.
	started bool
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

func (s *PDS) joinPool(t *Thread) {
	s.members = append(s.members, t)
	sort.SliceStable(s.members, func(i, j int) bool {
		return s.members[i].admitIdx < s.members[j].admitIdx
	})
}

func (s *PDS) leavePool(t *Thread) {
	for i, u := range s.members {
		if u == t {
			s.members = append(s.members[:i], s.members[i+1:]...)
			return
		}
	}
}

// Admit starts the thread if a pool slot is free, else queues it.
func (s *PDS) Admit(t *Thread) {
	if len(s.members) < s.W {
		pdsOf(t).phase = pdsRunning
		s.joinPool(t)
		s.rt.StartThread(t)
		return
	}
	s.waitingStart = append(s.waitingStart, t)
}

// Acquire blocks the thread at the barrier.
func (s *PDS) Acquire(t *Thread, m *Mutex) {
	st := pdsOf(t)
	st.phase = pdsArrived
	st.need = m
	st.eligible = false
	s.tryBarrier()
}

// Release ends the critical section; the mutex goes to the next eligible
// arrival of this round, and the barrier is re-examined.
func (s *PDS) Release(t *Thread, m *Mutex) {
	st := pdsOf(t)
	if st.phase == pdsInCS {
		st.phase = pdsRunning
	}
	s.grantEligible()
	s.tryBarrier()
}

// WaitPark removes the waiting thread from the pool; its monitor was
// released, which may unblock an eligible arrival.
func (s *PDS) WaitPark(t *Thread, m *Mutex) {
	s.leavePool(t)
	s.refill()
	s.grantEligible()
	s.tryBarrier()
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
	s.joinPool(t)
	s.tryBarrier()
}

// NestedBegin removes the suspending thread from the pool for the
// duration of the call.
func (s *PDS) NestedBegin(t *Thread) {
	s.leavePool(t)
	s.refill()
	s.tryBarrier()
}

// NestedResume rejoins the pool as a running member.
func (s *PDS) NestedResume(t *Thread) {
	pdsOf(t).phase = pdsRunning
	s.joinPool(t)
	s.rt.ResumeNested(t)
}

// Exit frees the pool slot and admits the next queued request.
func (s *PDS) Exit(t *Thread) {
	s.leavePool(t)
	s.refill()
	s.grantEligible()
	s.tryBarrier()
}

// refill starts queued requests while pool slots are free.
func (s *PDS) refill() {
	for len(s.members) < s.W && len(s.waitingStart) > 0 {
		t := s.waitingStart[0]
		s.waitingStart = s.waitingStart[1:]
		pdsOf(t).phase = pdsRunning
		s.joinPool(t)
		s.rt.StartThread(t)
	}
}

// tryBarrier closes the round when every member has arrived, no critical
// section is open, and no eligible arrival is still waiting. All current
// arrivals become eligible and are granted in admission order.
func (s *PDS) tryBarrier() {
	if len(s.members) == 0 {
		return
	}
	if s.RequireFullPool && len(s.members) < s.W {
		return
	}
	for _, t := range s.members {
		st := pdsOf(t)
		if st.phase != pdsArrived {
			return // someone still running or in a critical section
		}
		if st.eligible {
			return // an eligible arrival is stuck on a held mutex
		}
	}
	s.round++
	s.rt.RecordBarrier(s.members[0], s.round)
	for _, t := range s.members {
		st := pdsOf(t)
		st.eligible = true
	}
	s.grantEligible()
}

// grantEligible grants free mutexes to eligible arrivals in admission
// order.
func (s *PDS) grantEligible() {
	for _, t := range s.members {
		st := pdsOf(t)
		if st.phase != pdsArrived || !st.eligible {
			continue
		}
		if st.need.Free() {
			m := st.need
			st.phase = pdsInCS
			st.need = nil
			st.eligible = false
			s.rt.Grant(t, m)
		}
	}
}

// Round returns the number of completed barrier rounds (diagnostics).
func (s *PDS) Round() int64 { return s.round }
