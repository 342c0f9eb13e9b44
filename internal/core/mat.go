package core

import "slices"

// MAT is the multiple-active-threads algorithm (paper Sect. 3.4), an
// extension of SAT that allows real concurrency.
//
// All admitted threads run immediately, but they fall into two classes:
// the single *primary* thread may request locks; *secondary* threads may
// not — a secondary requesting a lock blocks until it has become primary,
// "no matter whether the lock that itself and the current primary will
// request conflict or not". The oldest secondary (by admission order)
// becomes primary when the current primary blocks, finishes, or issues a
// nested invocation, and no blocked former primary can continue running.
//
// Determinism note: primacy succession is strictly age-based (admission
// order) over the alive, unsuspended threads, so it never depends on the
// racy order in which concurrently running secondaries reach their lock
// requests — only on the totally ordered admission/suspension events.
//
// Two documented weaknesses of plain MAT (both quoted from the paper, and
// both measured by the Fig. 2 / Fig. 3 experiments):
//
//   - it does not recognise when a thread has released its last lock, so
//     a post-critical-section computation keeps the primary slot busy;
//   - a secondary blocks even if its lock conflicts with nothing the
//     primary will ever acquire.
//
// Setting UseLastLock enables the last-lock analysis of Sect. 4.1: as
// soon as the primary's bookkeeping table shows it has released its last
// lock, it is demoted and the slot handed over before it terminates
// (Fig. 2(b)). The full lock-prediction extension is the separate PMAT
// scheduler.
//
// Conflict classes (package earlysched) generalise the one primary slot
// to one per class: every class runs its own MAT *lane* — an independent
// primary slot with the same age-based succession — so provably
// non-conflicting requests overlap their critical sections across lanes,
// while requests within one class stay in the serial-MAT order. The
// paper's MAT is the case where every thread is in the global class 0
// (what Runtime.Submit admits): one lane, nothing to merge.
//
// The *merge barrier* reconciles the lanes with class 0, whose requests
// may lock anything:
//
//   - a non-global lane only promotes threads admitted before the oldest
//     live global-class thread (pre-barrier work drains, post-barrier
//     work waits);
//   - the global lane only promotes a thread when no older non-global
//     thread is still live (every lane has drained up to it).
//
// Under last-lock analysis a thread whose bookkeeping table proves it
// will never lock again stops barring either side — the lane handover of
// Fig. 2(b), applied across classes.
//
// Lanes are scanned in sorted class order and every decision happens
// under the runtime's decision lock at deterministic virtual instants, so
// the schedule is a pure function of the stamped admission order and
// classes. For suspension-free workloads the per-mutex grant order
// provably equals the one-lane order (requests grouped by thread in
// admission order restricted to each mutex's lockers), which is what the
// hash-equivalence tests in package replica pin down.
type MAT struct {
	rt *Runtime

	// UseLastLock demotes a lane's primary as soon as its bookkeeping
	// table proves it will never lock again, and stops such a thread
	// barring the merge barrier (requires static analysis info).
	UseLastLock bool

	lanes laneSet[matLane]
	classCounters
}

type matLane struct {
	primary *Thread
	// blockedPrimaries are threads that blocked on a mutex while being
	// primary of this lane, FIFO by suspension time. A resumable one (its
	// mutex became free) is preferred when the primary slot frees.
	blockedPrimaries []*Thread
}

// NewMAT returns a multiple-active-threads scheduler. withLastLock
// enables the last-lock optimisation of Sect. 4.1.
func NewMAT(withLastLock bool) *MAT { return &MAT{UseLastLock: withLastLock} }

type matState struct {
	need      *Mutex // pending lock request (blocked secondary or primary)
	suspended bool   // in a nested invocation or condition wait
	blockedP  bool   // member of its lane's blockedPrimaries
}

func matOf(t *Thread) *matState {
	if t.sched == nil {
		t.sched = &matState{}
	}
	return t.sched.(*matState)
}

// Name implements Scheduler.
func (s *MAT) Name() string {
	if s.UseLastLock {
		return "MAT+LLA"
	}
	return "MAT"
}

// Attach implements Scheduler.
func (s *MAT) Attach(rt *Runtime) { s.rt = rt }

// ClassStats implements ClassScheduler. Decision lock held.
func (s *MAT) ClassStats() ClassStats { return s.snapshot(s.rt) }

// Admit starts the thread immediately; the first thread of an idle lane
// claims its primary slot.
func (s *MAT) Admit(t *Thread) {
	matOf(t)
	s.admitted(t)
	s.lanes.of(t.Class()) // materialise the lane
	s.rt.StartThread(t)
	s.promoteAll()
}

// Acquire grants to the lane's primary if the mutex is free (a held mutex
// means the owner is suspended inside a synchronized block; the primary
// then becomes a blocked primary). A secondary simply blocks until its
// lane promotes it.
func (s *MAT) Acquire(t *Thread, m *Mutex) {
	st := matOf(t)
	st.need = m
	l := s.lanes.of(t.Class())
	if l.primary == t {
		if m.Free() {
			st.need = nil
			s.rt.Grant(t, m)
			return
		}
		l.primary = nil
		st.blockedP = true
		l.blockedPrimaries = append(l.blockedPrimaries, t)
	}
	s.promoteAll()
}

// Release hands the slot over early when last-lock analysis proves the
// primary done with locking (Fig. 2(b)); otherwise the primary keeps the
// slot through its final computation (the plain-MAT weakness). Every lane
// is re-examined: the released mutex may unblock this lane or the global
// one, and the releaser may have stopped barring the merge barrier.
func (s *MAT) Release(t *Thread, m *Mutex) {
	if s.UseLastLock && t.Table().AllLocksDone() {
		s.demote(t)
	}
	s.promoteAll()
}

// WaitPark suspends the thread (releasing its monitor) and hands its
// lane's primary slot over. The suspended thread keeps barring the merge
// barrier — it may still lock after resuming.
func (s *MAT) WaitPark(t *Thread, m *Mutex) {
	matOf(t).suspended = true
	s.demote(t)
	s.promoteAll()
}

// WaitWake turns the notified thread into a blocked secondary that needs
// its monitor back; reacquisition requires the primary slot like any
// other lock (documented completion of the paper's rules).
func (s *MAT) WaitWake(t *Thread, m *Mutex) {
	st := matOf(t)
	st.suspended = false
	st.need = m
	s.promoteAll()
}

// NestedBegin suspends the thread for the duration of the call and frees
// its lane's primary slot.
func (s *MAT) NestedBegin(t *Thread) {
	matOf(t).suspended = true
	s.demote(t)
	s.promoteAll()
}

// NestedResume lets the thread continue immediately — as a secondary; it
// competes for its lane's primary slot again at its next lock request.
func (s *MAT) NestedResume(t *Thread) {
	matOf(t).suspended = false
	s.rt.ResumeNested(t)
	s.promoteAll()
}

// Exit frees the primary slot if the finished thread held it and
// re-examines every lane: an exit is what clears the merge barrier.
func (s *MAT) Exit(t *Thread) {
	s.demote(t)
	if matOf(t).blockedP {
		s.removeBlockedPrimary(t)
	}
	s.exited(t)
	s.promoteAll()
}

// PredictionChanged implements the last-lock optimisation: the moment the
// primary's table proves all locks done, the slot is handed over even
// though the thread keeps running its final computation, and the thread
// stops barring the merge barrier.
func (s *MAT) PredictionChanged(t *Thread) {
	if !s.UseLastLock {
		return
	}
	if t.Table().AllLocksDone() {
		s.demote(t)
	}
	s.promoteAll()
}

func (s *MAT) demote(t *Thread) {
	l := s.lanes.of(t.Class())
	if l.primary == t {
		l.primary = nil
	}
}

func (s *MAT) setPrimary(l *matLane, t *Thread) {
	l.primary = t
	s.rt.RecordPromote(t)
}

func (s *MAT) removeBlockedPrimary(t *Thread) {
	matOf(t).blockedP = false
	l := s.lanes.of(t.Class())
	for i, u := range l.blockedPrimaries {
		if u == t {
			l.blockedPrimaries = slices.Delete(l.blockedPrimaries, i, i+1)
			return
		}
	}
}

// promoteAll fills free primary slots lane by lane, in sorted class
// order. Lane decisions are independent — distinct classes have disjoint
// footprints, and the global lane only runs when the others have drained
// — so the sweep order cannot change any grant, only make it.
func (s *MAT) promoteAll() {
	for i, l := range s.lanes.sorted {
		s.promoteLane(s.lanes.classes[i], l)
	}
}

// neverLocksAgain reports whether last-lock analysis proves t can never
// request a lock again: such a thread neither bars the merge barrier nor
// reclaims a primary slot (Fig. 2(b)).
func (s *MAT) neverLocksAgain(t *Thread) bool {
	return s.UseLastLock && matOf(t).need == nil && t.Table().AllLocksDone()
}

// promoteLane fills lane c's primary slot:
//
//  1. a blocked former primary of the lane whose mutex is now free (FIFO
//     by suspension) resumes with its lock granted (it predates every
//     live global thread by construction, so the barrier cannot bar it);
//  2. otherwise the oldest alive, unsuspended thread of the class that
//     the merge barrier admits and that is not already a blocked primary
//     becomes primary — if it is blocked on a held mutex it joins the
//     blocked primaries and the scan cascades.
func (s *MAT) promoteLane(c uint32, l *matLane) {
	for l.primary == nil {
		for i, t := range l.blockedPrimaries {
			m := matOf(t).need
			if m.Free() {
				l.blockedPrimaries = slices.Delete(l.blockedPrimaries, i, i+1)
				st := matOf(t)
				st.blockedP = false
				st.need = nil
				s.setPrimary(l, t)
				s.rt.Grant(t, m)
				return
			}
		}
		var cand *Thread
		threads := s.rt.ThreadsByAdmission() // admission order, no snapshot copy
		for i, t := range threads {
			st := matOf(t)
			tc := t.Class()
			if s.neverLocksAgain(t) {
				continue
			}
			// Merge barrier: a live global thread fences every younger
			// thread out of the non-global lanes, and a live non-global
			// thread fences every younger thread out of the global lane.
			if (c == 0) != (tc == 0) {
				if s.laneStalledBehind(c, threads[i+1:]) {
					s.mergeStalls++
				}
				break
			}
			if tc != c {
				continue // another lane's thread
			}
			if st.suspended || st.blockedP {
				continue
			}
			cand = t
			break
		}
		if cand == nil {
			return
		}
		st := matOf(cand)
		if st.need == nil {
			// A running thread: it simply owns the slot now and may lock
			// at will.
			s.setPrimary(l, cand)
			return
		}
		if st.need.Free() {
			m := st.need
			st.need = nil
			s.setPrimary(l, cand)
			s.rt.Grant(cand, m)
			return
		}
		// Its mutex is held by a suspended thread of the same lane: it
		// becomes a blocked primary and the scan continues with the
		// next-oldest thread.
		st.blockedP = true
		l.blockedPrimaries = append(l.blockedPrimaries, cand)
	}
}

// laneStalledBehind reports whether the tail of the admission order
// (past the barrier thread) still holds a runnable candidate for lane c —
// i.e. whether this barrier break is an actual stall.
func (s *MAT) laneStalledBehind(c uint32, tail []*Thread) bool {
	for _, t := range tail {
		st := matOf(t)
		if t.Class() == c && !st.suspended && !st.blockedP && !s.neverLocksAgain(t) {
			return true
		}
	}
	return false
}
