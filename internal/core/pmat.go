package core

import "slices"

// PMAT is the predicted multiple-active-threads scheduler the paper
// proposes in Sect. 4.3 — the extension of MAT that consumes the
// bookkeeping module's lock predictions.
//
// Instead of a single primary, PMAT keeps a queue of active threads that
// are "in principle equal", ordered by admission. A thread t is granted a
// lock on mutex m only when
//
//   - m is free, and
//   - every thread preceding t in the queue is *predicted* (its complete
//     future lock set is known), and
//   - none of those predecessors may lock m now or in the future.
//
// Otherwise t is suspended. Suspended lock requests are re-examined on
// exactly the events the paper lists: a conflicting thread releases the
// requested mutex, a thread is removed from the queue, or the first
// unpredicted thread becomes predicted (we re-scan on every prediction
// change, which subsumes the paper's "t_u becomes predicted" event).
//
// The paper leaves open how PMAT should treat wait and nested
// invocations. This implementation uses the completion documented in
// DESIGN.md: a suspended thread keeps its queue position and its
// bookkeeping table. Its possible future acquisitions are a subset of the
// table's remaining entries, so the non-conflict check stays sound, and
// successors keep running exactly when they provably cannot interfere.
type PMAT struct {
	rt    *Runtime
	queue []*Thread // active threads in admission order
}

// NewPMAT returns a predicted-MAT scheduler. It requires the runtime to
// be configured with static analysis info; threads without a bookkeeping
// table are treated as never predicted (safe but maximally pessimistic).
func NewPMAT() *PMAT { return &PMAT{} }

type pmatState struct {
	need *Mutex // pending lock request, nil if running
}

func pmatOf(t *Thread) *pmatState {
	if t.sched == nil {
		t.sched = &pmatState{}
	}
	return t.sched.(*pmatState)
}

// Name implements Scheduler.
func (s *PMAT) Name() string { return "PMAT" }

// Attach implements Scheduler.
func (s *PMAT) Attach(rt *Runtime) { s.rt = rt }

// Admit appends the thread to the active queue and starts it.
func (s *PMAT) Admit(t *Thread) {
	s.queue = append(s.queue, t)
	s.rt.StartThread(t)
}

// Acquire grants immediately when the eligibility predicate holds,
// otherwise parks the request.
func (s *PMAT) Acquire(t *Thread, m *Mutex) {
	if s.eligible(t, m) {
		s.rt.Grant(t, m)
		return
	}
	pmatOf(t).need = m
}

// eligible is the paper's grant condition.
func (s *PMAT) eligible(t *Thread, m *Mutex) bool {
	if !m.Free() {
		return false
	}
	for _, u := range s.queue {
		if u == t {
			return true
		}
		if !u.Table().Predicted() {
			return false
		}
		if u.Table().MayLock(m.ID) {
			return false
		}
	}
	// t not in the queue (already exited?) — be conservative.
	return false
}

// rescan re-examines all parked lock requests in queue order, granting
// every request that became eligible. Each grant can change eligibility
// (the mutex is taken), so the scan evaluates against current state.
func (s *PMAT) rescan() {
	for _, t := range s.queue {
		st := pmatOf(t)
		if st.need == nil {
			continue
		}
		if s.eligible(t, st.need) {
			m := st.need
			st.need = nil
			s.rt.Grant(t, m)
		}
	}
}

// Release re-checks parked requests (paper event: "a thread conflicting
// with t releases the mutex t is waiting for" — and releasing also shrank
// the releaser's future lock set).
func (s *PMAT) Release(*Thread, *Mutex) { s.rescan() }

// WaitPark released the monitor; successors may now be eligible. The
// waiting thread keeps its queue position (documented completion).
func (s *PMAT) WaitPark(*Thread, *Mutex) { s.rescan() }

// WaitWake turns the notified thread's monitor reacquisition into an
// ordinary parked request.
func (s *PMAT) WaitWake(t *Thread, m *Mutex) {
	if s.eligible(t, m) {
		s.rt.Grant(t, m)
		return
	}
	if !mutexHasWaiter(m, t) {
		m.waiters = append(m.waiters, t)
	}
	pmatOf(t).need = m
}

// NestedBegin keeps the thread's queue position; nothing to re-check
// (its future lock set did not change).
func (s *PMAT) NestedBegin(*Thread) {}

// NestedResume lets the thread continue immediately; lock requests remain
// gated by the eligibility predicate.
func (s *PMAT) NestedResume(t *Thread) { s.rt.ResumeNested(t) }

// Exit removes the thread from the queue (paper event: "a thread
// conflicting with t is removed from the list" / "t_u is removed").
func (s *PMAT) Exit(t *Thread) {
	for i, u := range s.queue {
		if u == t {
			s.queue = slices.Delete(s.queue, i, i+1)
			break
		}
	}
	s.rescan()
}

// PredictionChanged re-checks parked requests (paper event: "t_u becomes
// predicted"; announcements and loop exits also narrow MayLock).
func (s *PMAT) PredictionChanged(*Thread) { s.rescan() }
