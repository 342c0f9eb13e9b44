// Package core implements the paper's primary contribution: an
// application-level deterministic multithreading runtime for replicated
// objects, together with the six scheduling strategies it surveys and
// proposes (SEQ, SAT, LSA, PDS, MAT, PMAT).
//
// # Model
//
// The runtime mirrors the system model of Sect. 2 of the paper:
//
//   - Synchronisation uses binary, reentrant mutexes with 1:1 condition
//     variables (Java monitors). "lock"/"unlock" correspond to entering
//     and leaving a synchronized block; "wait"/"notify" operate on the
//     same object.
//   - Every synchronisation operation is intercepted: the transformed
//     object code (package analysis / lang) calls into the runtime, which
//     consults the configured Scheduler under a single decision lock.
//     The order of decisions is therefore a total order, and a scheduler
//     is deterministic iff that order is a function of the totally
//     ordered input events (request admissions, nested-invocation
//     replies) alone.
//   - Threads are admitted in the total order of their requests. A thread
//     may suspend in a condition wait or a nested invocation; resumption
//     events likewise arrive in total order (the replication layer routes
//     nested replies through group communication).
//
// # Blocking discipline
//
// All blocking is performed on vclock Parkers so the whole system can run
// under the discrete-event virtual clock: grants collected during one
// decision are applied after the decision lock is released.
package core

import (
	"slices"

	"detmt/internal/ids"
)

// Mutex is a binary, reentrant mutex with an attached condition variable
// (the 1:1 Java relationship described in the paper's system model).
// All fields are guarded by the owning Runtime's decision lock; object
// code never touches a Mutex directly — it goes through Thread.Lock etc.
type Mutex struct {
	ID ids.MutexID

	owner *Thread // current holder, nil if free
	depth int     // reentrant hold count

	// waiters are threads blocked in Lock, in request order. Scheduler
	// policies decide when (and in which order) they are granted.
	waiters []*Thread

	// condWaiters are threads blocked in Wait on this monitor, in the
	// order they called Wait (which is a decision order, hence identical
	// across replicas).
	condWaiters []*Thread
}

// Owner returns the current holder (nil if free). Must be called under
// the runtime's decision lock; exposed for scheduler implementations.
func (m *Mutex) Owner() *Thread { return m.owner }

// HeldBy reports whether t currently owns the mutex.
func (m *Mutex) HeldBy(t *Thread) bool { return m.owner == t }

// Free reports whether the mutex is unowned.
func (m *Mutex) Free() bool { return m.owner == nil }

func (m *Mutex) removeWaiter(t *Thread) bool {
	for i, w := range m.waiters {
		if w == t {
			m.waiters = slices.Delete(m.waiters, i, i+1)
			return true
		}
	}
	return false
}

func (m *Mutex) removeCondWaiter(t *Thread) bool {
	for i, w := range m.condWaiters {
		if w == t {
			m.condWaiters = slices.Delete(m.condWaiters, i, i+1)
			return true
		}
	}
	return false
}
