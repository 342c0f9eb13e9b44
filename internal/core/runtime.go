package core

import (
	"fmt"
	"sync"
	"time"

	"detmt/internal/ids"
	"detmt/internal/lockpred"
	"detmt/internal/trace"
	"detmt/internal/vclock"
)

// NestedHandler performs a nested invocation on behalf of a suspended
// thread. It runs in its own managed goroutine and must eventually call
// rt.NestedResume(t, reply). The replication layer installs a handler
// that lets exactly one replica perform the external call and spreads the
// reply in total order; the default handler resumes immediately with a
// nil reply.
type NestedHandler func(rt *Runtime, t *Thread, arg interface{})

// Options configures a Runtime.
type Options struct {
	// Clock is the time substrate: a virtual clock, paced against wall
	// time in a deployment. Required.
	Clock *vclock.Virtual
	// Scheduler is the deterministic scheduling strategy. Required.
	Scheduler Scheduler
	// Static is the static-analysis result used to initialise per-thread
	// bookkeeping tables. May be nil (threads are then never predicted).
	Static *lockpred.StaticInfo
	// Trace receives all scheduler events. A fresh trace is created if
	// nil.
	Trace *trace.Trace
	// Nested handles nested invocations. When nil, the runtime simulates
	// the external call itself: the thread resumes after NestedDelay with
	// its own argument echoed as the reply, one clock event (see
	// scheduleEvent).
	Nested NestedHandler
	// NestedDelay is the simulated duration of a nested invocation when
	// Nested is nil.
	NestedDelay time.Duration
}

// Runtime hosts one replica's deterministic thread scheduler: the mutex
// table, the managed threads, and the decision lock through which every
// synchronisation operation is serialised.
type Runtime struct {
	clock         *vclock.Virtual
	sched         Scheduler
	static        *lockpred.StaticInfo
	tr            *trace.Trace
	nestedHandler NestedHandler
	nestedDelay   time.Duration

	mu          sync.Mutex // decision lock
	threads     map[ids.ThreadID]*Thread
	order       []*Thread // live threads in admission order
	mutexes     map[ids.MutexID]*Mutex
	nextAdmit   uint64
	pendingWake *wakeBuf  // threads to unpark when the decision completes
	pickScratch []*Thread // notify picked-waiters scratch (decision lock held)
}

// wakeBuf collects the threads a decision made runnable. Buffers are
// pooled: the common decision wakes zero or one thread, and recycling
// the slice keeps the steady-state decision path allocation-free.
type wakeBuf struct{ ts []*Thread }

var wakePool = sync.Pool{New: func() interface{} { return new(wakeBuf) }}

// NewRuntime builds a runtime and attaches its scheduler.
func NewRuntime(o Options) *Runtime {
	if o.Clock == nil {
		panic("core: Options.Clock is required")
	}
	if o.Scheduler == nil {
		panic("core: Options.Scheduler is required")
	}
	if o.Trace == nil {
		o.Trace = trace.New()
	}
	rt := &Runtime{
		clock:         o.Clock,
		sched:         o.Scheduler,
		static:        o.Static,
		tr:            o.Trace,
		nestedHandler: o.Nested,
		nestedDelay:   o.NestedDelay,
		threads:       make(map[ids.ThreadID]*Thread),
		mutexes:       make(map[ids.MutexID]*Mutex),
	}
	rt.sched.Attach(rt)
	return rt
}

// Clock returns the runtime's clock.
func (rt *Runtime) Clock() *vclock.Virtual { return rt.clock }

// Trace returns the runtime's event trace.
func (rt *Runtime) Trace() *trace.Trace { return rt.tr }

// Scheduler returns the attached scheduler.
func (rt *Runtime) Scheduler() Scheduler { return rt.sched }

// enter runs fn under the decision lock, then delivers all wakeups the
// decision produced. It reports whether self (if non-nil) ended the
// decision blocked and must park. A panic in fn (an invariant violation
// such as unlocking an unowned mutex) releases the decision lock before
// propagating, so the runtime stays usable for the surviving threads.
func (rt *Runtime) enter(self *Thread, fn func()) (parkSelf bool) {
	var wake *wakeBuf
	func() {
		rt.mu.Lock()
		defer func() {
			wake = rt.pendingWake
			rt.pendingWake = nil
			parkSelf = self != nil && self.waiting
			rt.mu.Unlock()
		}()
		fn()
	}()
	if wake != nil {
		for i, w := range wake.ts {
			if w != self {
				w.parker.Unpark()
			}
			wake.ts[i] = nil
		}
		wake.ts = wake.ts[:0]
		wakePool.Put(wake)
	}
	return parkSelf
}

// record stamps and stores a trace event. Decision lock must be held.
func (rt *Runtime) record(t *Thread, k trace.Kind, sid ids.SyncID, mid ids.MutexID, arg int64) {
	rt.tr.Record(trace.Event{
		At:     rt.clock.Now(),
		Thread: t.ID,
		Kind:   k,
		Sync:   sid,
		Mutex:  mid,
		Arg:    arg,
	})
}

// MutexAt returns (creating on demand) the mutex with the given id.
// Safe to call under the decision lock only; external callers use
// Thread methods instead.
func (rt *Runtime) MutexAt(mid ids.MutexID) *Mutex {
	m := rt.mutexes[mid]
	if m == nil {
		m = &Mutex{ID: mid}
		rt.mutexes[mid] = m
	}
	return m
}

// Submit admits a new request thread, in total order: callers must invoke
// Submit in the agreed request order on every replica. body runs once the
// scheduler starts the thread; done (optional) runs after the thread
// exited. The thread lands in the conservative global conflict class.
func (rt *Runtime) Submit(tid ids.ThreadID, method ids.MethodID, body func(*Thread), done func()) *Thread {
	return rt.SubmitClassed(tid, method, 0, body, done)
}

// SubmitClassed is Submit with an explicit conflict class (package
// earlysched): MAT and PDS dispatch threads of distinct non-zero classes
// to concurrent lanes, class 0 is the global class that serialises
// against everything. SEQ, SAT, PMAT and LSA ignore the class.
func (rt *Runtime) SubmitClassed(tid ids.ThreadID, method ids.MethodID, class uint32, body func(*Thread), done func()) *Thread {
	t := &Thread{
		ID:     tid,
		Method: method,
		rt:     rt,
		class:  class,
		table:  lockpred.NewThreadTable(rt.static.Method(method)),
	}
	t.held = t.heldBuf[:0]
	// Ordered by thread id so that same-instant wakeups (e.g. two
	// computations finishing together) always fire in id order. The
	// numbered label avoids formatting a name on the submit path; deadlock
	// dumps render it as "thread <id>" on demand.
	t.parker = rt.clock.NewOrderedParkerNum("thread", uint64(tid), uint64(tid))
	rt.enter(nil, func() {
		if _, dup := rt.threads[tid]; dup {
			panic(fmt.Sprintf("core: duplicate thread id %s", tid))
		}
		t.admitIdx = rt.nextAdmit
		rt.nextAdmit++
		rt.threads[tid] = t
		rt.order = append(rt.order, t)
		rt.record(t, trace.KindAdmit, ids.NoSync, ids.NoMutex, 0)
		t.waiting = true
		rt.sched.Admit(t)
	})
	rt.clock.Go(func() {
		t.parker.Park() // until the scheduler starts the thread
		body(t)
		rt.exitThread(t)
		if done != nil {
			done()
		}
		// The scheduler wakes only waiting threads, and t waits for nothing
		// more: no Unpark can still be on its way, so the parker goes back
		// for the next thread to reuse. done may submit that thread itself,
		// hence not before done returns.
		rt.clock.ReleaseParker(t.parker)
		t.parker = nil
	})
	return t
}

// ---- decision helpers for schedulers (decision lock held) ----

// wake marks t runnable; the wakeup is delivered when the current
// decision completes.
func (rt *Runtime) wake(t *Thread) {
	t.waiting = false
	if rt.pendingWake == nil {
		rt.pendingWake = wakePool.Get().(*wakeBuf)
	}
	rt.pendingWake.ts = append(rt.pendingWake.ts, t)
}

// StartThread lets an admitted thread begin executing its body.
func (rt *Runtime) StartThread(t *Thread) {
	rt.record(t, trace.KindStart, ids.NoSync, ids.NoMutex, 0)
	rt.wake(t)
}

// ResumeNested lets a thread whose nested reply has arrived continue.
func (rt *Runtime) ResumeNested(t *Thread) {
	rt.record(t, trace.KindNestedEnd, ids.NoSync, ids.NoMutex, 0)
	rt.wake(t)
}

// RecordPromote notes that t became the (MAT-family) primary thread or,
// for PDS, that a barrier round opened (arg = round). Decision lock held.
func (rt *Runtime) RecordPromote(t *Thread) {
	rt.record(t, trace.KindPromote, ids.NoSync, ids.NoMutex, 0)
}

// RecordBarrier notes that a PDS round opened. Decision lock held.
func (rt *Runtime) RecordBarrier(t *Thread, round int64) {
	rt.record(t, trace.KindBarrier, ids.NoSync, ids.NoMutex, round)
}

// Grant hands mutex m to thread t. If t is reacquiring after a condition
// wait, its saved reentrancy depth is restored; otherwise this is a fresh
// acquisition under t's in-flight syncid. The mutex must be free.
func (rt *Runtime) Grant(t *Thread, m *Mutex) {
	if m.owner != nil {
		panic(fmt.Sprintf("core: grant of held mutex %s (owner %s, grantee %s)", m.ID, m.owner.ID, t.ID))
	}
	m.removeWaiter(t)
	m.owner = t
	t.held = append(t.held, m)
	if t.waitMutex == m {
		m.depth = t.savedDepth
		t.savedDepth = 0
		t.waitMutex = nil
		t.table.OnWaitEnd(m.ID)
		var notifiedArg int64
		if t.notified {
			notifiedArg = 1
		}
		rt.record(t, trace.KindWaitEnd, ids.NoSync, m.ID, notifiedArg)
	} else {
		m.depth = 1
		t.table.OnLock(t.pendingSync, m.ID)
		rt.record(t, trace.KindLockAcq, t.pendingSync, m.ID, 0)
		rt.predictionMaybeChanged(t)
	}
	rt.wake(t)
}

// predictionMaybeChanged refreshes t's predicted flag, records flips, and
// notifies the scheduler that t's future-lock answers changed.
func (rt *Runtime) predictionMaybeChanged(t *Thread) {
	p := t.table.Predicted()
	if p && !t.pred {
		t.pred = true
		rt.record(t, trace.KindPredicted, ids.NoSync, ids.NoMutex, 0)
	} else if !p {
		t.pred = false
	}
	rt.sched.PredictionChanged(t)
}

// Threads returns a snapshot of live threads ordered by admission.
// Decision lock must be held (scheduler use) — or the runtime quiescent.
func (rt *Runtime) Threads() []*Thread {
	out := make([]*Thread, len(rt.order))
	copy(out, rt.order)
	return out
}

// ThreadsByAdmission returns the live threads in admission order,
// without copying: the returned slice is the runtime's own bookkeeping
// and must only be read under the decision lock, never retained or
// mutated. Schedulers use it on their per-decision scan paths (e.g.
// MAT's promotion scan) where a snapshot copy per decision would be the
// dominant allocation.
func (rt *Runtime) ThreadsByAdmission() []*Thread { return rt.order }

// ---- thread-facing operations ----

func (rt *Runtime) lock(t *Thread, sid ids.SyncID, mid ids.MutexID) {
	if rt.enter(t, func() {
		m := rt.MutexAt(mid)
		if m.owner == t { // reentrant
			m.depth++
			t.table.OnLock(sid, mid)
			rt.record(t, trace.KindLockAcq, sid, mid, int64(m.depth))
			return
		}
		rt.record(t, trace.KindLockReq, sid, mid, 0)
		t.pendingSync = sid
		t.waiting = true
		m.waiters = append(m.waiters, t)
		rt.sched.Acquire(t, m)
	}) {
		t.parker.Park()
	}
}

func (rt *Runtime) unlock(t *Thread, sid ids.SyncID, mid ids.MutexID) {
	rt.enter(t, func() {
		m := rt.MutexAt(mid)
		if m.owner != t {
			panic(fmt.Sprintf("core: %s unlocks %s it does not own", t.ID, mid))
		}
		m.depth--
		if m.depth > 0 {
			t.table.OnUnlock(sid, mid)
			return
		}
		m.owner = nil
		t.heldRemove(m)
		t.table.OnUnlock(sid, mid)
		rt.record(t, trace.KindLockRel, sid, mid, 0)
		rt.sched.Release(t, m)
		rt.predictionMaybeChanged(t)
	})
}

func (rt *Runtime) wait(t *Thread, mid ids.MutexID, timeout time.Duration) bool {
	var m *Mutex
	rt.enter(t, func() {
		m = rt.MutexAt(mid)
		if m.owner != t {
			panic(fmt.Sprintf("core: %s waits on %s it does not own", t.ID, mid))
		}
		rt.record(t, trace.KindWaitBegin, ids.NoSync, mid, 0)
		t.savedDepth = m.depth
		t.waitMutex = m
		t.notified = false
		m.owner = nil
		m.depth = 0
		t.heldRemove(m)
		t.table.OnWaitBegin(mid)
		m.condWaiters = append(m.condWaiters, t)
		t.waiting = true
		rt.sched.WaitPark(t, m)
	})
	if timeout > 0 {
		rt.scheduleEvent(rt.clock.Now()+timeout, t, eventTimeout, func() { rt.waitTimeout(t, m) })
	}
	t.parker.Park()
	return t.notified
}

// waitTimeout fires when a timed wait expires; if the thread is still in
// the condition queue it is woken with notified=false.
func (rt *Runtime) waitTimeout(t *Thread, m *Mutex) {
	rt.enter(nil, func() {
		if m.removeCondWaiter(t) {
			t.notified = false
			rt.sched.WaitWake(t, m)
		}
	})
}

func (rt *Runtime) notify(t *Thread, mid ids.MutexID, all bool) {
	rt.enter(t, func() {
		m := rt.MutexAt(mid)
		if m.owner != t {
			panic(fmt.Sprintf("core: %s notifies %s it does not own", t.ID, mid))
		}
		// The default picks reuse a runtime-owned scratch slice (decision
		// lock held): notify is a per-decision operation and must not
		// allocate in steady state.
		picked := rt.pickScratch[:0]
		if picker, ok := rt.sched.(CondPicker); ok {
			picked = append(picked, picker.PickCondWaiters(m, all)...)
		} else if all {
			picked = append(picked, m.condWaiters...)
		} else if len(m.condWaiters) > 0 {
			picked = append(picked, m.condWaiters[0])
		}
		kind := trace.KindNotify
		if all {
			kind = trace.KindNotifyAll
		}
		rt.record(t, kind, ids.NoSync, mid, int64(len(picked)))
		for i, w := range picked {
			if !m.removeCondWaiter(w) {
				panic("core: CondPicker returned a thread not in the condition queue")
			}
			w.notified = true
			rt.sched.WaitWake(w, m)
			picked[i] = nil // scratch must not pin threads between notifies
		}
		rt.pickScratch = picked[:0]
	})
}

func (rt *Runtime) compute(t *Thread, d time.Duration) {
	rt.enter(t, func() {
		rt.record(t, trace.KindCompute, ids.NoSync, ids.NoMutex, int64(d/time.Microsecond))
	})
	if d <= 0 {
		return
	}
	// Sleep on the thread's own (id-ordered) parker so that computations
	// ending at the same instant resume in thread-id order. The scheduler
	// never unparks a thread that is not waiting, so the parker is free.
	t.parker.ParkTimeout(d)
}

func (rt *Runtime) nested(t *Thread, arg interface{}) interface{} {
	rt.enter(t, func() {
		rt.record(t, trace.KindNestedBegin, ids.NoSync, ids.NoMutex, 0)
		t.waiting = true
		rt.sched.NestedBegin(t)
	})
	if h := rt.nestedHandler; h != nil {
		rt.clock.Go(func() { h(rt, t, arg) })
	} else {
		// Simulated external call: echo the argument after NestedDelay.
		rt.scheduleEvent(rt.clock.Now()+rt.nestedDelay, t, eventResume, func() { rt.NestedResume(t, arg) })
	}
	t.parker.Park()
	return t.nestedReply
}

// ScheduleNestedResume delivers an externally produced nested reply as a
// clock event at the current instant (see scheduleEvent), so that replies
// racing with running threads are serialised identically on every
// replica. The replication layer should prefer this over calling
// NestedResume directly.
func (rt *Runtime) ScheduleNestedResume(t *Thread, reply interface{}) {
	rt.scheduleEvent(0, t, eventResume, func() { rt.NestedResume(t, reply) })
}

// The kinds of runtime event: for one thread at one instant a nested
// resume runs before a wait timeout.
const (
	eventResume  = 0
	eventTimeout = 1
)

// eventRank is the rank of runtime events among same-instant timers: the
// last, after thread timers, sleeps, link arrivals, deliveries and the
// replay feeder (DESIGN §6 lists every rank).
const eventRank = ^uint64(0)

// eventSlot orders runtime events at one instant by thread id, then kind.
// The packing keeps that order for every thread id below 2^63: request
// thread ids are client<<32|seq with client ids below 2^22 (the largest
// shipped client base is 1<<21), so below 2^54, and dummy thread ids are
// 1<<62|seq, below 2^63.
func eventSlot(tid ids.ThreadID, kind uint64) uint64 { return uint64(tid)<<1 | kind }

// scheduleEvent runs fn at virtual instant at (at or before now: now) as
// one clock event keyed (at, eventRank, eventSlot(t, kind), call order).
// A clock event fires only once every runnable goroutine has blocked, so
// each event's cascade settles before the next, same-instant ones
// included, and the order of a nested reply or a timeout against running
// threads is the same on every replica.
func (rt *Runtime) scheduleEvent(at time.Duration, t *Thread, kind uint64, fn func()) {
	rt.clock.ScheduleSlot(at, eventRank, eventSlot(t.ID, kind), fn)
}

// External runs fn under the decision lock and delivers any wakeups it
// produces. The replication layer uses it to inject scheduler-visible
// events that do not originate from a managed thread (e.g. feeding
// leader decisions to an LSA follower).
func (rt *Runtime) External(fn func()) { rt.enter(nil, fn) }

// NestedResume delivers the reply of t's nested invocation. The
// replication layer calls it in total order; the scheduler decides when t
// actually continues.
func (rt *Runtime) NestedResume(t *Thread, reply interface{}) {
	rt.enter(nil, func() {
		t.nestedReply = reply
		rt.sched.NestedResume(t)
	})
}

func (rt *Runtime) exitThread(t *Thread) {
	rt.enter(t, func() {
		if len(t.held) > 0 {
			panic(fmt.Sprintf("core: %s exiting while holding %d lock(s)", t.ID, len(t.held)))
		}
		t.exited = true
		delete(rt.threads, t.ID)
		for i, x := range rt.order {
			if x == t {
				n := copy(rt.order[i:], rt.order[i+1:])
				rt.order[i+n] = nil
				rt.order = rt.order[:i+n]
				break
			}
		}
		rt.record(t, trace.KindExit, ids.NoSync, ids.NoMutex, 0)
		rt.sched.Exit(t)
		// The scheduler has let go of t, and the thread locks nothing
		// more: its table goes back for the next thread to reuse.
		t.table.Release()
		t.table = nil
	})
}

func (rt *Runtime) lockInfo(t *Thread, sid ids.SyncID, mid ids.MutexID) {
	rt.enter(t, func() {
		rt.record(t, trace.KindLockInfo, sid, mid, 0)
		t.table.LockInfo(sid, mid)
		rt.predictionMaybeChanged(t)
	})
}

func (rt *Runtime) ignore(t *Thread, sid ids.SyncID) {
	rt.enter(t, func() {
		rt.record(t, trace.KindIgnore, sid, ids.NoMutex, 0)
		t.table.Ignore(sid)
		rt.predictionMaybeChanged(t)
	})
}

func (rt *Runtime) loopDone(t *Thread, sid ids.SyncID) {
	rt.enter(t, func() {
		t.table.LoopDone(sid)
		rt.predictionMaybeChanged(t)
	})
}
