// Package lockpred implements the paper's bookkeeping module (Sect. 4.3).
//
// Static code analysis (package analysis) produces, per start method, the
// list of synchronized blocks (syncids) any execution path may traverse.
// At runtime every thread gets a private copy of that list — its syncid
// table — which injected calls keep up to date:
//
//	LockInfo(sid, m)  — the lock parameter of sid was assigned for the
//	                    last time; the future mutex is now known (announced)
//	Ignore(sid)       — control flow took a path that skips sid
//	OnLock / OnUnlock — the transformed lock/unlock calls themselves
//	LoopDone(sid)     — a lock-in-loop was passed (Sect. 4.4)
//
// A thread is *predicted* when the mutex of every entry still ahead of it
// is known (Sect. 4.2): no entry is pending and no variable-mutex loop is
// still open. The scheduler's decision module queries:
//
//	Predicted()     — may others rely on this thread's future lock set?
//	MayLock(m)      — could this thread still lock m in the future?
//	AllLocksDone()  — has the thread released its last lock (Sect. 4.1)?
package lockpred

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"detmt/internal/ids"
)

// LoopKind classifies how a synchronized block relates to loops
// (paper Sect. 4.4).
type LoopKind int

const (
	// LoopNone: the block is not inside a loop; it executes at most once
	// per path.
	LoopNone LoopKind = iota
	// LoopFixed: the block is inside a loop but its lock parameter is
	// assigned before the loop and not inside it, so every iteration
	// locks the same mutex. The mutex must be respected until the loop
	// finishes.
	LoopFixed
	// LoopVariable: the block is inside a loop and its parameter may
	// change per iteration; neither count nor mutexes are known ahead,
	// so the thread is only predicted after passing the loop.
	LoopVariable
)

func (k LoopKind) String() string {
	switch k {
	case LoopNone:
		return "none"
	case LoopFixed:
		return "fixed-loop"
	case LoopVariable:
		return "variable-loop"
	}
	return fmt.Sprintf("loopkind(%d)", int(k))
}

// StaticEntry describes one synchronized block of a start method.
type StaticEntry struct {
	Sync ids.SyncID
	Loop LoopKind
	// Spontaneous marks parameters whose last assignment cannot be found
	// statically (fields, globals, call results — paper Sect. 4.2). The
	// entry can never be announced ahead of time; it is resolved at the
	// moment of locking.
	Spontaneous bool
}

// MethodInfo is the static analysis result for one start method.
type MethodInfo struct {
	Method  ids.MethodID
	Entries []StaticEntry
}

// StaticInfo aggregates the analysis results for a whole object
// implementation. The scheduler is initialised with it at start-up.
type StaticInfo struct {
	methods map[ids.MethodID]*MethodInfo
}

// NewStaticInfo builds a StaticInfo from per-method results. Duplicate
// syncids within one method are allowed (e.g. the same block reachable on
// several paths contributes one entry).
func NewStaticInfo(methods ...*MethodInfo) *StaticInfo {
	si := &StaticInfo{methods: make(map[ids.MethodID]*MethodInfo, len(methods))}
	for _, m := range methods {
		si.methods[m.Method] = m
	}
	return si
}

// Add registers (or replaces) the info for one method.
func (si *StaticInfo) Add(m *MethodInfo) { si.methods[m.Method] = m }

// Method returns the info for one start method, or nil if the method was
// not analysed (such threads are treated as never predicted).
func (si *StaticInfo) Method(m ids.MethodID) *MethodInfo {
	if si == nil {
		return nil
	}
	return si.methods[m]
}

// entryState tracks the runtime progress of one syncid table entry.
type entryState int

const (
	statePending   entryState = iota // mutex unknown, block not yet reached
	stateAnnounced                   // future mutex known (lockinfo ran)
	stateIgnored                     // path skipped this block
	stateDone                        // block fully executed (or loop passed)
)

type entry struct {
	static  StaticEntry
	state   entryState
	mutex   ids.MutexID // valid in stateAnnounced and while locked
	holds   int         // reentrant hold count under this syncid
	locked  bool        // currently inside the block
	waiting bool        // the block's monitor is released in a condition wait
}

// ThreadTable is the per-thread runtime copy of a method's static syncid
// list. It is not safe for concurrent use; detmt's runtime only touches it
// under the scheduler decision lock.
type ThreadTable struct {
	entries []entry
}

// tablePool holds the tables of finished threads for NewThreadTable to
// reinitialise. A table is plain data, so which one a thread receives
// cannot reach a schedule.
var tablePool = sync.Pool{New: func() interface{} { return new(ThreadTable) }}

// NewThreadTable makes a fresh table for a thread executing method mi,
// reusing a released one when it can. A nil mi yields a nil table, on
// which all queries are conservatively pessimistic (never predicted, may
// lock anything).
func NewThreadTable(mi *MethodInfo) *ThreadTable {
	if mi == nil {
		return nil
	}
	tt := tablePool.Get().(*ThreadTable)
	if cap(tt.entries) < len(mi.Entries) {
		tt.entries = make([]entry, len(mi.Entries))
	}
	tt.entries = tt.entries[:len(mi.Entries)]
	for i, se := range mi.Entries {
		tt.entries[i] = entry{static: se, mutex: ids.NoMutex}
	}
	return tt
}

// Release hands the table of a finished thread back to NewThreadTable.
// Nothing may use tt afterwards. Releasing a nil table does nothing.
func (tt *ThreadTable) Release() {
	if tt != nil {
		tablePool.Put(tt)
	}
}

// pick returns the first entry for sid that pred accepts, or -1. A method
// has a handful of entries, and Predicted and MayLock scan them all anyway,
// so a scan here costs less than an index built per thread.
func (tt *ThreadTable) pick(sid ids.SyncID, pred func(*entry) bool) int {
	for i := range tt.entries {
		if e := &tt.entries[i]; e.static.Sync == sid && pred(e) {
			return i
		}
	}
	return -1
}

// LockInfo records that the mutex of sid will be m (injected right after
// the parameter's last assignment). Unknown syncids are ignored so that
// hand-written code without analysis stays safe.
func (tt *ThreadTable) LockInfo(sid ids.SyncID, m ids.MutexID) {
	if tt == nil {
		return
	}
	if i := tt.pick(sid, func(e *entry) bool { return e.state == statePending }); i >= 0 {
		tt.entries[i].state = stateAnnounced
		tt.entries[i].mutex = m
	}
}

// Ignore records that control flow skipped sid on this path.
func (tt *ThreadTable) Ignore(sid ids.SyncID) {
	if tt == nil {
		return
	}
	i := tt.pick(sid, func(e *entry) bool { return e.state == statePending })
	if i < 0 {
		i = tt.pick(sid, func(e *entry) bool { return e.state == stateAnnounced && !e.locked })
	}
	if i >= 0 {
		tt.entries[i].state = stateIgnored
		tt.entries[i].mutex = ids.NoMutex
	}
}

// OnLock records that the thread locked m under sid. A pending
// (spontaneous) entry is announced implicitly at this moment, exactly as
// the paper prescribes ("locking such a mutex is treated like a call to
// lockinfo followed by a call to lock").
func (tt *ThreadTable) OnLock(sid ids.SyncID, m ids.MutexID) {
	if tt == nil {
		return
	}
	i := tt.pick(sid, func(e *entry) bool {
		return (e.state == stateAnnounced || e.state == statePending) && !e.locked
	})
	if i < 0 {
		// Reentrant re-entry of the same block (loops): find the locked
		// entry and bump its hold count.
		if j := tt.pick(sid, func(e *entry) bool { return e.locked }); j >= 0 {
			tt.entries[j].holds++
		}
		return
	}
	e := &tt.entries[i]
	e.state = stateAnnounced
	e.mutex = m
	e.locked = true
	e.holds = 1
}

// OnUnlock records that the thread released m under sid. For non-loop
// entries the entry is completed; loop entries stay open until LoopDone.
func (tt *ThreadTable) OnUnlock(sid ids.SyncID, m ids.MutexID) {
	if tt == nil {
		return
	}
	i := tt.pick(sid, func(e *entry) bool { return e.locked && e.mutex == m })
	if i < 0 {
		return
	}
	e := &tt.entries[i]
	e.holds--
	if e.holds > 0 {
		return
	}
	e.locked = false
	if e.static.Loop == LoopNone {
		e.state = stateDone
	} else {
		// Inside a loop the same block may lock again (same mutex for
		// LoopFixed, possibly another for LoopVariable): reset to the
		// pre-lock state until LoopDone closes it.
		if e.static.Loop == LoopVariable {
			e.state = statePending
			e.mutex = ids.NoMutex
		} else {
			e.state = stateAnnounced
		}
	}
}

// OnWaitBegin records that the thread entered a condition wait on monitor
// m: every block currently locked on m has its monitor released until the
// wait ends. While waiting, those suspended holds must not count as
// conflicts — the thread provably cannot reacquire the monitor before it
// is notified, and the notifier necessarily locks the same monitor first.
// Without this rule, a prediction-based scheduler would deadlock every
// waiter against its own notifier (the open problem of paper Sect. 4.3).
func (tt *ThreadTable) OnWaitBegin(m ids.MutexID) {
	if tt == nil {
		return
	}
	for i := range tt.entries {
		e := &tt.entries[i]
		if e.locked && e.mutex == m {
			e.waiting = true
		}
	}
}

// OnWaitEnd records that the thread reacquired monitor m after a wait.
func (tt *ThreadTable) OnWaitEnd(m ids.MutexID) {
	if tt == nil {
		return
	}
	for i := range tt.entries {
		e := &tt.entries[i]
		if e.locked && e.mutex == m {
			e.waiting = false
		}
	}
}

// LoopDone records that the loop containing sid was passed; the entry can
// no longer produce lock requests.
func (tt *ThreadTable) LoopDone(sid ids.SyncID) {
	if tt == nil {
		return
	}
	if i := tt.pick(sid, func(e *entry) bool {
		return e.static.Loop != LoopNone && e.state != stateDone && e.state != stateIgnored && !e.locked
	}); i >= 0 {
		tt.entries[i].state = stateDone
	}
}

// Predicted reports whether the complete future lock set of the thread is
// known: every entry is announced, ignored, or done, and no
// variable-mutex loop is still able to produce unknown locks. A nil table
// is never predicted.
func (tt *ThreadTable) Predicted() bool {
	if tt == nil {
		return false
	}
	for i := range tt.entries {
		e := &tt.entries[i]
		switch e.state {
		case statePending:
			return false
		case stateAnnounced:
			if e.static.Loop == LoopVariable {
				// An open variable loop can still rebind its parameter.
				return false
			}
		}
	}
	return true
}

// MayLock reports whether the thread could lock m now or in the future.
// Unknown futures (pending entries, open variable loops, nil tables) are
// conservatively treated as "may lock anything".
func (tt *ThreadTable) MayLock(m ids.MutexID) bool {
	if tt == nil {
		return true
	}
	for i := range tt.entries {
		e := &tt.entries[i]
		if e.locked {
			// An open variable-mutex loop may rebind to any mutex in a
			// later iteration.
			if e.static.Loop == LoopVariable {
				return true
			}
			// The current hold conflicts unless it is suspended in a
			// condition wait (the thread cannot reacquire the monitor
			// before its notifier locks it — see OnWaitBegin).
			if e.mutex == m && !e.waiting {
				return true
			}
			continue
		}
		switch e.state {
		case statePending:
			return true
		case stateAnnounced:
			if e.mutex == m {
				return true
			}
			if e.static.Loop == LoopVariable {
				return true
			}
		}
	}
	return false
}

// AllLocksDone reports whether the thread has requested and released all
// of its locks and will never request one again (the last-lock property
// of Sect. 4.1). A nil table never reaches this state.
func (tt *ThreadTable) AllLocksDone() bool {
	if tt == nil {
		return false
	}
	for i := range tt.entries {
		e := &tt.entries[i]
		if e.locked {
			return false
		}
		if e.state != stateDone && e.state != stateIgnored {
			return false
		}
	}
	return true
}

// Remaining returns the syncids that may still produce lock requests, for
// diagnostics.
func (tt *ThreadTable) Remaining() []ids.SyncID {
	if tt == nil {
		return nil
	}
	var out []ids.SyncID
	for i := range tt.entries {
		e := &tt.entries[i]
		if e.locked || (e.state != stateDone && e.state != stateIgnored) {
			out = append(out, e.static.Sync)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the table state for debugging.
func (tt *ThreadTable) String() string {
	if tt == nil {
		return "(no table)"
	}
	var b strings.Builder
	for i := range tt.entries {
		e := &tt.entries[i]
		var st string
		switch e.state {
		case statePending:
			st = "pending"
		case stateAnnounced:
			st = "announced:" + e.mutex.String()
		case stateIgnored:
			st = "ignored"
		case stateDone:
			st = "done"
		}
		if e.locked {
			st += fmt.Sprintf(" locked(x%d)", e.holds)
		}
		fmt.Fprintf(&b, "%s[%s] %s; ", e.static.Sync, e.static.Loop, st)
	}
	return strings.TrimSuffix(b.String(), "; ")
}
