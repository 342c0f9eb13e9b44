package core

import (
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/lockpred"
	"detmt/internal/trace"
	"detmt/internal/vclock"
)

// env is the shared scenario driver: one runtime on a fresh virtual
// clock, driven from a single managed goroutine.
type env struct {
	t  *testing.T
	v  *vclock.Virtual
	rt *Runtime
	g  *vclock.Group

	next uint64
}

// scenario runs body as the initial managed goroutine of a fresh virtual
// clock with the given scheduler, then returns the trace and the final
// virtual time.
func scenario(t *testing.T, sched Scheduler, static *lockpred.StaticInfo, body func(*env)) (*trace.Trace, time.Duration) {
	t.Helper()
	return scenarioFull(t, sched, static, 0, body)
}

// scenarioFull is scenario with a simulated nested-invocation duration.
func scenarioFull(t *testing.T, sched Scheduler, static *lockpred.StaticInfo, nestedDelay time.Duration, body func(*env)) (*trace.Trace, time.Duration) {
	t.Helper()
	v := vclock.NewVirtual()
	rt := NewRuntime(Options{Clock: v, Scheduler: sched, Static: static, NestedDelay: nestedDelay})
	done := make(chan struct{})
	var failed error
	v.Go(func() {
		defer close(done)
		defer func() {
			if r := recover(); r != nil {
				failed = &panicErr{r}
			}
		}()
		e := &env{t: t, v: v, rt: rt, g: vclock.NewGroup(v)}
		body(e)
		e.g.Wait()
	})
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("scenario timed out in real time")
	}
	if failed != nil {
		t.Fatal(failed)
	}
	return rt.Trace(), v.Now()
}

type panicErr struct{ v interface{} }

func (p *panicErr) Error() string { return "scenario panicked" }

// spawn submits a thread running body in the global class 0 and tracks it
// in the join group. It returns the assigned thread id.
func (e *env) spawn(method ids.MethodID, body func(*Thread)) ids.ThreadID {
	return e.spawnClass(0, method, body)
}

// spawnClass is spawn with an explicit conflict class.
func (e *env) spawnClass(class uint32, method ids.MethodID, body func(*Thread)) ids.ThreadID {
	e.next++
	tid := ids.ThreadID(e.next)
	e.g.Add(1)
	e.rt.SubmitClassed(tid, method, class, body, e.g.Done)
	return tid
}

// spawnDone is spawn with a completion callback that receives the
// completion (virtual) time.
func (e *env) spawnDone(method ids.MethodID, body func(*Thread), at *time.Duration) ids.ThreadID {
	e.next++
	tid := ids.ThreadID(e.next)
	e.g.Add(1)
	e.rt.Submit(tid, method, body, func() {
		*at = e.v.Now()
		e.g.Done()
	})
	return tid
}

const (
	ms = time.Millisecond
	// gate is the computation a thread body opens with when the scenario's
	// outcome depends on every thread having been admitted before any
	// arrives: the spawner goroutine races the threads it already started
	// (see PDS.RequireFullPool).
	gate = time.Microsecond
)

// threeLanes is the merge-barrier scenario shared by the MAT and PDS
// tests: two pre-barrier lanes (T1 class 1, T2 class 2), a global request
// (T3) that locks T1's mutex, and two post-barrier lanes (T4 class 1
// again, T5 class 3). It returns the grant instants the barrier must
// produce under either scheduler.
func threeLanes(e *env) map[ids.ThreadID]time.Duration {
	cs := func(class uint32, m ids.MutexID, d time.Duration) {
		e.spawnClass(class, 0, func(th *Thread) {
			th.Compute(gate)
			th.Lock(ids.NoSync, m)
			th.Compute(d)
			th.Unlock(ids.NoSync, m)
		})
	}
	cs(1, 10, 3*ms)
	cs(2, 20, ms)
	cs(0, 10, 2*ms)
	cs(1, 10, ms)
	cs(3, 30, ms)
	return map[ids.ThreadID]time.Duration{
		1: gate, 2: gate, // pre-barrier lanes run side by side
		3: gate + 3*ms, // the global request waits for both to drain
		4: gate + 5*ms, // post-barrier work waits for the global request,
		5: gate + 5*ms, // then the lanes reopen together
	}
}

// checkThreeLanes runs threeLanes under sched, checks the grant instants,
// and returns the counters at 0.5ms (all five live) and at the end.
func checkThreeLanes(t *testing.T, sched ClassScheduler) (mid, end ClassStats) {
	t.Helper()
	var want map[ids.ThreadID]time.Duration
	tr, _ := scenario(t, sched, nil, func(e *env) {
		want = threeLanes(e)
		e.g.Go(func() {
			e.v.Sleep(ms / 2)
			e.rt.External(func() { mid = sched.ClassStats() })
		})
		e.g.Wait()
		e.rt.External(func() { end = sched.ClassStats() })
	})
	checkMutualExclusion(t, tr)
	gs := grants(tr)
	if len(gs) != len(want) {
		t.Fatalf("grants %v", gs)
	}
	for _, g := range gs {
		if g.At != want[g.Thread] {
			t.Errorf("%s granted at %v, want %v", g.Thread, g.At, want[g.Thread])
		}
	}
	return mid, end
}

// completionTimes extracts per-thread exit times from a trace.
func completionTimes(tr *trace.Trace) map[ids.ThreadID]time.Duration {
	out := map[ids.ThreadID]time.Duration{}
	for _, e := range tr.Events() {
		if e.Kind == trace.KindExit {
			out[e.Thread] = e.At
		}
	}
	return out
}

// grants extracts the (thread, mutex) grant sequence from a trace.
func grants(tr *trace.Trace) []trace.Event {
	return tr.Filter(func(e trace.Event) bool { return e.Kind == trace.KindLockAcq })
}

// checkMutualExclusion verifies from the trace that no two threads ever
// hold the same mutex simultaneously and that lock/unlock pairs nest.
func checkMutualExclusion(t *testing.T, tr *trace.Trace) {
	t.Helper()
	owner := map[ids.MutexID]ids.ThreadID{}
	for _, e := range tr.Events() {
		switch e.Kind {
		case trace.KindLockAcq:
			if e.Arg > 0 { // reentrant re-acquisition (Arg carries depth)
				if owner[e.Mutex] != e.Thread {
					t.Fatalf("reentrant acq by non-owner: %v", e)
				}
				continue
			}
			if holder, held := owner[e.Mutex]; held {
				t.Fatalf("grant of %s to %s while held by %s", e.Mutex, e.Thread, holder)
			}
			owner[e.Mutex] = e.Thread
		case trace.KindWaitEnd: // monitor reacquired by the waiter
			if holder, held := owner[e.Mutex]; held {
				t.Fatalf("wait-end grant of %s to %s while held by %s", e.Mutex, e.Thread, holder)
			}
			owner[e.Mutex] = e.Thread
		case trace.KindWaitBegin:
			if owner[e.Mutex] != e.Thread {
				t.Fatalf("wait on unowned mutex: %v", e)
			}
			delete(owner, e.Mutex)
		case trace.KindLockRel:
			if owner[e.Mutex] != e.Thread {
				t.Fatalf("release by non-owner: %v", e)
			}
			delete(owner, e.Mutex)
		}
	}
}
