package core

import (
	"strings"
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/lockpred"
	"detmt/internal/trace"
	"detmt/internal/vclock"
)

func TestNewRuntimeValidation(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("missing clock", func() {
		NewRuntime(Options{Scheduler: NewSEQ()})
	})
	expectPanic("missing scheduler", func() {
		NewRuntime(Options{Clock: vclock.NewVirtual()})
	})
}

// expectThreadPanic runs body in a thread and checks that it panics with
// a message containing want.
func expectThreadPanic(t *testing.T, want string, body func(th *Thread)) {
	t.Helper()
	v := vclock.NewVirtual()
	rt := NewRuntime(Options{Clock: v, Scheduler: NewSEQ()})
	got := make(chan string, 1)
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		g := vclock.NewGroup(v)
		g.Add(1)
		rt.Submit(1, 0, func(th *Thread) {
			defer func() {
				if r := recover(); r != nil {
					got <- r.(string)
				} else {
					got <- ""
				}
				// Release anything the probe still holds so the thread
				// can exit cleanly after the recovery.
				rt.External(func() {
					for i, m := range th.held {
						m.owner = nil
						m.depth = 0
						th.held[i] = nil
					}
					th.held = th.held[:0]
				})
				g.Done()
			}()
			body(th)
		}, nil)
		g.Wait()
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out")
	}
	msg := <-got
	if !strings.Contains(msg, want) {
		t.Fatalf("panic %q, want substring %q", msg, want)
	}
}

func TestUnlockWithoutOwnershipPanics(t *testing.T) {
	expectThreadPanic(t, "does not own", func(th *Thread) {
		th.Unlock(ids.NoSync, 1)
	})
}

func TestWaitWithoutMonitorPanics(t *testing.T) {
	expectThreadPanic(t, "waits on", func(th *Thread) {
		th.Wait(1)
	})
}

func TestNotifyWithoutMonitorPanics(t *testing.T) {
	expectThreadPanic(t, "notifies", func(th *Thread) {
		th.Notify(1)
	})
}

func TestExitWhileHoldingLockPanics(t *testing.T) {
	expectThreadPanic(t, "exiting while holding", func(th *Thread) {
		th.Lock(ids.NoSync, 1)
		th.rt.exitThread(th) // simulate the body returning with the lock held
		// Unreachable; exitThread panicked. The deferred recovery below
		// releases the mutex so the wrapper's own exit succeeds.
	})
}

func TestDuplicateThreadIDPanics(t *testing.T) {
	v := vclock.NewVirtual()
	rt := NewRuntime(Options{Clock: v, Scheduler: NewSEQ()})
	done := make(chan struct{})
	var recovered interface{}
	v.Go(func() {
		defer close(done)
		g := vclock.NewGroup(v)
		g.Add(1)
		// The first thread computes: virtual time cannot advance while this
		// goroutine runs, so thread 7 is still registered when the second
		// Submit looks (an empty body could exit first, and no panic).
		rt.Submit(7, 0, func(th *Thread) { th.Compute(time.Millisecond) }, g.Done)
		func() {
			defer func() { recovered = recover() }()
			rt.Submit(7, 0, func(th *Thread) {}, nil)
		}()
		g.Wait()
	})
	<-done
	if recovered == nil {
		t.Fatal("duplicate thread id not rejected")
	}
}

func TestComputeZeroDuration(t *testing.T) {
	_, makespan := scenario(t, NewSEQ(), nil, func(e *env) {
		e.spawn(0, func(th *Thread) {
			th.Compute(0)
			th.Compute(-time.Second)
		})
	})
	if makespan != 0 {
		t.Fatalf("makespan %v", makespan)
	}
}

func TestNestedReplyEcho(t *testing.T) {
	scenario(t, NewSAT(), nil, func(e *env) {
		e.spawn(0, func(th *Thread) {
			if got := th.Nested("ping"); got != "ping" {
				t.Errorf("nested reply %v", got)
			}
		})
	})
}

func TestThreadAccessors(t *testing.T) {
	static := lockpred.NewStaticInfo(&lockpred.MethodInfo{
		Method:  1,
		Entries: []lockpred.StaticEntry{{Sync: 1}},
	})
	scenario(t, NewSEQ(), static, func(e *env) {
		e.spawn(1, func(th *Thread) {
			if th.Runtime() == nil {
				t.Error("nil runtime")
			}
			if th.Table() == nil {
				t.Error("nil table for analysed method")
			}
			if th.AdmitIndex() != 0 {
				t.Errorf("admit index %d", th.AdmitIndex())
			}
			if th.HoldsLocks() {
				t.Error("holds locks before any lock")
			}
			th.Lock(1, 1)
			if !th.HoldsLocks() {
				t.Error("no lock recorded")
			}
			th.Unlock(1, 1)
		})
	})
}

func TestRuntimeAccessors(t *testing.T) {
	v := vclock.NewVirtual()
	tr := trace.New()
	sched := NewSEQ()
	rt := NewRuntime(Options{Clock: v, Scheduler: sched, Trace: tr})
	if rt.Clock() != v || rt.Trace() != tr || rt.Scheduler() != sched {
		t.Fatal("accessors broken")
	}
}

func TestThreadsSnapshotOrdering(t *testing.T) {
	v := vclock.NewVirtual()
	rt := NewRuntime(Options{Clock: v, Scheduler: NewMAT(false)})
	done := make(chan struct{})
	var order []ids.ThreadID
	v.Go(func() {
		defer close(done)
		g := vclock.NewGroup(v)
		tids := []ids.ThreadID{42, 7, 99}
		gates := make([]vclock.Parker, len(tids))
		for i := range gates {
			gates[i] = v.NewParker()
		}
		for i, tid := range tids {
			i := i
			g.Add(1)
			rt.Submit(tid, 0, func(th *Thread) {
				gates[i].Park() // hold all threads alive for the snapshot
			}, g.Done)
		}
		rt.External(func() {
			for _, th := range rt.Threads() {
				order = append(order, th.ID)
			}
		})
		for _, gate := range gates {
			gate.Unpark()
		}
		g.Wait()
	})
	<-done
	// Admission order (call order), not id order.
	want := []ids.ThreadID{42, 7, 99}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestReentrantLockAcrossWait(t *testing.T) {
	// A thread waiting with reentrancy depth 2 must get depth 2 back.
	tr, _ := scenario(t, NewMAT(false), nil, func(e *env) {
		e.spawn(0, func(th *Thread) {
			th.Lock(1, 1)
			th.Lock(2, 1) // depth 2
			th.WaitTimeout(1, 2*ms)
			// Depth must be restored: two unlocks needed.
			th.Unlock(2, 1)
			th.Unlock(1, 1)
		})
	})
	checkMutualExclusion(t, tr)
	rels := tr.Filter(func(e trace.Event) bool { return e.Kind == trace.KindLockRel })
	if len(rels) != 1 {
		t.Fatalf("full releases %d, want 1 (depth restored across wait)", len(rels))
	}
}

func TestNotifyBeforeWaitIsLost(t *testing.T) {
	// Java semantics: a notify with no waiters is lost; a later waiter
	// needs its own notification (here: the timeout).
	var notified bool
	_, makespan := scenario(t, NewMAT(false), nil, func(e *env) {
		e.spawn(0, func(th *Thread) {
			th.Lock(ids.NoSync, 1)
			th.Notify(1) // nobody waits yet: lost
			th.Unlock(ids.NoSync, 1)
		})
		e.spawn(0, func(th *Thread) {
			th.Compute(ms)
			th.Lock(ids.NoSync, 1)
			notified = th.WaitTimeout(1, 5*ms)
			th.Unlock(ids.NoSync, 1)
		})
	})
	if notified {
		t.Fatal("lost notification delivered")
	}
	if makespan != 6*ms {
		t.Fatalf("makespan %v, want 6ms", makespan)
	}
}

func TestNotifyWakesFIFO(t *testing.T) {
	// Waiters are woken in wait order (deterministic FIFO).
	var order []ids.ThreadID
	scenario(t, NewMAT(false), nil, func(e *env) {
		for i := 0; i < 3; i++ {
			d := time.Duration(i) * ms
			e.spawn(0, func(th *Thread) {
				th.Compute(d) // stagger wait entry: T1, T2, T3
				th.Lock(ids.NoSync, 1)
				th.Wait(1)
				order = append(order, th.ID) // serialised by monitor 1
				th.Unlock(ids.NoSync, 1)
			})
		}
		e.spawn(0, func(th *Thread) {
			th.Compute(5 * ms)
			for i := 0; i < 3; i++ {
				th.Lock(ids.NoSync, 1)
				th.Notify(1)
				th.Unlock(ids.NoSync, 1)
				th.Compute(ms)
			}
		})
	})
	if len(order) != 3 {
		t.Fatalf("woken %d", len(order))
	}
	for i, id := range order {
		if id != ids.ThreadID(i+1) {
			t.Fatalf("wake order %v", order)
		}
	}
}

func TestRuntimeOnRealClock(t *testing.T) {
	// The pump, nested simulation, and wait timeouts must also work on a
	// wall clock (poll-style ParkTimeout(0) semantics).
	r := vclock.NewReal()
	rt := NewRuntime(Options{Clock: r, Scheduler: NewMAT(false), NestedDelay: time.Millisecond})
	done := make(chan struct{})
	var reply interface{}
	var notified = true
	r.Go(func() {
		defer close(done)
		g := vclock.NewGroup(r)
		g.Add(1)
		rt.Submit(1, 0, func(th *Thread) {
			th.Compute(time.Millisecond)
			th.Lock(ids.NoSync, 1)
			notified = th.WaitTimeout(1, 2*time.Millisecond)
			th.Unlock(ids.NoSync, 1)
			reply = th.Nested("wall")
		}, g.Done)
		g.Wait()
	})
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("real-clock runtime timed out")
	}
	if reply != "wall" {
		t.Fatalf("nested reply %v", reply)
	}
	if notified {
		t.Fatal("timed wait reported a notify that never happened")
	}
}

func TestScheduleNestedResumeExternal(t *testing.T) {
	// The replication layer resumes threads via ScheduleNestedResume;
	// the pump delivers at a deterministic quiescent instant.
	v := vclock.NewVirtual()
	rt := NewRuntime(Options{Clock: v, Scheduler: NewSAT(), Nested: func(rt *Runtime, th *Thread, arg interface{}) {
		// Simulate the replication layer: resume 3ms later, externally.
		rt.Clock().Sleep(3 * ms)
		rt.ScheduleNestedResume(th, "external")
	}})
	done := make(chan struct{})
	var reply interface{}
	v.Go(func() {
		defer close(done)
		g := vclock.NewGroup(v)
		g.Add(1)
		rt.Submit(1, 0, func(th *Thread) {
			reply = th.Nested(nil)
		}, g.Done)
		g.Wait()
	})
	<-done
	if reply != "external" {
		t.Fatalf("reply %v", reply)
	}
	if v.Now() != 3*ms {
		t.Fatalf("resumed at %v", v.Now())
	}
}

// TestThreadKeepsItsParkerUntilDone: on a virtual clock a finished
// thread's parker goes back for the next thread to reuse, but only once
// its done callback has returned. A done that submits the next request,
// as a closed-loop client does, must not hand that thread the parker of
// the thread still running done.
func TestThreadKeepsItsParkerUntilDone(t *testing.T) {
	var first, second vclock.Parker
	scenario(t, NewSEQ(), nil, func(e *env) {
		e.g.Add(1)
		e.rt.Submit(1, 0, func(th *Thread) { first = th.parker }, func() {
			e.g.Add(1)
			e.rt.Submit(2, 0, func(th *Thread) { second = th.parker }, e.g.Done)
			e.g.Done()
		})
		e.g.Wait()
	})
	if first == nil || second == nil || first == second {
		t.Fatalf("thread 2 got parker %p while thread 1 (parker %p) still ran done", second, first)
	}
}
