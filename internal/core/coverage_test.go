package core

import (
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/lockpred"
)

func TestSchedulerNames(t *testing.T) {
	cases := map[string]Scheduler{
		"SEQ":          NewSEQ(),
		"SAT":          NewSAT(),
		"MAT":          NewMAT(false),
		"MAT+LLA":      NewMAT(true),
		"PMAT":         NewPMAT(),
		"PDS":          NewPDS(4, true),
		"LSA-leader":   NewLSALeader(nil),
		"LSA-follower": NewLSAFollower(),
	}
	for want, s := range cases {
		if got := s.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
	if NewPDS(0, true).W != 1 {
		t.Error("PDS window floor broken")
	}
}

func TestMutexAccessors(t *testing.T) {
	tr, _ := scenario(t, NewSEQ(), nil, func(e *env) {
		e.spawn(0, func(th *Thread) {
			rt := th.Runtime()
			th.Lock(ids.NoSync, 1)
			rt.External(func() {
				m := rt.MutexAt(1)
				if m.Owner() != th || !m.HeldBy(th) || m.Free() {
					t.Error("mutex accessors inconsistent while held")
				}
			})
			th.Unlock(ids.NoSync, 1)
			rt.External(func() {
				m := rt.MutexAt(1)
				if m.Owner() != nil || m.HeldBy(th) || !m.Free() {
					t.Error("mutex accessors inconsistent after release")
				}
			})
		})
	})
	checkMutualExclusion(t, tr)
}

func TestLoopDoneThreadAPI(t *testing.T) {
	static := lockpred.NewStaticInfo(&lockpred.MethodInfo{
		Method:  1,
		Entries: []lockpred.StaticEntry{{Sync: 1, Loop: lockpred.LoopVariable}},
	})
	scenario(t, NewPMAT(), static, func(e *env) {
		e.spawn(1, func(th *Thread) {
			th.Lock(1, 3)
			th.Unlock(1, 3)
			if th.Table().Predicted() {
				t.Error("predicted before loopdone")
			}
			th.LoopDone(1)
			if !th.Table().Predicted() {
				t.Error("not predicted after loopdone")
			}
		})
	})
}

func TestLSALeaderContendedAcquire(t *testing.T) {
	// Two threads contend on the leader: the second blocks and is granted
	// FIFO on release; a nested call and an exit exercise those paths.
	var events []LSAEvent
	lead := NewLSALeader(func(e LSAEvent) { events = append(events, e) })
	tr, _ := scenarioFull(t, lead, nil, 2*ms, func(e *env) {
		e.spawn(0, func(th *Thread) {
			th.Lock(ids.NoSync, 1)
			th.Compute(3 * ms)
			th.Unlock(ids.NoSync, 1)
			th.Nested(nil)
		})
		e.spawn(0, func(th *Thread) {
			th.Compute(ms)         // arrive second (the leader is FCFS)
			th.Lock(ids.NoSync, 1) // contended
			th.Unlock(ids.NoSync, 1)
		})
	})
	checkMutualExclusion(t, tr)
	if len(events) != 2 {
		t.Fatalf("leader published %d decisions, want 2", len(events))
	}
	if events[0].Thread != 1 || events[1].Thread != 2 {
		t.Fatalf("decision order %v", events)
	}
}

func TestLSALeaderWaitParkHandsMonitorToWaiter(t *testing.T) {
	var events []LSAEvent
	lead := NewLSALeader(func(e LSAEvent) { events = append(events, e) })
	tr, _ := scenario(t, lead, nil, func(e *env) {
		e.spawn(0, func(th *Thread) { // waiter
			th.Lock(ids.NoSync, 1)
			th.Wait(1)
			th.Unlock(ids.NoSync, 1)
		})
		e.spawn(0, func(th *Thread) { // contends while T1 waits, then notifies
			th.Compute(ms)
			th.Lock(ids.NoSync, 1)
			th.Notify(1)
			th.Unlock(ids.NoSync, 1)
		})
	})
	checkMutualExclusion(t, tr)
	if len(events) < 3 {
		t.Fatalf("decisions %v (want initial grant, T2 grant, waiter regrant)", events)
	}
}

func TestLSAFollowerNestedAndExit(t *testing.T) {
	lead, fol := lsaPair(t, 0, func(submit func(ids.ThreadID, func(*Thread))) {
		submit(1, func(th *Thread) {
			th.Lock(ids.NoSync, 1)
			th.Unlock(ids.NoSync, 1)
			th.Nested(nil)
		})
	})
	if lead.Trace().ConsistencyHash() != fol.Trace().ConsistencyHash() {
		t.Fatal("nested path diverged")
	}
	if p := fol.Scheduler().(*LSAFollower).PendingDecisions(); p != 0 {
		t.Fatalf("%d pending decisions", p)
	}
}

func TestMATBlockedPrimaryExitIsRemoved(t *testing.T) {
	// A blocked primary whose wait times out exits while registered in
	// blockedPrimaries: Exit must remove it without disturbing others.
	tr, _ := scenarioFull(t, NewMAT(false), nil, 10*ms, func(e *env) {
		e.spawn(0, func(th *Thread) {
			th.Lock(ids.NoSync, 1)
			th.Nested(nil) // suspend holding mx1 for 10ms
			th.Unlock(ids.NoSync, 1)
		})
		e.spawn(0, func(th *Thread) {
			// Becomes primary, blocks on mx1 -> blocked primary. Use a
			// timed wait on another monitor afterwards to vary paths.
			th.Lock(ids.NoSync, 2)
			th.Unlock(ids.NoSync, 2)
			th.Lock(ids.NoSync, 1) // held by T1 until 10ms
			th.Unlock(ids.NoSync, 1)
		})
		e.spawn(0, func(th *Thread) {
			th.Compute(2 * ms) // plain runner
		})
	})
	checkMutualExclusion(t, tr)
	times := completionTimes(tr)
	if times[2] < 10*ms {
		t.Fatalf("T2 finished at %v before the holder released", times[2])
	}
}

func TestSEQReleaseAndWaitParkNoops(t *testing.T) {
	// Covers the SEQ no-op paths: release with nobody waiting and a
	// timed wait (WaitPark keeps the slot).
	_, makespan := scenario(t, NewSEQ(), nil, func(e *env) {
		e.spawn(0, func(th *Thread) {
			th.Lock(ids.NoSync, 1)
			th.Unlock(ids.NoSync, 1)
			th.Lock(ids.NoSync, 2)
			th.WaitTimeout(2, 3*ms)
			th.Unlock(ids.NoSync, 2)
		})
	})
	if makespan != 3*ms {
		t.Fatalf("makespan %v", makespan)
	}
}

func TestSEQNestedKeepsSlot(t *testing.T) {
	// NestedBegin under SEQ is a no-op: nobody else runs meanwhile.
	var t2start time.Duration = -1
	tr, _ := scenarioFull(t, NewSEQ(), nil, 5*ms, func(e *env) {
		e.spawn(0, func(th *Thread) { th.Nested(nil) })
		e.spawn(0, func(th *Thread) {})
	})
	for _, ev := range tr.Events() {
		if ev.Kind.String() == "start" && ev.Thread == 2 {
			t2start = ev.At
		}
	}
	if t2start != 5*ms {
		t.Fatalf("T2 started at %v, want 5ms (after T1's nested call)", t2start)
	}
}

func TestPMATNestedBeginKeepsQueuePosition(t *testing.T) {
	// Covers PMAT.NestedBegin: the suspended thread still gates younger
	// conflicting requests.
	static := lockpred.NewStaticInfo(
		&lockpred.MethodInfo{Method: 1, Entries: []lockpred.StaticEntry{{Sync: 1}}},
	)
	tr, _ := scenarioFull(t, NewPMAT(), static, 5*ms, func(e *env) {
		e.spawn(1, func(th *Thread) {
			th.LockInfo(1, 1)
			th.Nested(nil)  // suspend BEFORE locking: announcement stands
			th.Lock(1, 1)   // at 5ms
			th.Unlock(1, 1) // conflict window closes
		})
		e.spawn(1, func(th *Thread) {
			th.LockInfo(1, 1)
			th.Lock(1, 1) // same mutex: must wait for the older thread
			th.Unlock(1, 1)
		})
	})
	checkMutualExclusion(t, tr)
	gs := grants(tr)
	if len(gs) != 2 || gs[0].Thread != 1 {
		t.Fatalf("grants %v, want T1 first despite its nested suspension", gs)
	}
	if gs[0].At != 5*ms {
		t.Fatalf("T1 granted at %v", gs[0].At)
	}
}

func TestNopSchedulerPredictionChanged(t *testing.T) {
	var n NopScheduler
	n.PredictionChanged(nil) // must not panic
}
