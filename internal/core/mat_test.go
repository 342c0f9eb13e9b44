package core

import (
	"sync/atomic"
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/lockpred"
	"detmt/internal/trace"
)

// fig2Static is the static info for the Fig. 2 workload: one method with
// a single synchronized block.
func fig2Static() *lockpred.StaticInfo {
	return lockpred.NewStaticInfo(&lockpred.MethodInfo{
		Method:  1,
		Entries: []lockpred.StaticEntry{{Sync: 1}},
	})
}

func TestMATOverlapsComputation(t *testing.T) {
	// Real multithreading: two pure computations overlap (vs SAT's 14ms).
	_, makespan := scenario(t, NewMAT(false), nil, func(e *env) {
		e.spawn(0, func(th *Thread) { th.Compute(7 * ms) })
		e.spawn(0, func(th *Thread) { th.Compute(7 * ms) })
	})
	if makespan != 7*ms {
		t.Errorf("makespan %v, want 7ms (parallel computation)", makespan)
	}
}

func TestMATSecondaryBlocksOnLockEvenWithoutConflict(t *testing.T) {
	// The plain-MAT weakness quoted in the paper: a secondary requesting
	// a lock blocks until primary, conflict or not.
	tr, _ := scenario(t, NewMAT(false), nil, func(e *env) {
		e.spawn(0, func(th *Thread) { // primary
			th.Lock(ids.NoSync, 1)
			th.Compute(2 * ms)
			th.Unlock(ids.NoSync, 1)
			th.Compute(8 * ms) // keeps the slot: plain MAT can't tell
		})
		e.spawn(0, func(th *Thread) { // secondary wants a DIFFERENT mutex
			th.Lock(ids.NoSync, 2)
			th.Unlock(ids.NoSync, 2)
		})
	})
	gs := grants(tr)
	if len(gs) != 2 {
		t.Fatalf("grants %v", gs)
	}
	if gs[1].Thread != 2 || gs[1].At != 10*ms {
		t.Errorf("secondary granted mx2 at %v, want 10ms (primary exit)", gs[1].At)
	}
	checkMutualExclusion(t, tr)
}

func TestMATFig2LastLockHandover(t *testing.T) {
	// Fig. 2: primary locks/unlocks, then runs a long final computation.
	// (a) plain MAT: the secondary's grant waits for primary termination.
	// (b) MAT+LLA: the grant happens right after the last unlock.
	run := func(lla bool) (grantAt, makespan time.Duration) {
		tr, mk := scenario(t, NewMAT(lla), fig2Static(), func(e *env) {
			e.spawn(1, func(th *Thread) { // becomes primary
				th.Lock(1, 1)
				th.Compute(ms)
				th.Unlock(1, 1)
				th.Compute(10 * ms) // final computation (reply building)
			})
			e.spawn(1, func(th *Thread) { // secondary, same mutex
				th.Lock(1, 1)
				th.Compute(ms)
				th.Unlock(1, 1)
			})
		})
		checkMutualExclusion(t, tr)
		gs := grants(tr)
		if len(gs) != 2 {
			t.Fatalf("grants %v", gs)
		}
		return gs[1].At, mk
	}
	plainGrant, plainMakespan := run(false)
	llaGrant, llaMakespan := run(true)
	if plainGrant != 11*ms {
		t.Errorf("plain MAT grant at %v, want 11ms (primary exit)", plainGrant)
	}
	if llaGrant != ms {
		t.Errorf("MAT+LLA grant at %v, want 1ms (last unlock)", llaGrant)
	}
	if plainMakespan != 12*ms || llaMakespan != 11*ms {
		t.Errorf("makespans plain=%v lla=%v, want 12ms and 11ms", plainMakespan, llaMakespan)
	}
}

func TestMATNestedHandsSlotOver(t *testing.T) {
	// Primary suspends in a nested call; the oldest secondary locks
	// meanwhile.
	tr, _ := scenarioFull(t, NewMAT(false), nil, 12*ms, func(e *env) {
		e.spawn(0, func(th *Thread) {
			th.Lock(ids.NoSync, 1)
			th.Unlock(ids.NoSync, 1)
			th.Nested(nil)
		})
		e.spawn(0, func(th *Thread) {
			th.Lock(ids.NoSync, 2)
			th.Unlock(ids.NoSync, 2)
		})
	})
	gs := grants(tr)
	if len(gs) != 2 {
		t.Fatalf("grants %v", gs)
	}
	if gs[1].At != 0 {
		t.Errorf("secondary granted at %v, want 0 (promotion at nested begin)", gs[1].At)
	}
	checkMutualExclusion(t, tr)
}

func TestMATPrimacySuccessionIsAgeOrdered(t *testing.T) {
	// Three secondaries blocked on distinct mutexes: grants happen in
	// admission order as primacy passes from oldest to youngest.
	tr, _ := scenario(t, NewMAT(false), nil, func(e *env) {
		e.spawn(0, func(th *Thread) {
			th.Compute(ms)
			th.Lock(ids.NoSync, 10)
			th.Unlock(ids.NoSync, 10)
		})
		for i := 0; i < 3; i++ {
			mid := ids.MutexID(i)
			e.spawn(0, func(th *Thread) {
				th.Lock(ids.NoSync, mid)
				th.Compute(ms)
				th.Unlock(ids.NoSync, mid)
			})
		}
	})
	gs := grants(tr)
	if len(gs) != 4 {
		t.Fatalf("grants %v", gs)
	}
	for i, g := range gs {
		if g.Thread != ids.ThreadID(i+1) {
			t.Fatalf("grant order %v, want admission order", gs)
		}
	}
	checkMutualExclusion(t, tr)
}

func TestMATBlockedPrimaryPreferred(t *testing.T) {
	// T1 (primary) locks mx1 and suspends in a nested call holding it.
	// T2 becomes primary, blocks on mx1 -> blocked primary; T3 becomes
	// primary, locks mx2 fine. When T1 returns and releases, T2 (the
	// blocked primary) must get mx1.
	tr, _ := scenarioFull(t, NewMAT(false), nil, 5*ms, func(e *env) {
		e.spawn(0, func(th *Thread) {
			th.Lock(ids.NoSync, 1)
			th.Nested(nil) // holds mx1 for 5ms
			th.Unlock(ids.NoSync, 1)
			th.Compute(ms) // keep running so promotion must prefer T2
		})
		e.spawn(0, func(th *Thread) {
			th.Lock(ids.NoSync, 1)
			th.Unlock(ids.NoSync, 1)
		})
		e.spawn(0, func(th *Thread) {
			th.Lock(ids.NoSync, 2)
			th.Unlock(ids.NoSync, 2)
		})
	})
	checkMutualExclusion(t, tr)
	gs := grants(tr)
	if len(gs) != 3 {
		t.Fatalf("grants %v", gs)
	}
	if gs[1].Thread != 3 || gs[1].Mutex != 2 {
		t.Errorf("second grant %v, want T3 on mx2 while T1 nested", gs[1])
	}
	// T1 reclaims the slot when its nested call returns at 5ms (it is the
	// oldest unsuspended thread and T2's mutex is still held at that
	// instant); T2, the blocked primary, is granted when T1 exits at 6ms.
	if gs[2].Thread != 2 || gs[2].At != 6*ms {
		t.Errorf("third grant %v, want blocked primary T2 at 6ms", gs[2])
	}
}

func TestMATWaitNotifyAcrossPromotion(t *testing.T) {
	var consumed atomic.Int32
	tr, _ := scenario(t, NewMAT(false), nil, func(e *env) {
		e.spawn(0, func(th *Thread) { // consumer
			th.Lock(ids.NoSync, 1)
			for consumed.Load() == 0 {
				th.Wait(1)
			}
			th.Unlock(ids.NoSync, 1)
		})
		e.spawn(0, func(th *Thread) { // producer
			th.Compute(2 * ms)
			th.Lock(ids.NoSync, 1)
			consumed.Store(1)
			th.Notify(1)
			th.Unlock(ids.NoSync, 1)
		})
	})
	if consumed.Load() != 1 {
		t.Fatal("producer never ran")
	}
	checkMutualExclusion(t, tr)
}

func TestMATLLANotDemotedWhileLocksRemain(t *testing.T) {
	// With two syncids, the primary keeps the slot after its first
	// unlock; demotion happens only after the second.
	static := lockpred.NewStaticInfo(&lockpred.MethodInfo{
		Method:  1,
		Entries: []lockpred.StaticEntry{{Sync: 1}, {Sync: 2}},
	})
	tr, _ := scenario(t, NewMAT(true), static, func(e *env) {
		e.spawn(1, func(th *Thread) {
			th.Lock(1, 1)
			th.Compute(ms)
			th.Unlock(1, 1)
			th.Compute(ms)
			th.Lock(2, 2)
			th.Compute(ms)
			th.Unlock(2, 2)
			th.Compute(10 * ms)
		})
		e.spawn(1, func(th *Thread) {
			th.Ignore(1)
			th.Lock(2, 1) // contends with the primary's first mutex
			th.Unlock(2, 1)
		})
	})
	checkMutualExclusion(t, tr)
	gs := grants(tr)
	if len(gs) != 3 {
		t.Fatalf("grants %v", gs)
	}
	last := gs[2]
	if last.Thread != 2 || last.At != 3*ms {
		t.Errorf("secondary grant %v, want T2 at 3ms (after primary's LAST unlock)", last)
	}
}

func TestMATPromoteEventsTraced(t *testing.T) {
	// Primacy changes are decision events: the first thread claims the
	// slot at admission, the second on succession.
	tr, _ := scenario(t, NewMAT(false), nil, func(e *env) {
		e.spawn(0, func(th *Thread) {
			th.Lock(ids.NoSync, 1)
			th.Compute(2 * ms)
			th.Unlock(ids.NoSync, 1)
		})
		e.spawn(0, func(th *Thread) {
			th.Lock(ids.NoSync, 2)
			th.Unlock(ids.NoSync, 2)
		})
	})
	var promotes []trace.Event
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindPromote {
			promotes = append(promotes, ev)
		}
	}
	if len(promotes) != 2 || promotes[0].Thread != 1 || promotes[1].Thread != 2 {
		t.Fatalf("promote events %v, want T1 then T2", promotes)
	}
}

func TestMATMergeBarrierBothSides(t *testing.T) {
	// Pre-barrier lane work drains, the global request runs alone, and
	// post-barrier work waits for it — then the lanes reopen together.
	// A merge stall is counted per promotion sweep that finds a runnable
	// thread fenced off, so the total is a property of the schedule.
	mid, end := checkThreeLanes(t, NewMAT(false))
	if mid.ActiveClasses != 4 {
		t.Errorf("%d active classes at 0.5ms, want 4", mid.ActiveClasses)
	}
	want := ClassStats{Escalations: 1, MergeStalls: 20, ParallelCommits: 4, SerialCommits: 1}
	if end != want {
		t.Errorf("counters %+v, want %+v", end, want)
	}
}

func TestMATLastLockStopsBarringMergeBarrier(t *testing.T) {
	// Fig. 2(b) across classes: a lane thread past its last lock keeps
	// computing, but only plain MAT lets it hold the global request back.
	run := func(lla bool) time.Duration {
		tr, _ := scenario(t, NewMAT(lla), fig2Static(), func(e *env) {
			e.spawnClass(1, 1, func(th *Thread) {
				th.Lock(1, 1)
				th.Compute(ms)
				th.Unlock(1, 1)
				th.Compute(10 * ms) // final computation
			})
			e.spawnClass(0, 1, func(th *Thread) {
				th.Compute(gate)
				th.Lock(1, 2)
				th.Unlock(1, 2)
			})
		})
		checkMutualExclusion(t, tr)
		gs := grants(tr)
		if len(gs) != 2 || gs[1].Thread != 2 {
			t.Fatalf("grants %v", gs)
		}
		return gs[1].At
	}
	if at := run(false); at != 11*ms {
		t.Errorf("plain MAT: global granted at %v, want 11ms (lane thread's exit)", at)
	}
	if at := run(true); at != ms {
		t.Errorf("MAT+LLA: global granted at %v, want 1ms (lane thread's last unlock)", at)
	}
}

func TestMATSuspendedThreadKeepsBarringMergeBarrier(t *testing.T) {
	// A lane thread suspended in a nested call or a condition wait hands
	// its lane's slot to a lane-mate, but it may lock again after
	// resuming, so the global request keeps waiting for it to exit.
	for name, suspend := range map[string]func(*Thread){
		"nested": func(th *Thread) { th.Nested(nil) },
		"wait": func(th *Thread) {
			th.Lock(ids.NoSync, 1)
			th.WaitTimeout(1, 12*ms)
			th.Unlock(ids.NoSync, 1)
		},
	} {
		tr, _ := scenarioFull(t, NewMAT(false), nil, 12*ms, func(e *env) {
			e.spawnClass(1, 0, suspend)
			e.spawnClass(1, 0, func(th *Thread) { // lane-mate, pre-barrier
				th.Compute(gate)
				th.Lock(ids.NoSync, 2)
				th.Unlock(ids.NoSync, 2)
			})
			e.spawnClass(0, 0, func(th *Thread) { // global
				th.Compute(gate)
				th.Lock(ids.NoSync, 3)
				th.Unlock(ids.NoSync, 3)
			})
		})
		checkMutualExclusion(t, tr)
		at := map[ids.ThreadID]time.Duration{}
		for _, g := range grants(tr) {
			at[g.Thread] = g.At
		}
		if at[2] != gate {
			t.Errorf("%s: lane-mate granted at %v, want %v (slot handed over at suspension)", name, at[2], gate)
		}
		if at[3] != 12*ms {
			t.Errorf("%s: global granted at %v, want 12ms (suspended thread's exit)", name, at[3])
		}
	}
}
