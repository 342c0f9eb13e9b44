package core

import (
	"sync/atomic"
	"testing"
	"time"

	"detmt/internal/ids"
)

func TestPDSBarrierWaitsForWholePool(t *testing.T) {
	// W=3 but only 2 real requests: with RequireFullPool the round cannot
	// open until a third (dummy) request arrives — exactly the starvation
	// the paper describes and the dummy messages fix.
	tr, _ := scenario(t, NewPDS(3, true), nil, func(e *env) {
		for i := 0; i < 2; i++ {
			e.spawn(0, func(th *Thread) {
				th.Lock(ids.NoSync, 1)
				th.Unlock(ids.NoSync, 1)
			})
		}
		// Dummy request after 5ms unblocks the round.
		e.g.Go(func() {
			e.v.Sleep(5 * ms)
			e.spawn(0, func(th *Thread) {
				th.Lock(ids.NoSync, 99) // dummy mutex
				th.Unlock(ids.NoSync, 99)
			})
		})
	})
	gs := grants(tr)
	if len(gs) != 3 {
		t.Fatalf("grants %v", gs)
	}
	for _, g := range gs[:2] {
		if g.At != 5*ms {
			t.Errorf("real request granted at %v, want 5ms (dummy arrival)", g.At)
		}
	}
	checkMutualExclusion(t, tr)
}

func TestPDSRoundGrantsInAdmissionOrder(t *testing.T) {
	// Three threads contend on one mutex: within the round they
	// serialise in admission order.
	var order []ids.ThreadID
	var mu atomic.Int32
	tr, _ := scenario(t, NewPDS(3, true), nil, func(e *env) {
		for i := 0; i < 3; i++ {
			e.spawn(0, func(th *Thread) {
				th.Lock(ids.NoSync, 1)
				order = append(order, th.ID) // serialised by the mutex
				mu.Add(1)
				th.Compute(ms)
				th.Unlock(ids.NoSync, 1)
			})
		}
	})
	if len(order) != 3 {
		t.Fatalf("only %d critical sections ran", len(order))
	}
	for i, id := range order {
		if id != ids.ThreadID(i+1) {
			t.Fatalf("CS order %v, want admission order", order)
		}
	}
	checkMutualExclusion(t, tr)
}

func TestPDSNonConflictingRoundRunsInParallel(t *testing.T) {
	// Distinct mutexes: the whole round's critical sections overlap.
	_, makespan := scenario(t, NewPDS(3, true), nil, func(e *env) {
		for i := 0; i < 3; i++ {
			mid := ids.MutexID(i)
			e.spawn(0, func(th *Thread) {
				th.Lock(ids.NoSync, mid)
				th.Compute(4 * ms)
				th.Unlock(ids.NoSync, mid)
			})
		}
	})
	if makespan != 4*ms {
		t.Errorf("makespan %v, want 4ms (parallel critical sections)", makespan)
	}
}

func TestPDSSecondRoundAfterAllCSComplete(t *testing.T) {
	// Each thread locks twice; the second acquisitions form round 2 and
	// must all come after every round-1 release.
	pds := NewPDS(2, true)
	tr, _ := scenario(t, pds, nil, func(e *env) {
		for i := 0; i < 2; i++ {
			mid := ids.MutexID(i)
			e.spawn(0, func(th *Thread) {
				th.Lock(ids.NoSync, mid)
				th.Compute(time.Duration(int(mid)+1) * ms)
				th.Unlock(ids.NoSync, mid)
				th.Lock(ids.NoSync, mid)
				th.Unlock(ids.NoSync, mid)
			})
		}
	})
	if r := pds.Rounds()[0]; r != 2 {
		t.Errorf("rounds %d, want 2", r)
	}
	gs := grants(tr)
	if len(gs) != 4 {
		t.Fatalf("grants %v", gs)
	}
	// Round 2 grants happen when the slowest round-1 CS released (2ms).
	for _, g := range gs[2:] {
		if g.At != 2*ms {
			t.Errorf("round-2 grant at %v, want 2ms", g.At)
		}
	}
}

func TestPDSPoolCapsConcurrency(t *testing.T) {
	// W=2, four compute-only requests of 5ms: they run two at a time.
	_, makespan := scenario(t, NewPDS(2, false), nil, func(e *env) {
		for i := 0; i < 4; i++ {
			e.spawn(0, func(th *Thread) { th.Compute(5 * ms) })
		}
	})
	if makespan != 10*ms {
		t.Errorf("makespan %v, want 10ms (pool of 2)", makespan)
	}
}

func TestPDSNestedSuspensionLeavesPool(t *testing.T) {
	// A thread suspended in a nested call leaves the pool, so the barrier
	// proceeds without it (our documented FTflex-style adaptation).
	tr, _ := scenarioFull(t, NewPDS(2, false), nil, 10*ms, func(e *env) {
		e.spawn(0, func(th *Thread) {
			th.Nested(nil)
			th.Lock(ids.NoSync, 1)
			th.Unlock(ids.NoSync, 1)
		})
		e.spawn(0, func(th *Thread) {
			th.Lock(ids.NoSync, 2)
			th.Unlock(ids.NoSync, 2)
		})
	})
	var t2grant time.Duration = -1
	for _, g := range grants(tr) {
		if g.Thread == 2 {
			t2grant = g.At
		}
	}
	if t2grant != 0 {
		t.Errorf("T2 granted at %v, want 0 (barrier without the suspended thread)", t2grant)
	}
	checkMutualExclusion(t, tr)
}

func TestPDSWaitNotify(t *testing.T) {
	var produced atomic.Int32
	tr, _ := scenario(t, NewPDS(2, false), nil, func(e *env) {
		e.spawn(0, func(th *Thread) {
			th.Lock(ids.NoSync, 1)
			for produced.Load() == 0 {
				th.Wait(1)
			}
			th.Unlock(ids.NoSync, 1)
		})
		e.spawn(0, func(th *Thread) {
			th.Compute(2 * ms)
			th.Lock(ids.NoSync, 1)
			produced.Store(1)
			th.Notify(1)
			th.Unlock(ids.NoSync, 1)
		})
	})
	if produced.Load() != 1 {
		t.Fatal("producer never ran")
	}
	checkMutualExclusion(t, tr)
}

func TestPDSQueuedRequestsStartWhenSlotsFree(t *testing.T) {
	// Three requests, W=2: the third starts when the first exits.
	tr, _ := scenario(t, NewPDS(2, false), nil, func(e *env) {
		for i := 0; i < 3; i++ {
			e.spawn(0, func(th *Thread) { th.Compute(3 * ms) })
		}
	})
	times := completionTimes(tr)
	if times[3] != 6*ms {
		t.Errorf("third request done at %v, want 6ms", times[3])
	}
}

func TestPDSMergeBarrierBothSides(t *testing.T) {
	// The grant gate: pre-barrier lanes drain, the global request runs
	// alone, post-barrier work waits for it — then the lanes reopen.
	mid, end := checkThreeLanes(t, NewPDS(2, false))
	if mid.ActiveClasses != 4 {
		t.Errorf("%d active classes at 0.5ms, want 4", mid.ActiveClasses)
	}
	// A merge stall is counted per grant scan that finds an eligible
	// arrival with a free mutex held back by the gate.
	want := ClassStats{Escalations: 1, MergeStalls: 17, ParallelCommits: 4, SerialCommits: 1}
	if end != want {
		t.Errorf("counters %+v, want %+v", end, want)
	}
}

func TestPDSGateStuckMemberDoesNotHoldRoundClosed(t *testing.T) {
	// W=2, lane 1 holds T1 and T3. T3 is eligible with a free mutex but
	// gate-stuck behind the global T2, which is itself gate-barred behind
	// T1 — and T1's second request needs the lane's next round. If the
	// gate-stuck T3 kept that round closed the three would wait on each
	// other forever (the scenario times out); the round opens, T1
	// finishes, and the gate clears oldest first.
	tr, _ := scenario(t, NewPDS(2, false), nil, func(e *env) {
		e.spawnClass(1, 0, func(th *Thread) {
			th.Compute(gate)
			for i := 0; i < 2; i++ {
				th.Lock(ids.NoSync, 10)
				th.Compute(ms)
				th.Unlock(ids.NoSync, 10)
			}
		})
		for _, class := range []uint32{0, 1} {
			e.spawnClass(class, 0, func(th *Thread) {
				th.Compute(gate)
				th.Lock(ids.NoSync, 11)
				th.Compute(2 * ms)
				th.Unlock(ids.NoSync, 11)
			})
		}
	})
	checkMutualExclusion(t, tr)
	gs := grants(tr)
	if len(gs) != 4 {
		t.Fatalf("grants %v", gs)
	}
	want := []struct {
		th ids.ThreadID
		at time.Duration
	}{{1, gate}, {1, gate + ms}, {2, gate + 2*ms}, {3, gate + 4*ms}}
	for i, g := range gs {
		if g.Thread != want[i].th || g.At != want[i].at {
			t.Errorf("grant %d: %s at %v, want %s at %v", i, g.Thread, g.At, want[i].th, want[i].at)
		}
	}
}
