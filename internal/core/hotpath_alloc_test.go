package core

import (
	"testing"

	"detmt/internal/ids"
)

// Allocation budgets for the decision path. These are regression gates,
// not aspirations: the steady-state lock/unlock pair must stay at most
// one allocated object per operation (in practice it is zero — the only
// allocation on the path is the trace chunk, amortised over 1024
// events), or per-request scheduler overhead creeps back in via GC
// pressure.

// TestLockUnlockAllocBudget pins the uncontended steady-state decision
// pair — the single most frequent path in every workload — with the
// thread alone in one lane and with four lanes live.
func TestLockUnlockAllocBudget(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		var perOp float64
		hotPathRig(lanes, func(th *Thread) {
			// Warm-up: fill the first trace chunk, size the held slice and
			// the vclock structures so the measured runs are steady state.
			for i := 0; i < 2048; i++ {
				th.Lock(ids.NoSync, 1)
				th.Unlock(ids.NoSync, 1)
			}
			perPair := testing.AllocsPerRun(512, func() {
				th.Lock(ids.NoSync, 1)
				th.Unlock(ids.NoSync, 1)
			})
			perOp = perPair / 2 // a pair is two decisions
		})
		if perOp > 1 {
			t.Fatalf("%d lanes: lock/unlock decision allocates %.3f objects/op, budget is 1", lanes, perOp)
		}
	}
}

// TestReentrantLockAllocBudget covers the depth>1 fast path, which must
// not touch the scheduler or the trace at all.
func TestReentrantLockAllocBudget(t *testing.T) {
	_, rt := benchRuntime()
	done := make(chan struct{})
	var perPair float64
	rt.Submit(1, 0, func(th *Thread) {
		th.Lock(ids.NoSync, 1)
		for i := 0; i < 64; i++ {
			th.Lock(ids.NoSync, 1)
			th.Unlock(ids.NoSync, 1)
		}
		perPair = testing.AllocsPerRun(512, func() {
			th.Lock(ids.NoSync, 1)
			th.Unlock(ids.NoSync, 1)
		})
		th.Unlock(ids.NoSync, 1)
	}, func() { close(done) })
	<-done
	if perPair > 0.5 {
		t.Fatalf("reentrant lock/unlock pair allocates %.3f objects, want 0", perPair)
	}
}
