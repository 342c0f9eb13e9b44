package core

import (
	"testing"

	"detmt/internal/ids"
)

// stale returns the threads a queue's backing array still references
// beyond its length: what a delete-by-append leaves behind.
func stale(q []*Thread) int {
	n := 0
	for _, t := range q[len(q):cap(q)] {
		if t != nil {
			n++
		}
	}
	return n
}

// TestQueuesDoNotPinFinishedThreads is the pin rule of the scheduler
// queues: once a thread has left a queue, the queue's storage does not
// reference it either. A removed waiter left in the backing array kept the
// last thread that waited on every mutex reachable — parker, prediction
// table, body closure and arguments — for as long as the mutex lived, which
// on a server is forever.
func TestQueuesDoNotPinFinishedThreads(t *testing.T) {
	scheds := map[string]func() Scheduler{
		"SEQ":     func() Scheduler { return NewSEQ() },
		"SAT":     func() Scheduler { return NewSAT() },
		"PDS":     func() Scheduler { return NewPDS(3, false) },
		"MAT":     func() Scheduler { return NewMAT(false) },
		"MAT+LLA": func() Scheduler { return NewMAT(true) },
		"PMAT":    func() Scheduler { return NewPMAT() },
	}
	for name, mk := range scheds {
		t.Run(name, func(t *testing.T) {
			sched := mk()
			var rt *Runtime
			scenario(t, sched, nil, func(e *env) {
				rt = e.rt
				// Eight threads queue on one mutex while its holder computes;
				// two more meet on a monitor, one waiting (with a timeout: a
				// serial scheduler never gets to the other), one notifying.
				for i := 0; i < 8; i++ {
					e.spawn(0, func(th *Thread) {
						th.Compute(gate)
						th.Lock(ids.NoSync, 1)
						th.Compute(ms)
						th.Unlock(ids.NoSync, 1)
					})
				}
				e.spawn(0, func(th *Thread) {
					th.Compute(gate)
					th.Lock(ids.NoSync, 2)
					th.WaitTimeout(2, 50*ms)
					th.Unlock(ids.NoSync, 2)
				})
				e.spawn(0, func(th *Thread) {
					th.Compute(20 * ms)
					th.Lock(ids.NoSync, 2)
					th.Notify(2)
					th.Unlock(ids.NoSync, 2)
				})
			})
			rt.External(func() {
				if len(rt.threads) != 0 || len(rt.order) != 0 {
					t.Fatalf("%d threads still registered", len(rt.threads))
				}
				for id, m := range rt.mutexes {
					if n := stale(m.waiters) + stale(m.condWaiters); n > 0 || len(m.waiters)+len(m.condWaiters) > 0 {
						t.Errorf("%s still references %d finished threads", id, n+len(m.waiters)+len(m.condWaiters))
					}
				}
				switch s := sched.(type) {
				case *MAT:
					for _, l := range s.lanes.sorted {
						if l.primary != nil || len(l.blockedPrimaries)+stale(l.blockedPrimaries) > 0 {
							t.Errorf("a MAT lane still references finished threads")
						}
					}
				case *PDS:
					for _, l := range s.lanes.sorted {
						if len(l.members)+stale(l.members) > 0 {
							t.Errorf("a PDS lane's pool still references finished threads")
						}
					}
				case *PMAT:
					if len(s.queue)+stale(s.queue) > 0 {
						t.Errorf("the PMAT queue still references finished threads")
					}
				}
			})
		})
	}
}
