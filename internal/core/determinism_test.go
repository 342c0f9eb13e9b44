package core

import (
	"fmt"
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/lockpred"
	tracepkg "detmt/internal/trace"
)

// randProgram is a deterministic, deadlock-free synthetic workload: a set
// of threads, each with a fixed op sequence derived from the seed. Locks
// never nest across distinct mutexes (no lock-order cycles) and waits
// always carry a timeout, so every program terminates under every
// scheduler.
type randOp struct {
	kind    int // 0 compute, 1 lock/unlock CS, 2 nested, 3 timed wait, 4 notifyAll
	dur     time.Duration
	mutex   ids.MutexID
	sync    ids.SyncID
	inner   time.Duration // CS body duration
	notifyM ids.MutexID
}

type randThread struct {
	method ids.MethodID
	ops    []randOp
}

func genProgram(seed uint64, nThreads, nMutexes int) ([]randThread, *lockpred.StaticInfo) {
	rng := ids.NewRNG(seed)
	si := lockpred.NewStaticInfo()
	var threads []randThread
	for i := 0; i < nThreads; i++ {
		method := ids.MethodID(i + 1)
		mi := &lockpred.MethodInfo{Method: method}
		var ops []randOp
		nextSync := ids.SyncID(1)
		nOps := rng.Intn(6) + 2
		for j := 0; j < nOps; j++ {
			switch rng.Intn(10) {
			case 0, 1, 2: // compute
				ops = append(ops, randOp{kind: 0, dur: time.Duration(rng.Intn(4)+1) * ms})
			case 3, 4, 5, 6: // critical section
				sid := nextSync
				nextSync++
				mi.Entries = append(mi.Entries, lockpred.StaticEntry{Sync: sid, Spontaneous: true})
				ops = append(ops, randOp{
					kind:  1,
					mutex: ids.MutexID(rng.Intn(nMutexes)),
					sync:  sid,
					inner: time.Duration(rng.Intn(2)+1) * ms,
				})
			case 7, 8: // nested invocation
				ops = append(ops, randOp{kind: 2})
			case 9: // timed wait inside a CS
				sid := nextSync
				nextSync++
				mi.Entries = append(mi.Entries, lockpred.StaticEntry{Sync: sid, Spontaneous: true})
				ops = append(ops, randOp{
					kind:  3,
					mutex: ids.MutexID(rng.Intn(nMutexes)),
					sync:  sid,
					dur:   time.Duration(rng.Intn(3)+1) * ms,
				})
			}
		}
		si.Add(mi)
		threads = append(threads, randThread{method: method, ops: ops})
	}
	return threads, si
}

// runProgram runs one generated program and returns its consistency hash
// and makespan. Every thread body opens with the start gate, so all
// admissions precede every arrival: a relaxed PDS round's membership
// depends on whether a younger thread was admitted before or after its
// elders reached the barrier at the same virtual instant (see
// PDS.RequireFullPool). The replica path has no such race: admissions
// come from the one delivery goroutine.
func runProgram(t *testing.T, mk func() Scheduler, threads []randThread, si *lockpred.StaticInfo) (uint64, time.Duration) {
	t.Helper()
	return runLanes(t, mk, threads, si, 1)
}

// runLanes is runProgram with the threads dealt round-robin over `lanes`
// conflict classes, the global class 0 included. Every non-global class
// locks inside its own block of mutex ids — distinct classes have
// disjoint footprints, as the classifier guarantees — and global threads
// rotate over all blocks.
func runLanes(t *testing.T, mk func() Scheduler, threads []randThread, si *lockpred.StaticInfo, lanes int) (uint64, time.Duration) {
	t.Helper()
	tr, makespan := scenarioFull(t, mk(), si, 3*ms, func(e *env) {
		for i, rth := range threads {
			i, rth := i, rth
			class := uint32(i % lanes)
			e.spawnClass(class, rth.method, func(th *Thread) {
				th.Compute(gate)
				for j, op := range rth.ops {
					block := int(class)
					if class == 0 {
						block = (i + j) % lanes
					}
					m := op.mutex + ids.MutexID(16*block)
					switch op.kind {
					case 0:
						th.Compute(op.dur)
					case 1:
						th.Lock(op.sync, m)
						th.Compute(op.inner)
						th.Unlock(op.sync, m)
					case 2:
						th.Nested(nil)
					case 3:
						th.Lock(op.sync, m)
						th.WaitTimeout(m, op.dur)
						th.Unlock(op.sync, m)
					}
				}
			})
		}
	})
	checkMutualExclusion(t, tr)
	return tr.ConsistencyHash(), makespan
}

// programGridSeeds and gridProgram are the seed grid of the determinism
// properties: 400 programs covering 3–8 threads over 1–4 mutexes.
const programGridSeeds = 400

func gridProgram(seed uint64) ([]randThread, *lockpred.StaticInfo) {
	return genProgram(seed, 3+int(seed%6), 1+int(seed/6%4))
}

func deterministicSchedulers() map[string]func() Scheduler {
	return map[string]func() Scheduler{
		"SEQ":     func() Scheduler { return NewSEQ() },
		"SAT":     func() Scheduler { return NewSAT() },
		"MAT":     func() Scheduler { return NewMAT(false) },
		"MAT+LLA": func() Scheduler { return NewMAT(true) },
		"PMAT":    func() Scheduler { return NewPMAT() },
		"PDS":     func() Scheduler { return NewPDS(4, false) },
	}
}

// TestSchedulersAreDeterministic is the E10 property: the same program
// yields the same consistency hash on repeated runs, for every
// deterministic scheduler.
func TestSchedulersAreDeterministic(t *testing.T) {
	for name, mk := range deterministicSchedulers() {
		mk := mk
		t.Run(name, func(t *testing.T) {
			t.Parallel() // every scenario owns its clock and runtime
			for seed := uint64(1); seed <= programGridSeeds; seed++ {
				threads, si := gridProgram(seed)
				first, span := runProgram(t, mk, threads, si)
				for rep := 0; rep < 3; rep++ {
					if got, gotSpan := runProgram(t, mk, threads, si); got != first || gotSpan != span {
						t.Fatalf("seed %d rep %d: hash %x makespan %v != %x %v", seed, rep, got, gotSpan, first, span)
					}
				}
			}
		})
	}
}

// TestSchedulersAreDeterministicAcrossLanes is the same property with the
// merge barrier at work: the grid's programs dealt over four conflict
// classes terminate (a cross-lane wait cycle would time the scenario
// out) and repeat their schedule exactly.
func TestSchedulersAreDeterministicAcrossLanes(t *testing.T) {
	for name, mk := range map[string]func() Scheduler{
		"MAT":     func() Scheduler { return NewMAT(false) },
		"MAT+LLA": func() Scheduler { return NewMAT(true) },
		"PDS/W=1": func() Scheduler { return NewPDS(1, false) },
		"PDS/W=2": func() Scheduler { return NewPDS(2, false) },
		"PDS/W=4": func() Scheduler { return NewPDS(4, false) },
	} {
		mk := mk
		t.Run(name, func(t *testing.T) {
			t.Parallel() // every scenario owns its clock and runtime
			for seed := uint64(1); seed <= programGridSeeds; seed++ {
				threads, si := gridProgram(seed)
				first, span := runLanes(t, mk, threads, si, 4)
				if got, gotSpan := runLanes(t, mk, threads, si, 4); got != first || gotSpan != span {
					t.Fatalf("seed %d: hash %x makespan %v != %x %v", seed, got, gotSpan, first, span)
				}
			}
		})
	}
}

// TestSchedulersCompleteAllThreads checks liveness: every thread of every
// random program terminates under every scheduler (the virtual clock
// would report a deadlock otherwise).
func TestSchedulersCompleteAllThreads(t *testing.T) {
	for name, mk := range deterministicSchedulers() {
		mk := mk
		t.Run(name, func(t *testing.T) {
			t.Parallel() // every scenario owns its clock and runtime
			for seed := uint64(100); seed < 110; seed++ {
				threads, si := genProgram(seed, 6, 2)
				tr, _ := scenarioFull(t, mk(), si, 2*ms, func(e *env) {
					for _, rth := range threads {
						rth := rth
						e.spawn(rth.method, func(th *Thread) {
							for _, op := range rth.ops {
								switch op.kind {
								case 0:
									th.Compute(op.dur)
								case 1:
									th.Lock(op.sync, op.mutex)
									th.Unlock(op.sync, op.mutex)
								case 2:
									th.Nested(nil)
								case 3:
									th.Lock(op.sync, op.mutex)
									th.WaitTimeout(op.mutex, op.dur)
									th.Unlock(op.sync, op.mutex)
								}
							}
						})
					}
				})
				exits := tr.Filter(func(e tracepkg.Event) bool { return e.Kind == tracepkg.KindExit })
				if len(exits) != len(threads) {
					t.Fatalf("seed %d: %d of %d threads exited", seed, len(exits), len(threads))
				}
			}
		})
	}
}

// TestSchedulerLatencyOrdering pins the qualitative Fig. 1 relationship
// on a miniature workload: SEQ is slowest, SAT beats SEQ by using nested
// idle time, MAT beats SAT through parallel computation.
func TestSchedulerLatencyOrdering(t *testing.T) {
	makespan := func(mk func() Scheduler) time.Duration {
		_, mkspan := scenarioFull(t, mk(), nil, 12*ms, func(e *env) {
			for i := 0; i < 4; i++ {
				mid := ids.MutexID(i)
				e.spawn(0, func(th *Thread) {
					th.Nested(nil)
					th.Compute(3 * ms)
					th.Lock(ids.NoSync, mid)
					th.Compute(ms)
					th.Unlock(ids.NoSync, mid)
				})
			}
		})
		return mkspan
	}
	seq := makespan(func() Scheduler { return NewSEQ() })
	sat := makespan(func() Scheduler { return NewSAT() })
	mat := makespan(func() Scheduler { return NewMAT(false) })
	if !(mat < sat && sat < seq) {
		t.Fatalf("makespans MAT=%v SAT=%v SEQ=%v; want MAT < SAT < SEQ", mat, sat, seq)
	}
}

func ExampleSEQ_Name() {
	fmt.Println(NewSEQ().Name())
	// Output: SEQ
}
