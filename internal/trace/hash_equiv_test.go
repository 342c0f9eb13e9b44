package trace

import (
	"math/rand"
	"sync"
	"testing"

	"detmt/internal/ids"
)

// Reference implementations: the original full-scan hash definitions the
// incremental versions must stay bit-identical to. Any change to the
// incremental folding in Record must be mirrored here, and vice versa.

func refDecisionHash(events []Event) uint64 {
	h := uint64(fnvOffset)
	for _, e := range events {
		if !e.Kind.Decision() {
			continue
		}
		h = fnvStep(h, uint64(e.Thread))
		h = fnvStep(h, uint64(e.Kind))
		h = fnvStep(h, uint64(int64(e.Sync)))
		h = fnvStep(h, uint64(int64(e.Mutex)))
		h = fnvStep(h, uint64(e.Arg))
	}
	return h
}

func refConsistencyHash(events []Event) uint64 {
	chains := map[chainKey]uint64{}
	for _, e := range events {
		if !e.Kind.Decision() {
			continue
		}
		var k chainKey
		switch e.Kind {
		case KindLockAcq, KindLockRel, KindWaitBegin, KindWaitEnd, KindNotify, KindNotifyAll:
			k = chainKey{mutex: e.Mutex}
		default:
			k = chainKey{mutex: ids.NoMutex, thread: e.Thread}
		}
		h, ok := chains[k]
		if !ok {
			h = fnvStep(fnvStep(fnvOffset, uint64(int64(k.mutex))), uint64(k.thread))
		}
		h = fnvStep(h, uint64(e.Thread))
		h = fnvStep(h, uint64(e.Kind))
		h = fnvStep(h, uint64(int64(e.Sync)))
		h = fnvStep(h, uint64(int64(e.Mutex)))
		h = fnvStep(h, uint64(e.Arg))
		chains[k] = h
	}
	var out uint64
	for _, h := range chains {
		out ^= h
	}
	return out
}

// genThreadEvents produces a randomized, contract-respecting event
// sequence for one thread: monitor decisions on the thread's own mutex,
// lifecycle decisions, interleaved non-decision noise, and (optionally)
// a final Exit — never an event after Exit, matching the runtime's
// guarantee that Exit is a thread's last recorded event.
func genThreadEvents(rng *rand.Rand, tid ids.ThreadID, mid ids.MutexID, n int, exit bool) []Event {
	monitor := []Kind{KindLockAcq, KindLockRel, KindWaitBegin, KindWaitEnd, KindNotify, KindNotifyAll}
	lifecycle := []Kind{KindAdmit, KindStart, KindNestedBegin, KindNestedEnd, KindPredicted}
	noise := []Kind{KindLockReq, KindPromote, KindLockInfo, KindIgnore, KindCompute, KindBarrier}
	out := make([]Event, 0, n+1)
	for i := 0; i < n; i++ {
		e := Event{Thread: tid, Arg: int64(rng.Intn(64)), Sync: ids.SyncID(rng.Intn(8))}
		switch rng.Intn(3) {
		case 0:
			e.Kind = monitor[rng.Intn(len(monitor))]
			e.Mutex = mid
		case 1:
			e.Kind = lifecycle[rng.Intn(len(lifecycle))]
			e.Mutex = ids.NoMutex
		default:
			e.Kind = noise[rng.Intn(len(noise))]
			e.Mutex = mid
		}
		out = append(out, e)
	}
	if exit {
		out = append(out, Event{Thread: tid, Kind: KindExit, Mutex: ids.NoMutex, Sync: ids.NoSync})
	}
	return out
}

// TestHashEquivalenceSequential drives one randomized sequence through a
// trace and checks both incremental hashes against the full-scan
// references, at every prefix length.
func TestHashEquivalenceSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := New()
	var all []Event
	for tid := 1; tid <= 5; tid++ {
		all = append(all, genThreadEvents(rng, ids.ThreadID(tid), ids.MutexID(tid%3), 200, true)...)
	}
	for i, e := range all {
		tr.Record(e)
		if i%97 == 0 || i == len(all)-1 {
			if got, want := tr.DecisionHash(), refDecisionHash(all[:i+1]); got != want {
				t.Fatalf("prefix %d: DecisionHash %016x, reference %016x", i+1, got, want)
			}
			if got, want := tr.ConsistencyHash(), refConsistencyHash(all[:i+1]); got != want {
				t.Fatalf("prefix %d: ConsistencyHash %016x, reference %016x", i+1, got, want)
			}
		}
	}
}

// TestHashEquivalenceConcurrent hammers one trace from many goroutines
// (each writing its own thread/mutex chains, as real schedulers do from
// under the decision lock) and checks the incremental hashes against
// references computed from the observed global order — plus the
// order-independence of ConsistencyHash across disjoint chains.
func TestHashEquivalenceConcurrent(t *testing.T) {
	for _, retention := range []int{0, 2048} {
		tr := New()
		tr.SetRetention(retention)
		const goroutines = 8
		perThread := make([][]Event, goroutines)
		rng := rand.New(rand.NewSource(42))
		for g := 0; g < goroutines; g++ {
			perThread[g] = genThreadEvents(rng, ids.ThreadID(g+1), ids.MutexID(g+100), 1500, true)
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(evs []Event) {
				defer wg.Done()
				for _, e := range evs {
					tr.Record(e)
				}
			}(perThread[g])
		}
		wg.Wait()

		// ConsistencyHash is order-independent across disjoint chains, so
		// the expected value is computable without knowing the global
		// interleaving: hash each goroutine's sequence alone and XOR.
		var want uint64
		for g := 0; g < goroutines; g++ {
			want ^= refConsistencyHash(perThread[g])
		}
		if got := tr.ConsistencyHash(); got != want {
			t.Fatalf("retention=%d: concurrent ConsistencyHash %016x, want %016x", retention, got, want)
		}

		total := 0
		for g := 0; g < goroutines; g++ {
			total += len(perThread[g])
		}
		if got := tr.TotalRecorded(); got != uint64(total) {
			t.Fatalf("retention=%d: TotalRecorded %d, want %d", retention, got, total)
		}
		if retention > 0 {
			if tr.Len() > retention+chunkBytes/6 { // an event takes at least 6 bytes of a chunk
				t.Fatalf("retention=%d: %d events retained", retention, tr.Len())
			}
			if tr.Dropped() == 0 {
				t.Fatalf("retention=%d: nothing was dropped", retention)
			}
			if int(tr.Dropped())+tr.Len() != total {
				t.Fatalf("retention=%d: dropped %d + retained %d != total %d",
					retention, tr.Dropped(), tr.Len(), total)
			}
		} else {
			// Unbounded: the observed global order is fully retained, so
			// the order-sensitive DecisionHash is checkable too.
			all := tr.Events()
			if got, want := tr.DecisionHash(), refDecisionHash(all); got != want {
				t.Fatalf("concurrent DecisionHash %016x, reference %016x", got, want)
			}
			if got, want := tr.ConsistencyHash(), refConsistencyHash(all); got != want {
				t.Fatalf("concurrent ConsistencyHash %016x, full-scan reference %016x", got, want)
			}
		}
	}
}

// TestHashEquivalenceBoundedReplay replays one recorded global order
// into a tightly bounded trace and checks that retention discards
// events without perturbing either full-history hash.
func TestHashEquivalenceBoundedReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var all []Event
	for tid := 1; tid <= 4; tid++ {
		all = append(all, genThreadEvents(rng, ids.ThreadID(tid), ids.MutexID(tid), 3000, true)...)
	}
	bounded := New()
	bounded.SetRetention(512)
	for _, e := range all {
		bounded.Record(e)
	}
	if got, want := bounded.DecisionHash(), refDecisionHash(all); got != want {
		t.Fatalf("bounded DecisionHash %016x, reference %016x", got, want)
	}
	if got, want := bounded.ConsistencyHash(), refConsistencyHash(all); got != want {
		t.Fatalf("bounded ConsistencyHash %016x, reference %016x", got, want)
	}
	if bounded.Len() >= len(all) {
		t.Fatalf("retention kept everything (%d events)", bounded.Len())
	}
	tail := bounded.Events()
	if len(tail) != bounded.Len() {
		t.Fatalf("Events() returned %d, Len() %d", len(tail), bounded.Len())
	}
	// The retained window is exactly the tail of the recorded order.
	off := len(all) - len(tail)
	for i, e := range tail {
		if e != all[off+i] {
			t.Fatalf("retained window event %d mismatch", i)
		}
	}
}
