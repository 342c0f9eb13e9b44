package replica

import (
	"runtime"
	"testing"
	"time"

	"detmt/internal/analysis"
	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/vclock"
)

// TestSteadyStateIsFlat is the guard against per-request state coming
// back: three replicas serve 40 000 light requests of 16 clients on the
// virtual clock (8 000 with -short), and what the process holds after the
// last three quarters of them is what it held before. Live heap is compared
// after a forced collection; the tables that used to grow with every
// request are read directly.
func TestSteadyStateIsFlat(t *testing.T) {
	const (
		clients   = 16
		retention = 512
		traceKept = 4096
	)
	perClient := 2500 // 40 000 requests
	if testing.Short() {
		perClient = 500
	}
	v := vclock.NewVirtual()
	res := analysis.MustAnalyze(lang.MustParse(bankSrc))
	members := []ids.ReplicaID{1, 2, 3}
	g := gcs.NewGroup(gcs.Config{Clock: v, Members: members, Latency: time.Millisecond,
		DetectTimeout: 20 * time.Millisecond, SeqRetention: retention})
	reps := make([]*Replica, len(members))
	for i, id := range members {
		reps[i] = New(Config{ID: id, Clock: v, Group: g, Analysis: res, Kind: KindMAT})
		reps[i].Instance().SetField("total", int64(0))
		reps[i].Runtime().Trace().SetRetention(traceKept)
	}

	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second cycle frees what the first one's finalizers and sweeps released
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var atQuarter uint64
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		cs := make([]*Client, clients)
		for i := range cs {
			cs[i] = NewClient(v, g, ids.ClientID(i+1))
		}
		round := func(n int) {
			grp := vclock.NewGroup(v)
			for i, c := range cs {
				c, cell := c, int64(i%8)
				grp.Go(func() {
					for k := 0; k < n; k++ {
						// Two locks, one of them shared by all sixteen
						// clients: every request queues on a mutex.
						if _, _, err := c.Invoke("deposit", cell, int64(1)); err != nil {
							t.Errorf("deposit: %v", err)
							return
						}
					}
				})
			}
			grp.Wait()
			v.Sleep(time.Second) // the followers finish, replies drain
		}
		round(perClient / 4)
		atQuarter = liveHeap()
		round(perClient - perClient/4)
	})
	select {
	case <-done:
	case <-time.After(10 * time.Minute):
		t.Fatal("timed out in real time")
	}
	atEnd := liveHeap()

	total := clients * perClient
	if grown := float64(atEnd)/float64(atQuarter) - 1; grown > 0.10 {
		t.Errorf("live heap %d B after %d requests, %d B after %d (%+.1f%%): something still grows with every request",
			atQuarter, total/4, atEnd, total, grown*100)
	} else {
		t.Logf("live heap %d B after %d requests, %d B after %d (%+.1f%%)", atQuarter, total/4, atEnd, total, grown*100)
	}
	for i, r := range reps {
		if r.Completed() != total {
			t.Fatalf("replica %v completed %d of %d", members[i], r.Completed(), total)
		}
		h := g.Node(members[i]).Held()
		if h.Origins != clients || h.MaxRuns != 1 {
			t.Errorf("replica %v: %d origins in the sequencing dedup, the longest set %d runs; want %d and 1", members[i], h.Origins, h.MaxRuns, clients)
		}
		if h.SeqLog > retention || h.Holdback != 0 || h.Pending != 0 {
			t.Errorf("replica %v retains %+v with SeqRetention %d", members[i], h, retention)
		}
		r.mu.Lock()
		if len(r.seenReqs) != clients {
			t.Errorf("replica %v: %d clients in the request dedup, want %d", members[i], len(r.seenReqs), clients)
		}
		for c, set := range r.seenReqs {
			if set.Len() != 1 {
				t.Errorf("replica %v: client %v's applied requests are %d runs", members[i], c, set.Len())
			}
		}
		if r.inFlight != 0 || len(r.nestedCount) != 0 {
			t.Errorf("replica %v: %d in flight, %d nested counters", members[i], r.inFlight, len(r.nestedCount))
		}
		r.mu.Unlock()
		if kept := len(r.Runtime().Trace().Events()); kept > 2*traceKept {
			t.Errorf("replica %v keeps %d trace events with retention %d", members[i], kept, traceKept)
		}
	}
}
