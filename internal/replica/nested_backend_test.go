package replica

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"detmt/internal/analysis"
	"detmt/internal/backend"
	"detmt/internal/chaos"
	"detmt/internal/core"
	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/ring"
	"detmt/internal/vclock"
)

// failingBackend returns an in-process backend whose every call fails
// with an application error. Application errors are deterministic
// service answers: never retried, and the breaker treats them as
// successes.
func failingBackend() backend.ExternalBackend {
	f := chaos.NewFaults(1)
	f.SetErrorRate(1)
	return backend.NewInProcess(nil, f)
}

// downBackend returns an in-process backend that swallows every call
// (a hung service): the caller's deadline converts each into a
// transport timeout, which the policy retries and the breaker counts.
func downBackend() backend.ExternalBackend {
	f := chaos.NewFaults(1)
	f.SetDown(true)
	return backend.NewInProcess(nil, f)
}

// TestNestedAppErrorDeterministic drives a nested call against a
// backend that answers with an application error on every replica's
// schedule: the performer broadcasts a NestedErr outcome, every member
// resumes the thread with the same catchable error value, and the
// cluster still agrees bit-for-bit.
func TestNestedAppErrorDeterministic(t *testing.T) {
	c := newCluster(t, KindMAT, 3, func(cfg *Config) {
		cfg.Backend = failingBackend()
	})
	var value lang.Value
	c.drive(func() {
		client := NewClient(c.v, c.g, 1)
		v, _, err := client.Invoke("echoNested", int64(41))
		if err != nil {
			t.Errorf("invoke: %v", err)
		}
		value = v
	})
	ev, ok := value.(lang.ErrValue)
	if !ok {
		t.Fatalf("reply %v (%T), want a caught lang.ErrValue", value, value)
	}
	if !strings.Contains(string(ev), "injected backend error") {
		t.Fatalf("error value %q does not carry the backend's answer", ev)
	}
	c.assertConverged()
	c.assertSameSchedule()
	// One performer, one outcome: request + nested outcome broadcasts.
	_, broadcasts, _ := c.g.Stats().Snapshot()
	if broadcasts != 2 {
		t.Fatalf("broadcasts %d, want 2 (request + one nested outcome)", broadcasts)
	}
	if m := c.reps[1].NestedMetrics(); m.AppErrors != 1 || m.Performed != 1 {
		t.Fatalf("performer metrics %+v, want 1 performed / 1 app error", m)
	}
}

// TestNestedTimeoutDeterministic hangs the backend: the performer's
// per-call deadline expires, the retry budget drains, and the broadcast
// NestedTimeout outcome resumes every replica with the same error value
// instead of stalling the suspended thread forever.
func TestNestedTimeoutDeterministic(t *testing.T) {
	c := newCluster(t, KindMAT, 3, func(cfg *Config) {
		cfg.Backend = downBackend()
		cfg.NestedTimeout = 10 * time.Millisecond
		cfg.NestedRetries = 1
	})
	var value lang.Value
	c.drive(func() {
		client := NewClient(c.v, c.g, 1)
		v, _, err := client.Invoke("echoNested", int64(7))
		if err != nil {
			t.Errorf("invoke: %v", err)
		}
		value = v
	})
	if _, ok := value.(lang.ErrValue); !ok {
		t.Fatalf("reply %v (%T), want a caught lang.ErrValue", value, value)
	}
	c.assertConverged()
	c.assertSameSchedule()
	m := c.reps[1].NestedMetrics()
	if m.Timeouts != 1 {
		t.Fatalf("performer metrics %+v, want 1 timeout", m)
	}
	if m.Retries != 1 {
		t.Fatalf("performer metrics %+v, want 1 retry (budget of 1)", m)
	}
}

// TestNestedBreakerFastFail trips the breaker with repeated backend
// timeouts and checks that later nested calls fail fast — still as
// deterministic broadcast outcomes, so replicas agree on every
// fast-failed call too.
func TestNestedBreakerFastFail(t *testing.T) {
	c := newCluster(t, KindMAT, 3, func(cfg *Config) {
		cfg.Backend = downBackend()
		cfg.NestedTimeout = 5 * time.Millisecond
		cfg.NestedRetries = -1 // no retries: one failure per call
		cfg.BreakerThreshold = 2
		cfg.BreakerCooldown = time.Hour // stays open for the whole test
	})
	c.drive(func() {
		g := vclock.NewGroup(c.v)
		for i := 0; i < 4; i++ {
			i := i
			client := NewClient(c.v, c.g, ids.ClientID(i+1))
			g.Go(func() {
				v, _, err := client.Invoke("echoNested", int64(i))
				if err != nil {
					t.Errorf("invoke %d: %v", i, err)
				}
				if _, ok := v.(lang.ErrValue); !ok {
					t.Errorf("invoke %d: reply %v (%T), want an error value", i, v, v)
				}
			})
		}
		g.Wait()
	})
	c.assertConverged()
	c.assertSameSchedule()
	m := c.reps[1].NestedMetrics()
	if m.BreakerTrips == 0 || m.BreakerState != "open" {
		t.Fatalf("breaker never tripped: %+v", m)
	}
	if m.FastFails == 0 {
		t.Fatalf("no fast-failed calls despite an open breaker: %+v", m)
	}
	if m.Performed != 4 {
		t.Fatalf("performed %d outcomes, want 4", m.Performed)
	}
}

// TestRePerformOrdering pins down the view-change takeover contract:
// when a promoted performer re-runs the calls the dead performer left
// pending, it must issue them in (request, call-number) order — a
// deterministic sequence — even while fresh nested calls race in
// concurrently. The group has two members but only replica 2 is
// instantiated, so while member 1 (the designated performer) is alive
// every nested call parks unperformed; killing member 1 makes the
// group's failover adopt a new view and fire replica 2's re-perform.
func TestRePerformOrdering(t *testing.T) {
	v := vclock.NewVirtual()
	v.EnablePacing(true)
	res := analysis.MustAnalyze(lang.MustParse(bankSrc))
	g := gcs.NewGroup(gcs.Config{
		Clock:         v,
		Members:       []ids.ReplicaID{1, 2},
		Latency:       time.Millisecond,
		DetectTimeout: 10 * time.Millisecond,
	})
	var mu sync.Mutex
	var performedKeys []string
	be := backend.NewInProcess(func(key string, arg lang.Value) (lang.Value, error) {
		mu.Lock()
		performedKeys = append(performedKeys, key)
		mu.Unlock()
		return arg, nil
	}, nil)
	r := New(Config{
		ID:            2,
		Clock:         v,
		Group:         g,
		Analysis:      res,
		Kind:          KindMAT,
		NestedLatency: time.Millisecond,
		Backend:       be,
	})
	r.Instance().SetField("total", int64(0))

	const parked = 5
	var wg sync.WaitGroup
	invoke := func(client ids.ClientID, arg int64) {
		cl := NewClient(v, g, client)
		wg.Add(1)
		v.Go(func() {
			defer wg.Done()
			if _, _, err := cl.Invoke("echoNested", arg); err != nil {
				t.Errorf("client %v: invoke: %v", client, err)
			}
		})
	}
	for i := 0; i < parked; i++ {
		invoke(ids.ClientID(i+1), int64(i))
	}

	deadline := time.Now().Add(20 * time.Second)
	for {
		r.mu.Lock()
		n := len(r.waitingNest)
		r.mu.Unlock()
		if n == parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d nested calls parked", n, parked)
		}
		time.Sleep(2 * time.Millisecond)
	}
	r.mu.Lock()
	pending := make(map[string]bool, parked)
	for k := range r.waitingNest {
		pending[r.idemKey(k)] = true
	}
	r.mu.Unlock()

	// Member 1 dies. After DetectTimeout the group adopts the next view,
	// which fires replica 2's onViewChange and re-performs the parked
	// calls — while fresh nested calls race in concurrently.
	g.Crash(1)
	for i := 0; i < 3; i++ {
		invoke(ids.ClientID(parked+i+1), int64(parked+i))
	}
	wg.Wait()

	if got := r.NestedMetrics().RePerformed; got != parked {
		t.Fatalf("re-performed %d calls, want %d", got, parked)
	}
	mu.Lock()
	defer mu.Unlock()
	var reKeys []string
	for _, k := range performedKeys {
		if pending[k] {
			reKeys = append(reKeys, k)
		}
	}
	if len(reKeys) != parked {
		t.Fatalf("re-performed keys %v, want %d of them", reKeys, parked)
	}
	if !sort.SliceIsSorted(reKeys, func(i, j int) bool {
		return nestedKeyLess(t, reKeys[i], reKeys[j])
	}) {
		t.Fatalf("re-perform order %v not sorted by (request, call)", reKeys)
	}
}

// nestedKeyLess orders two idempotency keys by (request id, call number).
func nestedKeyLess(t *testing.T, a, b string) bool {
	t.Helper()
	var ar, an, br, bn uint64
	if _, err := fmt.Sscanf(a, "nested:%d:%d", &ar, &an); err != nil {
		t.Fatalf("bad idempotency key %q: %v", a, err)
	}
	if _, err := fmt.Sscanf(b, "nested:%d:%d", &br, &bn); err != nil {
		t.Fatalf("bad idempotency key %q: %v", b, err)
	}
	if ar != br {
		return ar < br
	}
	return an < bn
}

// TestDecisionTailEdges covers the windowed decision-log boundaries a
// rejoining follower can hit: a caller already caught up, a window that
// aged out underneath it, a request for the exact window start, and an
// unbounded (max <= 0) fetch.
func TestDecisionTailEdges(t *testing.T) {
	mk := func(idx uint64) LSADecision {
		return LSADecision{Index: idx, Event: core.LSAEvent{}}
	}
	r := &Replica{decIndex: 30, decLog: ring.New[LSADecision](decLogRetention)}
	r.decLog.Reset(11) // indices 1..10 aged out
	for i := uint64(11); i <= 30; i++ {
		r.decLog.Push(mk(i))
	}

	// Caller ahead of (or at) the frontier: caught up, nothing to send.
	if decs, more, ok := r.DecisionTail(31, 10); !ok || more || decs != nil {
		t.Fatalf("beyond frontier: decs=%v more=%v ok=%v, want nil/false/true", decs, more, ok)
	}

	// Aged-out start: the follower must fetch a checkpoint instead.
	if _, _, ok := r.DecisionTail(5, 10); ok {
		t.Fatal("aged-out fromIdx reported ok=true, want ok=false")
	}

	// Exact window start with a cap: the batch begins at the boundary.
	decs, more, ok := r.DecisionTail(11, 5)
	if !ok || !more || len(decs) != 5 || decs[0].Index != 11 || decs[4].Index != 15 {
		t.Fatalf("boundary fetch: decs=%d [%v..] more=%v ok=%v", len(decs), decs[0].Index, more, ok)
	}

	// max==0 disables the cap: the whole retained tail comes back.
	decs, more, ok = r.DecisionTail(11, 0)
	if !ok || more || len(decs) != 20 || decs[19].Index != 30 {
		t.Fatalf("uncapped fetch: decs=%d more=%v ok=%v", len(decs), more, ok)
	}

	// Last retained index alone.
	decs, more, ok = r.DecisionTail(30, 1)
	if !ok || more || len(decs) != 1 || decs[0].Index != 30 {
		t.Fatalf("frontier fetch: decs=%d more=%v ok=%v", len(decs), more, ok)
	}

	// Empty log: any in-window request is unanswerable.
	empty := &Replica{decIndex: 3}
	if _, _, ok := empty.DecisionTail(2, 1); ok {
		t.Fatal("empty log reported ok=true, want ok=false")
	}
}
