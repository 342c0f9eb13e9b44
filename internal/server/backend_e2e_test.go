package server

import (
	"net"
	"testing"
	"time"

	"detmt/internal/backend"
	"detmt/internal/chaos"
	"detmt/internal/ids"
	"detmt/internal/replica"
	"detmt/internal/workload"
)

// pdsWindowFor picks the PDS pool size a real cluster needs (0 keeps
// the scheduler default for every other kind).
func pdsWindowFor(kind replica.SchedulerKind) int {
	if kind == replica.KindPDS {
		return 4
	}
	return 0
}

// startBackend boots a real detmt-backend-style TCP server with a fault
// switchboard, registered for cleanup.
func startBackend(t *testing.T, faults *chaos.Faults) *backend.Server {
	t.Helper()
	srv, err := backend.NewServer(backend.ServerOptions{
		Faults: faults,
		Logf:   debugLogf,
	})
	if err != nil {
		t.Fatalf("starting backend: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// catchWorkload is testWorkload with the fault-catching nested form: a
// failed external call increments the faults field instead of aborting
// the request, so runs against a faulty backend finish with zero
// client-visible errors.
func catchWorkload() workload.Fig1Config {
	wl := testWorkload()
	wl.CatchNested = true
	return wl
}

// backendFaultConvergence runs the Fig. 1 load over a real TCP backend
// that answers ~30% of calls with injected errors, and asserts the
// paper's core claim survives the external-service boundary: every
// replica finishes with a bit-identical consistency hash, because the
// performer's verdict — error or value — travels the total order.
func backendFaultConvergence(t *testing.T, kind replica.SchedulerKind, mut func(i int, o *Options)) {
	t.Helper()
	faults := chaos.NewFaults(7)
	faults.SetErrorRate(0.3)
	be := startBackend(t, faults)

	_, addrs := startClusterWith(t, 3, kind, func(i int, o *Options) {
		o.Workload = catchWorkload()
		o.Backend = be.Addr()
		o.NestedTimeout = 2 * time.Second
		o.Logf = debugLogf
		if mut != nil {
			mut(i, o)
		}
	})
	res, err := loadGroup(addrs, ShardClientOptions{Logf: debugLogf}, RunOptions{
		Clients:           2,
		RequestsPerClient: 4,
		Seed:              11,
		Gen:               workload.Fig1Gen(catchWorkload(), false),
		Timeout:           120 * time.Second,
		Logf:              debugLogf,
	})
	if err != nil {
		t.Fatalf("%s backend-fault run: %v", kind, err)
	}
	if res.Errors > 0 {
		t.Fatalf("%s: %d request errors despite the catching workload", kind, res.Errors)
	}
	if !res.Converged {
		t.Fatalf("%s: replicas diverged under backend faults: %+v", kind, res.PerShard[0].Statuses)
	}
	wantState := int64(2 * 4 * catchWorkload().Iterations)
	var performed, appErrs uint64
	for _, st := range res.PerShard[0].Statuses {
		if st.State != wantState {
			t.Fatalf("%s: replica %v state %d, want %d", kind, st.ID, st.State, wantState)
		}
		performed += st.Nested.Performed
		appErrs += st.Nested.AppErrors
	}
	if performed == 0 {
		t.Fatalf("%s: no nested calls reached the backend", kind)
	}
	if appErrs == 0 {
		t.Fatalf("%s: 30%% error rate injected but no application errors recorded", kind)
	}
	// Idempotency bookkeeping: the backend applied each distinct call
	// exactly once (the cache absorbs retries and re-performs).
	if applies, keys := be.Applies(), uint64(be.Stats()["cached_keys"].(int)); applies != keys {
		t.Fatalf("%s: backend applies %d != distinct keys %d", kind, applies, keys)
	}
}

func TestBackendFaultConvergenceMAT(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	backendFaultConvergence(t, replica.KindMAT, nil)
}

func TestBackendFaultConvergenceLSA(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	backendFaultConvergence(t, replica.KindLSA, nil)
}

func TestBackendFaultConvergencePDS(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	backendFaultConvergence(t, replica.KindPDS, func(i int, o *Options) {
		o.PDSWindow = 4
		o.PDSRelaxed = true
	})
}

// performerKillMidCall kills the performing replica (the sequencer)
// while external calls are in flight against a slow real backend. The
// promoted performer must re-perform the calls the dead one left
// pending — under the original idempotency keys, so the backend applies
// each logical call once — and the survivors must converge bit-for-bit.
func performerKillMidCall(t *testing.T, kind replica.SchedulerKind, mut func(i int, o *Options)) {
	t.Helper()
	faults := chaos.NewFaults(3)
	faults.SetDelay(250 * time.Millisecond) // keep calls in flight long enough to die mid-call
	be := startBackend(t, faults)

	servers, addrs := startClusterWith(t, 3, kind, func(i int, o *Options) {
		o.Backend = be.Addr()
		o.NestedTimeout = 5 * time.Second
		o.CheckpointEvery = 2
		o.Epoch = 1
		o.GossipInterval = 100 * time.Millisecond
		o.Logf = debugLogf
		if mut != nil {
			mut(i, o)
		}
	})

	type loadOut struct {
		res *RunResult
		err error
	}
	ch := make(chan loadOut, 1)
	go func() {
		res, err := loadGroup(addrs, ShardClientOptions{Logf: debugLogf}, RunOptions{
			Clients:           2,
			RequestsPerClient: 8,
			Seed:              5,
			Timeout:           180 * time.Second,
			Logf:              debugLogf,
		})
		ch <- loadOut{res, err}
	}()

	// Kill the sequencer/performer as soon as it has demonstrably run
	// external calls; with 250ms of injected backend latency, more are
	// almost certainly in flight at that instant.
	waitForStatus(t, servers[0], func(st Status) bool {
		return st.Nested.Performed >= 2
	}, "performer never reached the backend")
	servers[0].Close() // kill R1 — sequencer and performer

	waitForStatus(t, servers[1], func(st Status) bool {
		return st.View >= 1 && st.Sequencer == 2
	}, "R2 did not take over as sequencer")

	// Rejoin the dead performer as a follower of the new view — it must
	// replay the re-performed outcomes from the log (no backend calls)
	// and land on the survivors' exact hash.
	ln, err := net.Listen("tcp", addrs[1])
	if err != nil {
		t.Fatalf("rebinding %s: %v", addrs[1], err)
	}
	rejoined, err := New(Options{
		ID:              1,
		Listener:        ln,
		Peers:           map[ids.ReplicaID]string{2: addrs[2], 3: addrs[3]},
		Scheduler:       kind,
		Workload:        testWorkload(),
		NestedLatency:   2 * time.Millisecond,
		Tick:            2 * time.Millisecond,
		Backend:         be.Addr(),
		NestedTimeout:   5 * time.Second,
		CheckpointEvery: 2,
		Epoch:           2,
		Recover:         true,
		GossipInterval:  100 * time.Millisecond,
		PDSWindow:       pdsWindowFor(kind),
		PDSRelaxed:      kind == replica.KindPDS,
		Logf:            debugLogf,
	})
	if err != nil {
		t.Fatalf("restarting R1: %v", err)
	}
	defer rejoined.Close()

	out := <-ch
	if out.err != nil {
		t.Fatalf("%s load across performer kill: %v", kind, out.err)
	}
	if out.res.Errors > 0 {
		t.Fatalf("%s: %d request errors", kind, out.res.Errors)
	}
	if !out.res.Converged {
		t.Fatalf("%s: cluster did not converge after performer kill: %+v", kind, out.res.PerShard[0].Statuses)
	}
	for _, st := range out.res.PerShard[0].Statuses {
		if st.Hash != out.res.PerShard[0].Statuses[0].Hash {
			t.Fatalf("%s: hash fork after performer kill: %+v", kind, out.res.PerShard[0].Statuses)
		}
	}
	st2 := servers[1].Status()
	// The backend applied each distinct logical call exactly once even
	// though two different replicas performed calls across the takeover.
	if applies, keys := be.Applies(), uint64(be.Stats()["cached_keys"].(int)); applies != keys {
		t.Fatalf("%s: backend applies %d != distinct keys %d (double-applied side effects)",
			kind, applies, keys)
	}
	if st2.Nested.Performed == 0 {
		t.Fatalf("%s: promoted performer never performed: %+v", kind, st2.Nested)
	}
}

func TestPerformerKillMidCallMAT(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	performerKillMidCall(t, replica.KindMAT, nil)
}

func TestPerformerKillMidCallPDS(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	performerKillMidCall(t, replica.KindPDS, func(i int, o *Options) {
		o.PDSWindow = 4
		o.PDSRelaxed = true
	})
}

// TestBackendDownBreakerFastFail points the cluster at a backend that
// swallows every call. The performer's deadline turns each into a
// timeout, the circuit breaker trips, and later calls fail fast — all
// as deterministic broadcast outcomes the catching workload absorbs, so
// the run completes with zero errors, identical hashes, and no stalled
// threads.
func TestBackendDownBreakerFastFail(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	faults := chaos.NewFaults(1)
	faults.SetDown(true)
	be := startBackend(t, faults)

	_, addrs := startClusterWith(t, 3, replica.KindMAT, func(i int, o *Options) {
		o.Workload = catchWorkload()
		o.Backend = be.Addr()
		o.NestedTimeout = 50 * time.Millisecond
		o.NestedRetries = -1 // the breaker, not the retry budget, is under test
		o.BreakerThreshold = 2
		o.BreakerCooldown = time.Hour
		o.Logf = debugLogf
	})
	res, err := loadGroup(addrs, ShardClientOptions{Logf: debugLogf}, RunOptions{
		Clients:           2,
		RequestsPerClient: 4,
		Seed:              9,
		Gen:               workload.Fig1Gen(catchWorkload(), false),
		Timeout:           120 * time.Second,
		Logf:              debugLogf,
	})
	if err != nil {
		t.Fatalf("backend-down run: %v", err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d request errors: a dead backend must degrade, not fail requests", res.Errors)
	}
	if !res.Converged {
		t.Fatalf("replicas diverged with the backend down: %+v", res.PerShard[0].Statuses)
	}
	var fastFails, timeouts, trips uint64
	for _, st := range res.PerShard[0].Statuses {
		fastFails += st.Nested.FastFails
		timeouts += st.Nested.Timeouts
		trips += st.Nested.BreakerTrips
	}
	if timeouts < 2 {
		t.Fatalf("want >= 2 timeouts to trip the breaker, got %d", timeouts)
	}
	if trips == 0 {
		t.Fatal("breaker never tripped against a dead backend")
	}
	if fastFails == 0 {
		t.Fatal("no fast-failed calls despite an open breaker")
	}
	if applies := be.Applies(); applies != 0 {
		t.Fatalf("dead backend applied %d calls", applies)
	}
}

// TestChaosBackendErrorRate drives the error-rate knob through the same
// control path detmt-chaos uses (`-target backend -cmd "error-rate ..."`)
// while a load runs, then heals it — the cluster must absorb the whole
// episode deterministically.
func TestChaosBackendErrorRate(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	be := startBackend(t, chaos.NewFaults(5))

	_, addrs := startClusterWith(t, 3, replica.KindMAT, func(i int, o *Options) {
		o.Workload = catchWorkload()
		o.Backend = be.Addr()
		o.NestedTimeout = 2 * time.Second
		o.Logf = debugLogf
	})
	if _, err := backend.Control(be.Addr(), "chaos error-rate 0.5", 5*time.Second); err != nil {
		t.Fatalf("injecting error rate over the control channel: %v", err)
	}
	res, err := loadGroup(addrs, ShardClientOptions{Logf: debugLogf}, RunOptions{
		Clients:           2,
		RequestsPerClient: 4,
		Seed:              13,
		Gen:               workload.Fig1Gen(catchWorkload(), false),
		Timeout:           120 * time.Second,
		Logf:              debugLogf,
	})
	if err != nil {
		t.Fatalf("chaos-driven backend run: %v", err)
	}
	if res.Errors > 0 || !res.Converged {
		t.Fatalf("errors=%d converged=%v under chaos-injected backend faults", res.Errors, res.Converged)
	}
	if _, err := backend.Control(be.Addr(), "chaos heal", 5*time.Second); err != nil {
		t.Fatalf("healing over the control channel: %v", err)
	}
	var appErrs uint64
	for _, st := range res.PerShard[0].Statuses {
		appErrs += st.Nested.AppErrors
	}
	if appErrs == 0 {
		t.Fatal("50% injected error rate produced no application errors")
	}
}
