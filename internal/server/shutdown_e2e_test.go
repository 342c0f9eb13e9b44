package server

import (
	"fmt"
	"testing"
	"time"

	"detmt/internal/replica"
	"detmt/internal/workload"
)

// TestCleanShutdownNoBreakerTrips pins the multi-tenant teardown order:
// closing a cross-shard process while nested calls are in flight must
// not count breaker trips or timeouts into the shutdown totals. Before
// the ordered teardown (detach tenant backends -> drain gateways ->
// close tenants), a tenant could still be performing into a gateway
// that had already gone away, and the resulting ErrUnavailable was
// charged to the breaker as if the backend had failed.
func TestCleanShutdownNoBreakerTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket sharded test")
	}
	const shards = 2
	base := reserveBasePorts(t, 2*shards)
	wl := workload.Fig1Config{
		Iterations:   4,
		Mutexes:      10,
		PNested:      0.6, // most requests cross the shard boundary
		PCompute:     0.2,
		ComputeDur:   200 * time.Microsecond,
		Announceable: true,
	}
	m, err := NewMulti(MultiOptions{
		Template: Options{
			ID:            1,
			Listen:        fmt.Sprintf("127.0.0.1:%d", base),
			Scheduler:     replica.KindMAT,
			Workload:      wl,
			NestedLatency: 5 * time.Millisecond,
			NestedTimeout: 15 * time.Second,
			Tick:          2 * time.Millisecond,
			Logf:          debugLogf,
		},
		Shards:   shards,
		RingSeed: 42,
		XShard:   true,
		EpochDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("starting multi-tenant server: %v", err)
	}

	// Drive load from a goroutine; the run will NOT complete — the point
	// is to close the process while cross-shard calls are in flight.
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		loadShards(m.Ring(), ShardClientOptions{EpochDir: t.TempDir(), Logf: debugLogf}, RunOptions{
			Clients:           4,
			RequestsPerClient: 200,
			Seed:              99,
			Gen:               workload.Fig1Gen(wl, true),
			// The run never completes; once the server is closed this is
			// all the last line waits for.
			Timeout: 3 * time.Second,
			Logf:    debugLogf,
		})
	}()

	// Wait until nested calls are actually flowing on every shard.
	deadline := time.Now().Add(30 * time.Second)
	for {
		flowing := true
		for k := 0; k < shards; k++ {
			if m.Tenant(k).Status().Nested.Performed < 2 {
				flowing = false
			}
		}
		if flowing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("nested calls never started flowing")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := m.Close(); err != nil {
		t.Fatalf("clean shutdown: %v", err)
	}
	for k := 0; k < shards; k++ {
		nm := m.Tenant(k).Status().Nested
		if nm.BreakerTrips != 0 {
			t.Fatalf("shard %d counted %d breaker trips during clean shutdown (state %s)",
				k, nm.BreakerTrips, nm.BreakerState)
		}
		if nm.Timeouts != 0 {
			t.Fatalf("shard %d counted %d nested timeouts during clean shutdown", k, nm.Timeouts)
		}
		if nm.FastFails != 0 {
			t.Fatalf("shard %d counted %d breaker fast-fails during clean shutdown", k, nm.FastFails)
		}
	}
	<-loadDone
}
