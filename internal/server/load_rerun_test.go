package server

import (
	"sync"
	"testing"
	"time"

	"detmt/internal/replica"
)

// TestLoadEpochNoCollision pins the wire-epoch allocator's contract:
// epochs for the same transport name must be strictly increasing even
// when many generators start within the same wall-clock tick. A
// wall-clock-only epoch collides under exactly this race, and the loser
// is swallowed by the servers as a stale incarnation.
func TestLoadEpochNoCollision(t *testing.T) {
	dir := t.TempDir()
	const n = 64
	var mu sync.Mutex
	var wg sync.WaitGroup
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := nextLoadEpoch(dir, "load")
			mu.Lock()
			defer mu.Unlock()
			if seen[e] {
				t.Errorf("epoch %d allocated twice", e)
			}
			seen[e] = true
		}()
	}
	wg.Wait()
	if len(seen) != n {
		t.Fatalf("%d distinct epochs for %d allocations", len(seen), n)
	}
	// A later allocation (fresh tick) still lands above all earlier ones.
	max := uint64(0)
	for e := range seen {
		if e > max {
			max = e
		}
	}
	if e := nextLoadEpoch(dir, "load"); e <= max {
		t.Fatalf("follow-up epoch %d not above previous max %d", e, max)
	}
}

// TestSequentialLoadRuns drives two load-generator incarnations against
// the same cluster. The second run must be treated as a fresh incarnation
// at both layers that remember the first: the wire transport (same name
// "load", higher epoch resets dedup) and the replicas' duplicate
// suppression (disjoint ClientBase, since request identity is
// client-scoped). Regression test: without either, the second run's
// requests are silently swallowed and the run times out.
func TestSequentialLoadRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	_, addrs := startClusterWith(t, 3, replica.KindMAT, func(i int, o *Options) {
		o.CheckpointEvery = 2
		o.Epoch = 1
	})
	for phase := 1; phase <= 2; phase++ {
		res, err := loadGroup(addrs, ShardClientOptions{ClientBase: phase * 10}, RunOptions{
			Clients:           1,
			RequestsPerClient: 4,
			Seed:              uint64(phase),
			Timeout:           30 * time.Second,
		})
		if err != nil {
			t.Fatalf("load run %d: %v", phase, err)
		}
		if !res.Converged {
			t.Fatalf("load run %d did not converge: %+v", phase, res.PerShard[0].Statuses)
		}
	}
}
