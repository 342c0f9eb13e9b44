package replica

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/vclock"
)

// TestCheckpointedFailover exercises the paper's incremental passive
// replication: the primary broadcasts StateUpdate checkpoints at
// quiescent points; a backup fails over from the latest checkpoint plus
// the log tail instead of replaying everything.
func TestCheckpointedFailover(t *testing.T) {
	c := newCluster(t, KindMAT, 3, func(cfg *Config) {
		if cfg.ID == 1 {
			cfg.CheckpointEvery = 2
		} else {
			cfg.Role = RoleBackup
		}
	})
	c.drive(func() {
		client := NewClient(c.v, c.g, 1)
		for k := 0; k < 5; k++ {
			if _, _, err := client.Invoke("deposit", int64(k%8), int64(10)); err != nil {
				t.Errorf("deposit: %v", err)
			}
			// Sequential requests: the primary is quiescent after each,
			// so every CheckpointEvery-th completion checkpoints.
			c.v.Sleep(time.Millisecond)
		}
	})
	primary := c.reps[1].Instance().Snapshot()
	if primary["total"] != int64(50) {
		t.Fatalf("primary total %v", primary["total"])
	}

	backup := c.reps[2]
	snapshot, tail := backup.FailoverData()
	if snapshot == nil {
		t.Fatal("backup received no checkpoint")
	}
	// With CheckpointEvery=2 and 5 requests, the last checkpoint covers
	// request 4: the snapshot already holds 40 and the tail holds only
	// the 5th request (plus nothing else; deposits have no nested calls).
	if snapshot["total"] != int64(40) {
		t.Fatalf("checkpoint total %v, want 40", snapshot["total"])
	}
	fullLog := backup.Log()
	if len(tail) >= len(fullLog) {
		t.Fatalf("tail (%d entries) not shorter than the full log (%d)", len(tail), len(fullLog))
	}
	// The backup's own instance reflects the checkpoint.
	if got := backup.Instance().GetField("total"); got != int64(40) {
		t.Fatalf("backup installed state %v, want 40", got)
	}

	// Failover from checkpoint + tail reproduces the primary state.
	v2 := vclock.NewVirtual()
	done := make(chan struct{})
	var restored *Replica
	v2.Go(func() {
		defer close(done)
		restored = ReplayFailover(v2, c.res, KindMAT, 4, backup)
		v2.Sleep(2 * time.Second)
	})
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("failover replay timed out")
	}
	if !reflect.DeepEqual(restored.Instance().Snapshot(), primary) {
		t.Fatalf("restored %v != primary %v", restored.Instance().Snapshot(), primary)
	}
}

// TestCheckpointSkippedWhileBusy verifies the quiescence condition: with
// overlapping requests the primary defers checkpoints until no thread is
// in flight, so snapshots are never torn.
func TestCheckpointSkippedWhileBusy(t *testing.T) {
	c := newCluster(t, KindMAT, 2, func(cfg *Config) {
		if cfg.ID == 1 {
			cfg.CheckpointEvery = 1
		} else {
			cfg.Role = RoleBackup
		}
	})
	c.drive(func() {
		g := vclock.NewGroup(c.v)
		for ci := 0; ci < 4; ci++ {
			client := NewClient(c.v, c.g, ids.ClientID(ci+1))
			cell := int64(ci)
			g.Go(func() {
				if _, _, err := client.Invoke("slow", cell); err != nil {
					t.Errorf("slow: %v", err)
				}
			})
		}
		g.Wait()
	})
	backup := c.reps[2]
	snapshot, tail := backup.FailoverData()
	// Whatever checkpoints happened, failover must still reproduce the
	// primary exactly.
	_ = snapshot
	v2 := vclock.NewVirtual()
	done := make(chan struct{})
	var restored *Replica
	v2.Go(func() {
		defer close(done)
		restored = ReplayFailover(v2, c.res, KindMAT, 4, backup)
		v2.Sleep(2 * time.Second)
	})
	<-done
	if !reflect.DeepEqual(restored.Instance().Snapshot(), c.reps[1].Instance().Snapshot()) {
		t.Fatalf("restored %v != primary %v (tail %d entries)",
			restored.Instance().Snapshot(), c.reps[1].Instance().Snapshot(), len(tail))
	}
}

// TestFailoverWithoutCheckpointFallsBackToFullReplay covers the
// no-checkpoint path of FailoverData.
func TestFailoverWithoutCheckpointFallsBackToFullReplay(t *testing.T) {
	c := newCluster(t, KindSAT, 2, func(cfg *Config) {
		if cfg.ID != 1 {
			cfg.Role = RoleBackup
		}
	})
	c.drive(func() {
		client := NewClient(c.v, c.g, 1)
		if _, _, err := client.Invoke("deposit", int64(1), int64(7)); err != nil {
			t.Errorf("deposit: %v", err)
		}
	})
	backup := c.reps[2]
	snapshot, tail := backup.FailoverData()
	if snapshot != nil {
		t.Fatal("unexpected checkpoint")
	}
	if len(tail) != len(backup.Log()) {
		t.Fatalf("tail %d != full log %d", len(tail), len(backup.Log()))
	}
	var _ lang.Value // keep the import aligned with the other tests
}

// eagerClock makes the interleaving behind the stalled-checkpoint defect
// certain instead of rare: what Go is handed runs to its end before Go
// returns, whenever it can finish without blocking. A request thread whose
// body computes nothing therefore exits — and runs its done callback —
// before the delivery goroutine that submitted it takes its next step.
type eagerClock struct{ vclock.Clock }

func (c eagerClock) Go(fn func()) {
	done := make(chan struct{})
	c.Clock.Go(func() {
		defer close(done)
		fn()
	})
	select {
	case <-done:
	case <-time.After(2 * time.Millisecond): // it blocked: carry on beside it
	}
}

// TestCheckpointsKeepComing pins the cadence of periodic checkpoints under
// bodies that finish at once: every member reaches its sink at every
// CheckpointEvery-th completion for as long as requests arrive. A request
// still counted in flight after it had finished (its thread-table entry was
// stored after its done callback had removed it) made the quiescence guard
// false for good, and checkpoints silently stopped.
func TestCheckpointsKeepComing(t *testing.T) {
	const every, rounds = 5, 100
	var mu sync.Mutex
	last := map[ids.ReplicaID]uint64{}
	count := map[ids.ReplicaID]int{}
	c := newCluster(t, KindMAT, 3, func(cfg *Config) {
		id := cfg.ID
		cfg.Clock = eagerClock{cfg.Clock}
		cfg.CheckpointEvery = every
		cfg.CheckpointSink = func(seq uint64) {
			mu.Lock()
			last[id] = seq
			count[id]++
			mu.Unlock()
		}
	})
	c.drive(func() {
		client := NewClient(c.v, c.g, 1)
		for k := 0; k < every*rounds; k++ {
			if _, _, err := client.Invoke("totalOf"); err != nil {
				t.Errorf("totalOf: %v", err)
			}
			c.v.Sleep(time.Millisecond) // every member quiescent between requests
		}
	})
	mu.Lock()
	defer mu.Unlock()
	for id, r := range c.reps {
		// One client, one request at a time: every member is quiescent at
		// every completion, so no round may be skipped.
		if count[id] != rounds || last[id] != r.LastSeq() {
			t.Errorf("replica %v: %d checkpoints, the last at slot %d; want %d, the last at slot %d",
				id, count[id], last[id], rounds, r.LastSeq())
		}
	}
}
