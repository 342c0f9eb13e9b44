package harness

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/metrics"
	"detmt/internal/replica"
	"detmt/internal/vclock"
	"detmt/internal/workload"
)

// ReplayResult captures the passive-replication experiment E8.
type ReplayResult struct {
	StateMatches    bool
	ScheduleMatches bool
	LogEntries      int
	PrimaryMakespan time.Duration
}

// RunReplay executes a workload against a primary + two logging backups,
// then replays a backup's log on a fresh clock and compares state and
// schedule with the failed primary — the deterministic re-execution that
// makes multithreading safe for passive replication (paper Sect. 1).
func RunReplay(kind replica.SchedulerKind, clients, requests int, seed uint64) ReplayResult {
	res := analyzed(workload.Fig1Source(workload.DefaultFig1()))
	v := vclock.NewVirtual()
	members := []ids.ReplicaID{1, 2, 3}
	g := gcs.NewGroup(gcs.Config{Clock: v, Members: members, Latency: 500 * time.Microsecond})
	reps := map[ids.ReplicaID]*replica.Replica{}
	for _, id := range members {
		role := replica.RoleBackup
		if id == 1 {
			role = replica.RoleActive
		}
		reps[id] = replica.New(replica.Config{
			ID: id, Clock: v, Group: g, Analysis: res, Kind: kind,
			Role: role, NestedLatency: 12 * time.Millisecond,
		})
		reps[id].Instance().SetField("state", int64(0))
	}
	done := make(chan struct{})
	var makespan time.Duration
	v.Go(func() {
		defer close(done)
		grp := vclock.NewGroup(v)
		rootRNG := ids.NewRNG(seed)
		cfg := workload.DefaultFig1()
		for ci := 0; ci < clients; ci++ {
			cl := replica.NewClient(v, g, ids.ClientID(ci+1))
			rng := rootRNG.Fork()
			grp.Go(func() {
				for k := 0; k < requests; k++ {
					if _, _, err := cl.Invoke(workload.MethodName, workload.Fig1Args(cfg, rng)...); err != nil {
						panic(fmt.Sprintf("harness: %v", err))
					}
				}
			})
		}
		grp.Wait()
		makespan = v.Now()
		v.Sleep(time.Second)
	})
	<-done

	primaryState := reps[1].Instance().Snapshot()
	primaryHash := reps[1].Runtime().Trace().ConsistencyHash()
	log := reps[2].Log()

	// Failover: replay the backup's log on a fresh virtual clock.
	v2 := vclock.NewVirtual()
	var replayed *replica.Replica
	done2 := make(chan struct{})
	v2.Go(func() {
		defer close(done2)
		replayed = replica.Replay(v2, res, kind, 4, log)
		replayed.Instance().SetField("state", int64(0))
		v2.Sleep(5 * time.Second)
	})
	<-done2

	return ReplayResult{
		StateMatches:    reflect.DeepEqual(replayed.Instance().Snapshot(), primaryState),
		ScheduleMatches: replayed.Runtime().Trace().ConsistencyHash() == primaryHash,
		LogEntries:      len(log),
		PrimaryMakespan: makespan,
	}
}

// Replay renders experiment E8 for a set of scheduler kinds.
func Replay() Result {
	tb := metrics.NewTable("algorithm", "log entries", "state replayed", "schedule replayed")
	for _, kind := range []replica.SchedulerKind{replica.KindSEQ, replica.KindSAT, replica.KindMAT, replica.KindPMAT} {
		r := RunReplay(kind, 3, 2, 11)
		tb.Row(string(kind), r.LogEntries, fmt.Sprintf("%v", r.StateMatches), fmt.Sprintf("%v", r.ScheduleMatches))
	}
	var b strings.Builder
	b.WriteString("Passive replication: deterministic re-execution from the request log (E8)\n")
	b.WriteString("Primary executes, backups log; a backup replay must reproduce the\n")
	b.WriteString("primary's state — the paper's motivation for deterministic scheduling\n")
	b.WriteString("in passive replication.\n\n")
	b.WriteString(tb.String())
	return Result{ID: "replay", Title: "E8 — passive replication replay", Text: b.String()}
}
