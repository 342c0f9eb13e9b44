package replica

import (
	"time"

	"detmt/internal/analysis"
	"detmt/internal/vclock"
)

// Passive replication (paper Sect. 1): a primary executes all requests
// while backups merely record the totally ordered message log (Role ==
// RoleBackup). When the primary fails, a backup reconstructs the
// primary's state by re-executing the log — which is consistent with the
// failed primary *only because* the scheduler is deterministic. Replay
// reproduces the original delivery instants on the virtual clock, so
// even timing-sensitive strategies (MAT's promotions happen relative to
// thread progress) re-derive the same schedule.

// Replay re-executes a recorded log on a fresh, detached replica and
// returns it. Call from a managed goroutine; the caller should let the
// clock run to quiescence before inspecting the state. LSA logs cannot be
// replayed (the leader's decision stream is not part of the total order);
// use a deterministic scheduler kind.
func Replay(clock vclock.Clock, res *analysis.Result, kind SchedulerKind, pdsWindow int, log []LogEntry) *Replica {
	return ReplayDetached(clock, Config{
		Analysis:  res,
		Kind:      kind,
		PDSWindow: pdsWindow,
	}, log)
}

// ReplayDetached is Replay with full Config control, for replay modes the
// positional arguments cannot express — most importantly re-admitting a
// log under a different admission discipline: the recorded Message.Class
// of every entry rides along, so a log captured from a class-parallel
// cluster replays on a serial replica (and vice versa), which is how the
// hash-equivalence tests compare the two schedules over an identical
// total order. ID, Clock, Group and Role are overridden.
func ReplayDetached(clock vclock.Clock, cfg Config, log []LogEntry) *Replica {
	if cfg.Kind == KindLSA {
		panic("replica: LSA logs are not replayable without the decision stream")
	}
	cfg.ID = 1
	cfg.Clock = clock
	cfg.Group = nil // detached: no network, replies discarded
	cfg.Role = RoleActive
	r := New(cfg)
	clock.Go(func() { feedLog(clock, r, log) })
	return r
}

// feedLog re-delivers a recorded log with the live system's exact
// discipline: original inter-message delays, and each message applied
// only at a quiescent instant (gcs deliveries on a virtual clock do too),
// so the replayed admissions land at the same points relative to thread
// progress as they originally did.
func feedLog(clock vclock.Clock, r *Replica, log []LogEntry) {
	var gate vclock.Parker
	if v, ok := clock.(*vclock.Virtual); ok {
		gate = v.NewOrderedParker("replay feeder", ^uint64(0)-512)
	} else {
		gate = clock.NewParker()
	}
	var base, prev time.Duration
	if len(log) > 0 {
		base = log[0].At
	}
	for _, e := range log {
		rel := e.At - base
		if d := rel - prev; d > 0 {
			clock.Sleep(d)
		}
		prev = rel
		gate.ParkTimeout(0) // returns at the next quiescent instant
		r.apply(e.Msg)
	}
}

// ReplayFailover performs a checkpoint-aware failover from a backup: the
// fresh replica starts from the backup's latest checkpoint snapshot and
// replays only the log tail — the incremental-update scheme the paper
// attributes to passive replication systems.
func ReplayFailover(clock vclock.Clock, res *analysis.Result, kind SchedulerKind, pdsWindow int, backup *Replica) *Replica {
	snapshot, tail := backup.FailoverData()
	r := New(Config{
		ID:        1,
		Clock:     clock,
		Analysis:  res,
		Kind:      kind,
		PDSWindow: pdsWindow,
	})
	for k, v := range snapshot {
		r.in.SetField(k, v)
	}
	clock.Go(func() { feedLog(clock, r, tail) })
	return r
}
