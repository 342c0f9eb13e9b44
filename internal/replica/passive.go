package replica

import (
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
func Replay(clock *vclock.Virtual, res *analysis.Result, kind SchedulerKind, pdsWindow int, log []LogEntry) *Replica {
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
func ReplayDetached(clock *vclock.Virtual, cfg Config, log []LogEntry) *Replica {
	if cfg.Kind == KindLSA {
		panic("replica: LSA logs are not replayable without the decision stream")
	}
	cfg.ID = 1
	cfg.Clock = clock
	cfg.Group = nil // detached: no network, replies discarded
	cfg.Role = RoleActive
	r := New(cfg)
	feedLog(clock, r, log)
	return r
}

// feederRank is the rank of replayed entries among same-instant timers:
// after thread timers, sleeps, link arrivals and deliveries, before the
// runtime's nested resumes and wait timeouts (DESIGN §6 lists every rank).
const feederRank = ^uint64(0) - 512

// feedLog re-delivers a recorded log, from the clock's current instant on,
// with the live system's exact discipline: each entry is one clock event at
// its original offset from the first, ranked feederRank, so it is applied
// only at a quiescent instant (gcs deliveries on a virtual clock are too)
// and the replayed admissions land at the same points relative to thread
// progress as they originally did. Each event schedules the next, so
// entries at one instant apply in log order.
func feedLog(clock *vclock.Virtual, r *Replica, log []LogEntry) {
	if len(log) == 0 {
		return
	}
	start := clock.Now() - log[0].At
	var next func()
	next = func() {
		e := log[0]
		log = log[1:]
		r.apply(e.Msg)
		if len(log) > 0 {
			clock.ScheduleAt(start+log[0].At, feederRank, next)
		}
	}
	clock.ScheduleAt(start+log[0].At, feederRank, next)
}

// ReplayFailover performs a checkpoint-aware failover from a backup: the
// fresh replica starts from the backup's latest checkpoint snapshot and
// replays only the log tail — the incremental-update scheme the paper
// attributes to passive replication systems.
func ReplayFailover(clock *vclock.Virtual, res *analysis.Result, kind SchedulerKind, pdsWindow int, backup *Replica) *Replica {
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
	feedLog(clock, r, tail)
	return r
}
