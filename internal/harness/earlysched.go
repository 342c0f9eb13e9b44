package harness

import (
	"fmt"
	"strings"
	"time"

	"detmt/internal/lang"
	"detmt/internal/metrics"
	"detmt/internal/replica"
	"detmt/internal/vclock"
	"detmt/internal/workload"
)

// EarlySchedOptions parameterises the scheduler-comparison experiment for
// conflict-class early scheduling: serial admission versus class-parallel
// lanes, swept over the workload's conflict rate.
type EarlySchedOptions struct {
	Sim SimOptions
	// Lanes is the classifier lane count for the class-parallel runs.
	Lanes int
	// ConflictPcts are the swept cross-family request rates, in percent.
	ConflictPcts []int
}

// DefaultEarlySchedOptions runs MAT serial vs. class-parallel over the
// 4-family Fig. 1 variant at 0/25/75/100 % conflict. Nested invocations
// are disabled: the family workload's suspension-free shape is the one
// whose class-parallel schedule is provably hash-identical to serial
// admission, which lets the experiment assert equivalence as it measures.
func DefaultEarlySchedOptions() EarlySchedOptions {
	sim := DefaultSim()
	sim.Kind = replica.KindMAT
	sim.Clients = 16
	sim.RequestsPerClient = 4
	sim.NestedLatency = 0
	fam := workload.DefaultFamilies()
	sim.Families = &fam
	return EarlySchedOptions{Sim: sim, Lanes: 4, ConflictPcts: []int{0, 25, 75, 100}}
}

// replayFamilies re-executes a captured family-workload log on a fresh,
// detached replica under the requested admission discipline and returns
// the replayed schedule hash and final state. Because the log fixes the
// total order (and carries the sequencer-stamped classes), this is the
// apples-to-apples comparison the equivalence claim is about: a live
// serial and a live class-parallel cluster see *different* total orders —
// closed-loop clients submit request k+1 only after reply k, so faster
// replies reorder the sequencer's input — and their hashes legitimately
// differ. Over one shared log they must be bit-identical.
func replayFamilies(sim SimOptions, early bool, log []replica.LogEntry) (uint64, map[string]lang.Value) {
	res := analyzed(workload.FamiliesSource(*sim.Families))
	v := vclock.NewVirtual()
	var rep *replica.Replica
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		rep = replica.ReplayDetached(v, replica.Config{
			Analysis:   res,
			Kind:       sim.Kind,
			PDSWindow:  sim.PDSWindow,
			PDSRelaxed: sim.PDSRelaxed,
			EarlySched: early,
		}, log)
		for f := 0; f < sim.Families.Families; f++ {
			rep.Instance().SetField(fmt.Sprintf("state%d", f), int64(0))
		}
		rep.Instance().SetField("gstate", int64(0))
		v.Sleep(5 * time.Second)
	})
	<-done
	return rep.Runtime().Trace().ConsistencyHash(), rep.Instance().Snapshot()
}

// earlySchedSim derives the cluster options for one (conflict rate,
// admission mode) cell.
func earlySchedSim(o EarlySchedOptions, conflictPct int, early bool) SimOptions {
	sim := o.Sim
	fam := *sim.Families
	fam.PGlobal = float64(conflictPct) / 100
	sim.Families = &fam
	sim.EarlySched = early
	sim.Lanes = o.Lanes
	return sim
}

// EarlySchedCell runs one (conflict rate, admission mode) cell.
func EarlySchedCell(o EarlySchedOptions, conflictPct int, early bool) *SimResult {
	return RunSim(earlySchedSim(o, conflictPct, early))
}

// EarlySched regenerates the scheduler-comparison table: throughput of
// serial admission vs. class-parallel lanes as the conflict rate rises,
// plus the lane counters and the hash equivalence check — a serial
// replay of the class-parallel run's log must be bit-identical.
func EarlySched(o EarlySchedOptions) Result {
	tput := func(r *SimResult) float64 {
		if r.Makespan <= 0 {
			return 0
		}
		return float64(r.Requests) / r.Makespan.Seconds()
	}
	tb := metrics.NewTable("conflict %", "serial [req/s]", "lanes [req/s]", "speedup",
		"escalated", "parallel %", "merge stalls", "hash")
	for _, pct := range o.ConflictPcts {
		serial := EarlySchedCell(o, pct, false)
		laneSim := earlySchedSim(o, pct, true)
		lanes := RunSim(laneSim)
		st, lt := tput(serial), tput(lanes)
		speedup := 0.0
		if st > 0 {
			speedup = lt / st
		}
		// Equivalence check: every live replica must agree, and a serial
		// replay of the class-parallel run's log (the same total order)
		// must reproduce the same hash bit-for-bit. The serial *cell*
		// above sees a different total order — closed-loop clients — so
		// its hash is not comparable.
		hashOK := len(lanes.Hashes) > 0 && len(lanes.Log) > 0
		for _, h := range lanes.Hashes {
			if h != lanes.Hashes[0] {
				hashOK = false
			}
		}
		if hashOK {
			sh, _ := replayFamilies(laneSim, false, lanes.Log)
			hashOK = sh == lanes.Hashes[0]
		}
		hash := "=="
		if !hashOK {
			hash = "DIVERGED"
		}
		var escal uint64
		parallel := 0.0
		var stalls uint64
		if cs := lanes.ClassStats; cs != nil {
			escal = cs.Escalations
			parallel = cs.ParallelRatio() * 100
			stalls = cs.MergeStalls
		}
		tb.Row(pct, fmt.Sprintf("%.1f", st), fmt.Sprintf("%.1f", lt),
			fmt.Sprintf("%.2fx", speedup), escal, fmt.Sprintf("%.0f", parallel), stalls, hash)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Conflict-class early scheduling: %s serial vs. %d-lane class-parallel admission\n",
		o.Sim.Kind, o.Lanes)
	fmt.Fprintf(&b, "(%d-family workload, %d clients x %d requests, seed %d; hash column asserts a\nserial replay of the class-parallel run's total order is bit-identical)\n\n",
		o.Sim.Families.Families, o.Sim.Clients, o.Sim.RequestsPerClient, o.Sim.Seed)
	b.WriteString(tb.String())
	b.WriteString("\nExpected shape: near-linear speedup at 0% conflict (disjoint classes fill\nall lanes), degrading gracefully to ~1x at 100% (every request escalates to\nthe global class and the merge barrier serialises admission).\n")
	return Result{ID: "earlysched", Title: "Conflict-class early scheduling — serial vs. class-parallel",
		Text: b.String()}
}
