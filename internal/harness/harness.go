// Package harness defines the experiment suite that regenerates every
// figure and table of the paper's evaluation, plus the ablations listed
// in DESIGN.md (experiment index E1–E10). Each experiment runs on fresh
// virtual-clock clusters and renders its outcome as a text table or
// timeline, so `cmd/detmt-bench` and the benchmark suite can print the
// same series the paper reports.
package harness

import (
	"fmt"
	"sync"
	"time"

	"detmt/internal/analysis"
	"detmt/internal/core"
	"detmt/internal/earlysched"
	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/metrics"
	"detmt/internal/replica"
	"detmt/internal/trace"
	"detmt/internal/vclock"
	"detmt/internal/workload"
)

// Result is one experiment's rendered outcome.
type Result struct {
	ID    string // experiment id from DESIGN.md (e.g. "fig1")
	Title string
	Text  string
}

// SimOptions parameterises one simulated cluster run.
type SimOptions struct {
	Kind              replica.SchedulerKind
	Replicas          int
	Clients           int
	RequestsPerClient int
	Seed              uint64
	NetLatency        time.Duration
	NestedLatency     time.Duration
	Workload          workload.Fig1Config
	PDSWindow         int
	PDSRelaxed        bool
	DummyInterval     time.Duration // 0: no dummy pump
	// CrashSequencerAfter crashes the sequencer after this many completed
	// requests per client 1 (0: never). Used by the takeover experiment.
	CrashAfterWarmup bool
	DetectTimeout    time.Duration

	// Families switches the cluster to the family-partitioned workload
	// (workload.FamiliesSource) instead of Fig. 1 — the low-conflict
	// variant whose per-family lock footprints the earlysched classifier
	// can prove disjoint.
	Families *workload.FamilyConfig
	// EarlySched enables conflict-class early scheduling: the sequencer
	// stamps each request with its conflict class (earlysched.Classifier
	// over Lanes lanes) and replicas dispatch on it into per-class
	// scheduler lanes. Only MAT, MAT+LLA and PDS support it.
	EarlySched bool
	// StampClasses stamps conflict classes at the sequencer without the
	// replicas honouring them (implied by EarlySched): they admit
	// everything to class 0. A serial run of a class-stamped log is the
	// baseline the replay-equivalence tests re-admit through
	// class-parallel lanes.
	StampClasses bool
	// Lanes is the classifier's lane count (0: 4).
	Lanes int
}

// DefaultSim returns the baseline parameters: 3 replicas on a 500µs LAN,
// 12ms nested invocations, the paper's Fig. 1 workload.
func DefaultSim() SimOptions {
	return SimOptions{
		Kind:              replica.KindMAT,
		Replicas:          3,
		Clients:           4,
		RequestsPerClient: 3,
		Seed:              1,
		NetLatency:        500 * time.Microsecond,
		NestedLatency:     12 * time.Millisecond,
		Workload:          workload.DefaultFig1(),
		PDSWindow:         4,
		DetectTimeout:     50 * time.Millisecond,
	}
}

// SimResult captures the measurements of one cluster run.
type SimResult struct {
	Latency    *metrics.Sample // client-perceived per-request latency
	Makespan   time.Duration   // virtual time until the last reply
	Requests   int
	Transfers  int // point-to-point wire transfers
	Broadcasts int
	Directs    int
	// TakeoverLatency is the latency of the first request issued after
	// the sequencer crash (only with CrashAfterWarmup).
	TakeoverLatency time.Duration
	// StateTotal is the replicated object's final counter (sanity).
	StateTotal int64
	// Hashes are the per-replica schedule consistency hashes.
	Hashes []uint64
	// BookkeepingEvents counts lockinfo/ignore/loopdone trace events on
	// replica 1 — the prediction-overhead proxy of experiment E7.
	BookkeepingEvents int
	// Trace is replica 1's full scheduler trace (timelines, JSON export).
	Trace *trace.Trace
	// ClassStats are the survivor replica's per-class admission
	// counters (nil unless the run used EarlySched).
	ClassStats *core.ClassStats
	// Log is the survivor replica's recorded message log. Any classes the
	// sequencer stamped ride along in each entry, so the log can be
	// replayed under either admission discipline (replica.ReplayDetached)
	// to compare serial and class-parallel schedules over the exact same
	// total order.
	Log []replica.LogEntry
	// Snapshot is the survivor replica's final object state.
	Snapshot map[string]lang.Value
}

var analysisCache sync.Map // source -> *analysis.Result

func analyzed(src string) *analysis.Result {
	if v, ok := analysisCache.Load(src); ok {
		return v.(*analysis.Result)
	}
	res := analysis.MustAnalyze(lang.MustParse(src))
	analysisCache.Store(src, res)
	return res
}

// RunSim executes one cluster simulation to completion and returns its
// measurements. It panics with the virtual clock's diagnostic if the run
// genuinely deadlocks and aborts after a real-time watchdog.
func RunSim(o SimOptions) *SimResult {
	if o.Replicas <= 0 {
		o.Replicas = 3
	}
	src := workload.Fig1Source(o.Workload)
	if o.Families != nil {
		src = workload.FamiliesSource(*o.Families)
	}
	res := analyzed(src)
	v := vclock.NewVirtual()
	if o.Kind == replica.KindPDS || o.CrashAfterWarmup {
		// Leftover dummy threads legitimately starve at the last PDS
		// barrier, and a crashed replica's in-flight threads stay parked;
		// neither is a simulation bug.
		v.SetDeadlockHandler(func(string) {})
	}
	members := make([]ids.ReplicaID, o.Replicas)
	for i := range members {
		members[i] = ids.ReplicaID(i + 1)
	}
	gcfg := gcs.Config{
		Clock:         v,
		Members:       members,
		Latency:       o.NetLatency,
		DetectTimeout: o.DetectTimeout,
	}
	if o.EarlySched || o.StampClasses {
		lanes := o.Lanes
		if lanes <= 0 {
			lanes = 4
		}
		cls := earlysched.New(res, lanes)
		gcfg.Classify = func(p gcs.Payload) uint32 {
			switch x := p.(type) {
			case replica.Request:
				return cls.Classify(x.Method, x.Args)
			case replica.Dummy:
				return cls.DummyClass()
			}
			return 0
		}
	}
	g := gcs.NewGroup(gcfg)
	reps := make([]*replica.Replica, 0, o.Replicas)
	for _, id := range members {
		reps = append(reps, replica.New(replica.Config{
			ID:            id,
			Clock:         v,
			Group:         g,
			Analysis:      res,
			Kind:          o.Kind,
			PDSWindow:     o.PDSWindow,
			PDSRelaxed:    o.PDSRelaxed,
			EarlySched:    o.EarlySched,
			NestedLatency: o.NestedLatency,
		}))
		rep := reps[len(reps)-1]
		if len(reps) > 1 {
			// Only replica 1's events are read back (SimResult.Trace); of
			// the others RunSim reads the ConsistencyHash, which covers the
			// whole history however few events a trace keeps.
			rep.Runtime().Trace().SetRetention(1)
		}
		if o.Families != nil {
			for f := 0; f < o.Families.Families; f++ {
				rep.Instance().SetField(fmt.Sprintf("state%d", f), int64(0))
			}
			rep.Instance().SetField("gstate", int64(0))
		} else {
			rep.Instance().SetField("state", int64(0))
		}
	}

	out := &SimResult{Latency: &metrics.Sample{}}
	var mu sync.Mutex
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		if o.DummyInterval > 0 {
			reps[0].StartDummyPump(o.DummyInterval)
		}
		rootRNG := ids.NewRNG(o.Seed)
		grp := vclock.NewGroup(v)
		draw := func(rng *ids.RNG) (string, []lang.Value) {
			if o.Families != nil {
				return workload.FamilyArgs(*o.Families, rng)
			}
			return workload.MethodName, workload.Fig1Args(o.Workload, rng)
		}
		for ci := 0; ci < o.Clients; ci++ {
			cl := replica.NewClient(v, g, ids.ClientID(ci+1))
			rng := rootRNG.Fork()
			first := ci == 0
			grp.Go(func() {
				for k := 0; k < o.RequestsPerClient; k++ {
					method, args := draw(rng)
					_, lat, err := cl.Invoke(method, args...)
					if err != nil {
						panic(fmt.Sprintf("harness: invoke failed: %v", err))
					}
					mu.Lock()
					out.Latency.Add(lat)
					out.Requests++
					mu.Unlock()
				}
				if first && o.CrashAfterWarmup {
					g.Crash(members[0])
					method, args := draw(rng)
					_, lat, err := cl.Invoke(method, args...)
					if err != nil {
						panic(fmt.Sprintf("harness: post-crash invoke failed: %v", err))
					}
					mu.Lock()
					out.TakeoverLatency = lat
					out.Requests++
					mu.Unlock()
				}
			})
		}
		grp.Wait()
		mu.Lock()
		out.Makespan = v.Now()
		mu.Unlock()
		for _, r := range reps {
			r.StopDummyPump()
		}
		v.Sleep(2 * time.Second) // flush follower/straggler work
	})
	watchdog := time.AfterFunc(10*time.Minute, func() {
		panic("harness: simulation exceeded the real-time watchdog (deadlock?)")
	})
	<-done
	watchdog.Stop()

	out.Transfers, out.Broadcasts, out.Directs = g.Stats().Snapshot()
	survivor := reps[len(reps)-1]
	if o.Families != nil {
		for f := 0; f < o.Families.Families; f++ {
			if st, ok := survivor.Instance().GetField(fmt.Sprintf("state%d", f)).(int64); ok {
				out.StateTotal += st
			}
		}
		if st, ok := survivor.Instance().GetField("gstate").(int64); ok {
			out.StateTotal += st
		}
	} else if st, ok := survivor.Instance().GetField("state").(int64); ok {
		out.StateTotal = st
	}
	if cs, ok := survivor.ClassMetrics(); ok {
		out.ClassStats = &cs
	}
	out.Log = survivor.Log()
	out.Snapshot = survivor.Instance().Snapshot()
	for _, r := range reps {
		out.Hashes = append(out.Hashes, r.Runtime().Trace().ConsistencyHash())
	}
	out.Trace = reps[0].Runtime().Trace()
	out.Trace.Scan(func(e trace.Event) bool {
		if e.Kind == trace.KindLockInfo || e.Kind == trace.KindIgnore {
			out.BookkeepingEvents++
		}
		return true
	})
	return out
}
