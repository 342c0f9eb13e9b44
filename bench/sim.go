package main

// sim.go runs the paper's Fig. 1 point on the discrete-event virtual
// clock: 3 replicas, 16 clients, every scheduler. Virtual numbers repeat
// exactly for a seed, so a scheduler-policy change shows to the last
// digit; only the wall-clock cost of simulating varies between runs.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

const simClients = 16

// sweep is one pass over every scheduler.
type sweep struct {
	cells    map[string]simCell // by lower-case scheduler name
	requests int
	wall     time.Duration
	allocMB  float64 // bytes its heaviest cell allocated, MiB
	lanes    map[string]laneBreakdown
	lanesMs  float64 // wall spent decomposing traces (traced runs)
}

// runSweep simulates every scheduler once, each cell starting on a
// collected heap, and notes how many bytes the heaviest cell allocates
// (runSimFig1 says what for).
func runSweep(requestsPerClient int, seed uint64, traced bool) (*sweep, error) {
	sw := &sweep{cells: map[string]simCell{}, lanes: map[string]laneBreakdown{}}
	for _, k := range simKinds {
		debug.FreeOSMemory()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := runSimCell(k.kind, simClients, requestsPerClient, seed)
		runtime.ReadMemStats(&after)
		sw.allocMB = max(sw.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		for _, h := range c.hashes {
			if h != c.hashes[0] {
				return nil, fmt.Errorf("sim %s: replica hashes differ: %x", k.name, c.hashes)
			}
		}
		if want := simClients * requestsPerClient; c.requests != want {
			return nil, fmt.Errorf("sim %s: %d requests completed, want %d", k.name, c.requests, want)
		}
		if traced {
			t0 := time.Now()
			sw.lanes[k.name] = decomposeLanes(c.tr)
			sw.lanesMs += ms(time.Since(t0))
		}
		c.tr = nil // let the trace go before the next cell
		sw.cells[k.name] = c
		sw.requests += c.requests
		sw.wall += c.wall
	}
	return sw, nil
}

// simEndToEnd fills the end-to-end metrics that are read on the virtual
// clock from sweeps of the simulator; each is the mean over the sweeps
// (every sweep has its own inputs, drawn from the seed). On sim-fig1 they
// are eight of the ten. A socket workload does not simulate, but every run
// must print every end-to-end metric, so it calls this on small reference
// sweeps and then overwrites the metrics it measures at the sockets
// (workloads.go:socketEndToEnd): what remains are the five virtual-time
// metrics, at lower resolution.
func simEndToEnd(m metricSet, sweeps []*sweep) {
	meanOver := func(f func(*sweep) float64) float64 {
		vs := make([]float64, len(sweeps))
		for i, sw := range sweeps {
			vs[i] = f(sw)
		}
		return mean(vs)
	}
	for _, k := range simKinds {
		if k.name != "seq" { // SEQ is the per-layer baseline row
			m.set("virt_latency_ms_"+k.name, meanOver(func(sw *sweep) float64 { return sw.cells[k.name].meanMs }))
		}
	}

	// The simulated cluster under MAT, the scheduler the socket workloads
	// deploy: the same definitions on the virtual clock.
	mat := func(sw *sweep) simCell { return sw.cells["mat"] }
	m.set("latency_p50_ms", meanOver(func(sw *sweep) float64 { return mat(sw).p50Ms }))
	m.set("latency_p99_ms", meanOver(func(sw *sweep) float64 { return mat(sw).p99Ms }))
	m.set("goodput_rps", meanOver(func(sw *sweep) float64 { return float64(mat(sw).requests) / mat(sw).makespan.Seconds() }))
}

// layerMetrics fills the per-layer metrics a sweep yields.
func (sw *sweep) layerMetrics(m metricSet) {
	var transfers, broadcasts, events int
	for _, k := range simKinds {
		c := sw.cells[k.name]
		ln := sw.lanes[k.name]
		m.set("core.queued_virt_ms."+k.name, ln.queuedMs)
		m.set("core.blocked_virt_ms."+k.name, ln.blockedMs)
		m.set("core.nested_virt_ms."+k.name, ln.nestedMs)
		m.set("core.run_virt_ms."+k.name, ln.runMs)
		m.set("core.sim_wall_us_per_req."+k.name, c.wallUsPerReq())
		transfers += c.transfers
		broadcasts += c.broadcasts
		events += c.traceEvents
	}
	n := float64(sw.requests)
	m.set("sim_wall_us_per_req", float64(sw.wall)/float64(time.Microsecond)/n)
	m.set("core.virt_latency_ms_seq", sw.cells["seq"].meanMs)
	m.set("core.trace_events_per_req", float64(events)/n)
	m.set("gcs.msgs_per_req", float64(transfers)/n)
	m.set("gcs.broadcasts_per_req", float64(broadcasts)/n)
	pmat := sw.cells["pmat"]
	m.set("lockpred.bookkeeping_events_per_req", float64(pmat.bookkeeping)/float64(pmat.requests))
}

// simSweeps makes one sweep per round, each on inputs derived from the
// seed and the round: sweeps on different inputs average the virtual-time
// metrics far better than one longer sweep does, and what RunSim spends
// per request grows with the requests per client.
func simSweeps(seed uint64, requestsPerClient int, traced bool) ([]*sweep, error) {
	var sweeps []*sweep
	for r := 0; r < rounds; r++ {
		sw, err := runSweep(requestsPerClient, roundSeed(seed, r), traced)
		if err != nil {
			return nil, err
		}
		sweeps = append(sweeps, sw)
	}
	return sweeps, nil
}

// runSimFig1 is the sim-fig1 workload: 16 clients x 4 requests per second
// of run length per sweep. Set-up is what a process pays before its first
// simulated request — parsing and analysing the hosted object, then a
// two-request sweep that touches every scheduler — and is measured once
// per round.
//
// rss_mb is the resident set a sweep's heaviest cell reaches if nothing is
// collected while it runs: the resident set when set-up is done (the first
// time), on a collected heap with the freed pages handed back, plus the
// bytes that cell allocates (the median sweep's). The resident set read at some instant
// says where the collector's cycle happened to stand instead (34 MB after
// most sweeps and 61 MB after one in six, on the same inputs); and were the
// collector really switched off, the sweeps would be timed without its
// cost. Switched off for one trial, the resident set after each cell read
// within 2 % of this sum.
func runSimFig1(env *benchEnv, seed uint64, seconds int, traced bool) (*report, error) {
	rep := newReport()
	obj := paperObject()
	var setups []float64
	var self procSample
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		if err := analyzeObject(obj.source); err != nil {
			return nil, err
		}
		if _, err := runSweep(2, seed, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if r == 0 {
			// A process sets up once; the repeats are there to time it.
			debug.FreeOSMemory()
			var err error
			if self, err = sampleProc(os.Getpid()); err != nil {
				return nil, err
			}
		}
	}
	sweeps, err := simSweeps(seed, 4*seconds, traced)
	if err != nil {
		rep.fail(err)
		return rep, nil
	}
	var allocs []float64
	for _, sw := range sweeps {
		rep.attempted += sw.requests
		allocs = append(allocs, sw.allocMB)
	}
	simEndToEnd(rep.endToEnd, sweeps)
	rep.endToEnd.set("rss_mb", self.rssKB/1024+median(allocs))
	rep.endToEnd.set("setup_s", median(setups))

	if traced {
		l := rep.perLayer
		last := sweeps[len(sweeps)-1]
		last.layerMetrics(l)
		l.set("bench.trace_overhead_pct", 100*last.lanesMs/ms(last.wall))
		l.set("bench.samples", float64(rep.attempted))
		if err := stageMetrics(l, obj, seed); err != nil {
			return nil, err
		}
		l.set("bench.build_s", env.buildS)
	}
	return rep, nil
}
