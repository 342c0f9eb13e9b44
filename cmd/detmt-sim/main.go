// Command detmt-sim runs an interactive-scale simulation of one
// replicated object under a chosen deterministic scheduler and reports
// client latencies, network traffic, and replica agreement. It is the
// quickest way to poke at the system's behaviour from the command line.
//
// Usage:
//
//	detmt-sim -scheduler PMAT -clients 8 -requests 5 -mutexes 100
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"detmt/internal/harness"
	"detmt/internal/metrics"
	"detmt/internal/replica"
	"detmt/internal/trace"
	"detmt/internal/workload"
)

// errUsage reports bad flags (exit status 2).
var errUsage = errors.New("usage")

func main() {
	switch err := run(os.Stdout, os.Args[1:]); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "detmt-sim: %v\n", err)
		os.Exit(1)
	}
}

// run simulates the flags' configuration and writes the report to w; a
// divergence of the replicas' schedules is an error.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("detmt-sim", flag.ContinueOnError)
	scheduler := fs.String("scheduler", "MAT", "SEQ, SAT, LSA, PDS, MAT, MAT+LLA, or PMAT")
	clients := fs.Int("clients", 8, "number of concurrent clients")
	requests := fs.Int("requests", 5, "requests per client")
	mutexes := fs.Int("mutexes", 100, "size of the object's mutex set")
	iterations := fs.Int("iterations", 10, "loop iterations per request")
	seed := fs.Uint64("seed", 1, "workload seed")
	netLat := fs.Duration("net-latency", 500*time.Microsecond, "one-way network latency")
	nested := fs.Duration("nested-latency", 12*time.Millisecond, "external service duration")
	pNested := fs.Float64("p-nested", 0.2, "per-iteration nested invocation probability")
	pCompute := fs.Float64("p-compute", 0.2, "per-iteration local computation probability")
	gantt := fs.Bool("gantt", false, "render replica 1's thread timeline (best with few clients)")
	traceOut := fs.String("trace", "", "write replica 1's scheduler trace as JSON to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}

	kind := replica.SchedulerKind(*scheduler)
	valid := false
	for _, k := range replica.AllKinds() {
		if k == kind {
			valid = true
		}
	}
	if !valid {
		fmt.Fprintf(os.Stderr, "detmt-sim: unknown scheduler %q (want one of %v)\n", *scheduler, replica.AllKinds())
		return errUsage
	}

	o := harness.DefaultSim()
	o.Kind = kind
	o.Clients = *clients
	o.RequestsPerClient = *requests
	o.Seed = *seed
	o.NetLatency = *netLat
	o.NestedLatency = *nested
	o.Workload = workload.Fig1Config{
		Iterations:   *iterations,
		Mutexes:      *mutexes,
		PNested:      *pNested,
		PCompute:     *pCompute,
		ComputeDur:   1500 * time.Microsecond,
		Announceable: true,
	}
	if kind == replica.KindPDS {
		o.DummyInterval = 2 * time.Millisecond
		o.PDSWindow = 4
	}

	start := time.Now()
	r := harness.RunSim(o)
	wall := time.Since(start)

	fmt.Fprintf(w, "scheduler %s, %d replicas, %d clients x %d requests, seed %d\n\n",
		kind, 3, *clients, *requests, *seed)
	tb := metrics.NewTable("metric", "value")
	tb.Row("requests completed", r.Requests)
	tb.Row("mean latency [ms]", metrics.Ms(r.Latency.Mean()))
	tb.Row("p50 latency [ms]", metrics.Ms(r.Latency.Percentile(50)))
	tb.Row("p95 latency [ms]", metrics.Ms(r.Latency.Percentile(95)))
	tb.Row("max latency [ms]", metrics.Ms(r.Latency.Max()))
	tb.Row("virtual makespan [ms]", metrics.Ms(r.Makespan))
	tb.Row("throughput [req/s]", fmt.Sprintf("%.1f", float64(r.Requests)/r.Makespan.Seconds()))
	tb.Row("wire transfers", r.Transfers)
	tb.Row("total-order broadcasts", r.Broadcasts)
	tb.Row("direct messages", r.Directs)
	tb.Row("object state counter", r.StateTotal)
	tb.Row("real time to simulate", wall.Round(time.Millisecond).String())
	fmt.Fprintln(w, tb.String())

	if *gantt {
		fmt.Fprintln(w, "replica 1 timeline ('=' running, '?' lock-blocked, 'w' waiting, 'n' nested, letters = held mutex):")
		fmt.Fprintln(w, trace.Gantt{Width: 100}.Render(r.Trace))
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := r.Trace.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace written to %s (%d events)\n", *traceOut, r.Trace.Len())
	}

	for _, h := range r.Hashes[1:] {
		if h != r.Hashes[0] {
			fmt.Fprintf(w, "WARNING: replica schedules diverged: %x\n", r.Hashes)
			return errors.New("replica schedules diverged")
		}
	}
	fmt.Fprintf(w, "replica schedules agree (hash %016x)\n", r.Hashes[0])
	return nil
}
