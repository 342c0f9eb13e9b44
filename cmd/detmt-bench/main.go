// Command detmt-bench regenerates the figures and tables of the paper's
// evaluation (see DESIGN.md's experiment index). Each experiment runs on
// deterministic virtual-clock simulations and prints its series as text.
//
// Usage:
//
//	detmt-bench -experiment fig1 -clients 1,2,4,8,16,32,48 -requests 4
//	detmt-bench -experiment all
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"detmt/internal/harness"
)

func main() {
	experiment := flag.String("experiment", "all",
		"which experiment to run: fig1, fig1tput, fig2, fig3, fig4, table1, wan, overhead, pds, replay, determinism, advisor, scaling, scenarios, hotpath, earlysched, recovery, openloop, ceiling, sharded, kvfacade (real sockets, not in 'all'), or all")
	clients := flag.String("clients", "1,2,4,8,16,32,48", "client counts for the fig1 sweep")
	requests := flag.Int("requests", 4, "requests per client")
	seed := flag.Uint64("seed", 1, "workload seed")
	duration := flag.Duration("duration", 0,
		"openloop/ceiling/sharded/kvfacade: measured window per run (0: experiment default 1.5s)")
	warmup := flag.Duration("warmup", 0,
		"openloop/ceiling/sharded/kvfacade: warmup before each measured window (0: experiment default 300ms)")
	jsonOut := flag.Bool("json", false, "emit results as a JSON array instead of text")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "detmt-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "detmt-bench: start cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "detmt-bench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "detmt-bench: write heap profile: %v\n", err)
			}
		}()
	}

	opts := harness.DefaultFig1Options()
	opts.Sim.RequestsPerClient = *requests
	opts.Sim.Seed = *seed
	if cs, err := parseInts(*clients); err != nil {
		fmt.Fprintf(os.Stderr, "detmt-bench: bad -clients: %v\n", err)
		os.Exit(2)
	} else {
		opts.Clients = cs
	}

	// Comma-separated experiment lists run in order and concatenate
	// their results into one array (e.g. -experiment openloop,ceiling
	// for the committed throughput snapshot).
	var results []harness.Result
	for _, name := range strings.Split(*experiment, ",") {
		results = append(results, runExperiment(strings.TrimSpace(name), opts, *duration, *warmup)...)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(os.Stderr, "detmt-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	for _, r := range results {
		fmt.Print(render(r))
	}
}

// render is an experiment's text report.
func render(r harness.Result) string {
	return fmt.Sprintf("==== %s: %s ====\n\n%s\n", r.ID, r.Title, r.Text)
}

func runExperiment(name string, opts harness.Fig1Options, duration, warmup time.Duration) []harness.Result {
	switch name {
	case "fig1":
		return []harness.Result{harness.Fig1(opts)}
	case "fig1tput":
		return []harness.Result{harness.Fig1Throughput(opts)}
	case "fig2":
		return []harness.Result{harness.Fig2()}
	case "fig3":
		return []harness.Result{harness.Fig3()}
	case "fig4":
		return []harness.Result{harness.Fig4()}
	case "table1":
		return []harness.Result{harness.Comparison()}
	case "wan":
		return []harness.Result{harness.WanSweep()}
	case "overhead":
		return []harness.Result{harness.PredictionOverhead()}
	case "pds":
		return []harness.Result{harness.PDSDummies()}
	case "replay":
		return []harness.Result{harness.Replay()}
	case "determinism":
		return []harness.Result{harness.Determinism()}
	case "advisor":
		return []harness.Result{harness.Advisor()}
	case "scaling":
		return []harness.Result{harness.ReplicaScaling()}
	case "scenarios":
		return []harness.Result{harness.Scenarios()}
	case "hotpath":
		return []harness.Result{harness.HotPath()}
	case "earlysched":
		return []harness.Result{harness.EarlySched(harness.DefaultEarlySchedOptions())}
	case "recovery":
		return []harness.Result{harness.Recovery()}
	case "openloop", "ceiling", "sharded", "kvfacade":
		oo := harness.DefaultOpenLoopOptions()
		if duration > 0 {
			oo.Duration = duration
		}
		if warmup > 0 {
			oo.Warmup = warmup
		}
		run := map[string]func(harness.OpenLoopOptions) harness.Result{
			"openloop": harness.OpenLoop, "ceiling": harness.Ceiling,
			"sharded": harness.Sharded, "kvfacade": harness.KVFacade,
		}[name]
		return []harness.Result{run(oo)}
	case "all":
		return harness.All()
	default:
		fmt.Fprintf(os.Stderr, "detmt-bench: unknown experiment %q\n", name)
		os.Exit(2)
		return nil
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("%q is not a positive integer", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
