// Command detmt-bench regenerates the figures and tables of the paper's
// evaluation (see DESIGN.md's experiment index) and prints each as text.
// The virtual-clock experiments are deterministic simulations; the socket
// experiments boot real detmt-server processes on loopback.
//
// Usage:
//
//	detmt-bench -experiment fig1 -clients 1,2,4,8,16,32,48 -requests 4
//	detmt-bench -experiment all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"detmt/internal/harness"
)

// experiment is one report of the suite.
type experiment struct {
	name string
	// sockets: it boots real processes on loopback and paces them in wall
	// time, so "all" leaves it out.
	sockets bool
	run     func(harness.Fig1Options) harness.Result
}

// fixed adapts an experiment that takes no options.
func fixed(f func() harness.Result) func(harness.Fig1Options) harness.Result {
	return func(harness.Fig1Options) harness.Result { return f() }
}

// openLoop adapts a throughput experiment, which runs at its defaults.
func openLoop(f func(harness.OpenLoopOptions) harness.Result) func(harness.Fig1Options) harness.Result {
	return func(harness.Fig1Options) harness.Result { return f(harness.DefaultOpenLoopOptions()) }
}

// experiments is every experiment, in the order "all" runs the virtual
// ones. The -experiment help text and the golden test read it.
var experiments = []experiment{
	{"fig1", false, harness.Fig1},
	{"fig1tput", false, harness.Fig1Throughput},
	{"fig2", false, fixed(harness.Fig2)},
	{"fig3", false, fixed(harness.Fig3)},
	{"fig4", false, fixed(harness.Fig4)},
	{"table1", false, fixed(harness.Comparison)},
	{"wan", false, fixed(harness.WanSweep)},
	{"overhead", false, fixed(harness.PredictionOverhead)},
	{"pds", false, fixed(harness.PDSDummies)},
	{"replay", false, fixed(harness.Replay)},
	{"determinism", false, fixed(harness.Determinism)},
	{"advisor", false, fixed(harness.Advisor)},
	{"scaling", false, fixed(harness.ReplicaScaling)},
	{"scenarios", false, fixed(harness.Scenarios)},
	{"earlysched", false, fixed(func() harness.Result { return harness.EarlySched(harness.DefaultEarlySchedOptions()) })},
	{"recovery", true, fixed(harness.Recovery)},
	{"openloop", true, openLoop(harness.OpenLoop)},
	{"ceiling", true, openLoop(harness.Ceiling)},
	{"sharded", true, openLoop(harness.Sharded)},
	{"kvfacade", true, openLoop(harness.KVFacade)},
}

// cli is what the command line sets.
type cli struct {
	experiment string
	clients    string
	requests   int
	seed       uint64
	cpuProfile string
	memProfile string
}

func flags(fs *flag.FlagSet) *cli {
	var virtual, sockets []string
	for _, e := range experiments {
		if e.sockets {
			sockets = append(sockets, e.name)
		} else {
			virtual = append(virtual, e.name)
		}
	}
	c := &cli{}
	fs.StringVar(&c.experiment, "experiment", "all",
		"comma-separated experiments to run in order: "+strings.Join(virtual, ", ")+
			", all (every one before it), or "+strings.Join(sockets, ", ")+" (real sockets, not in all)")
	fs.StringVar(&c.clients, "clients", "1,2,4,8,16,32,48", "client counts for the fig1 sweep")
	fs.IntVar(&c.requests, "requests", 4, "requests per client")
	fs.Uint64Var(&c.seed, "seed", 1, "workload seed")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile at exit to this file")
	return c
}

func main() {
	c := flags(flag.CommandLine)
	flag.Parse()

	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
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
	if c.memProfile != "" {
		defer func() {
			f, err := os.Create(c.memProfile)
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

	if err := c.run(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "detmt-bench: %v\n", err)
		os.Exit(2)
	}
}

// run prints each named experiment's report to w, one Write a report.
// Every name is checked before the first experiment runs.
func (c *cli) run(w io.Writer) error {
	opts := harness.DefaultFig1Options()
	opts.Sim.RequestsPerClient = c.requests
	opts.Sim.Seed = c.seed
	cs, err := parseInts(c.clients)
	if err != nil {
		return fmt.Errorf("bad -clients: %v", err)
	}
	opts.Clients = cs

	var todo []experiment
	for _, name := range strings.Split(c.experiment, ",") {
		exps, err := lookup(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		todo = append(todo, exps...)
	}
	for _, e := range todo {
		if _, err := io.WriteString(w, render(e.run(opts))); err != nil {
			return err
		}
	}
	return nil
}

// lookup returns the experiments one name stands for.
func lookup(name string) ([]experiment, error) {
	if name == "all" {
		var all []experiment
		for _, e := range experiments {
			if !e.sockets {
				all = append(all, e)
			}
		}
		return all, nil
	}
	for _, e := range experiments {
		if e.name == name {
			return []experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q", name)
}

// render is an experiment's text report.
func render(r harness.Result) string {
	return fmt.Sprintf("==== %s: %s ====\n\n%s\n", r.ID, r.Title, r.Text)
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
