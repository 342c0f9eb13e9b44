// Command detmt-trace inspects scheduler traces exported by
// `detmt-sim -trace file.json`.
//
// With one file it prints summary statistics, the decision log (-log),
// and/or the thread timeline (-gantt). With two files it compares them:
// identical consistency hashes certify that both runs drove every
// monitor through the same critical-section order; otherwise the first
// diverging decision is printed.
//
// Usage:
//
//	detmt-trace run.json                 # summary
//	detmt-trace -gantt run.json          # thread timeline
//	detmt-trace -log run.json            # full decision log
//	detmt-trace a.json b.json            # replica/rerun comparison
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"detmt/internal/trace"
)

// errUsage reports bad arguments (exit status 2).
var errUsage = errors.New("usage")

func main() {
	switch err := run(os.Stdout, os.Args[1:]); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "detmt-trace: %v\n", err)
		os.Exit(1)
	}
}

// run inspects or compares the traces named in args and writes the report
// to w; two traces that diverge are an error.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("detmt-trace", flag.ContinueOnError)
	gantt := fs.Bool("gantt", false, "render the thread timeline")
	htmlOut := fs.String("html", "", "write an SVG timeline page to this file")
	logOut := fs.Bool("log", false, "print the full event log")
	width := fs.Int("width", 100, "timeline width in columns")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: detmt-trace [flags] trace.json [other.json]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fs.Usage()
		return errUsage
	}

	tr, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	if fs.NArg() == 2 {
		other, err := load(fs.Arg(1))
		if err != nil {
			return err
		}
		return compare(w, tr, other)
	}

	summarise(w, fs.Arg(0), tr)
	if *logOut {
		fmt.Fprint(w, tr.String())
	}
	if *gantt {
		fmt.Fprint(w, trace.Gantt{Width: *width}.Render(tr))
	}
	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err != nil {
			return err
		}
		if err := tr.WriteHTML(f, fs.Arg(0)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "timeline written to %s\n", *htmlOut)
	}
	return nil
}

func load(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := trace.ReadJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

func summarise(w io.Writer, path string, tr *trace.Trace) {
	events := tr.Events()
	byKind := map[string]int{}
	threads := map[uint64]bool{}
	for _, e := range events {
		byKind[e.Kind.String()]++
		threads[uint64(e.Thread)] = true
	}
	fmt.Fprintf(w, "%s: %d events, %d threads\n", path, len(events), len(threads))
	if len(events) > 0 {
		fmt.Fprintf(w, "span: %v .. %v\n", events[0].At, events[len(events)-1].At)
	}
	fmt.Fprintf(w, "consistency hash: %016x\n", tr.ConsistencyHash())
	for _, k := range []string{"admit", "start", "lockacq", "lockrel", "waitbegin", "waitend", "notify", "nestedbegin", "exit", "predicted", "promote", "barrier"} {
		if n := byKind[k]; n > 0 {
			fmt.Fprintf(w, "  %-12s %d\n", k, n)
		}
	}
}

func compare(w io.Writer, a, b *trace.Trace) error {
	ha, hb := a.ConsistencyHash(), b.ConsistencyHash()
	if ha == hb {
		fmt.Fprintf(w, "traces agree: consistency hash %016x\n", ha)
		fmt.Fprintln(w, "(every monitor saw the same critical-section order;")
		fmt.Fprintln(w, " the runs lead to identical replicated state)")
		return nil
	}
	fmt.Fprintf(w, "traces DIVERGE: %016x vs %016x\n", ha, hb)
	if idx, ea, eb, ok := trace.FirstDivergence(a, b); ok {
		fmt.Fprintf(w, "first differing decision (global order) at index %d:\n", idx)
		fmt.Fprintf(w, "  a: %v\n  b: %v\n", ea, eb)
	}
	return errors.New("traces diverge")
}
