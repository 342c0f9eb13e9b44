package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this tree")

// parse reads args the way main reads the command line.
func parse(t *testing.T, args ...string) *cli {
	t.Helper()
	fs := flag.NewFlagSet("detmt-bench", flag.ContinueOnError)
	c := flags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

// reports keeps each Write of run apart: one report a Write.
type reports []string

func (r *reports) Write(p []byte) (int, error) {
	*r = append(*r, string(p))
	return len(p), nil
}

// TestExperimentGoldens pins what `detmt-bench -experiment all` prints at
// the default flags (seed 1): the virtual-clock experiments, in list
// order, each the text of its file in testdata/golden, and nothing else.
// They run on the virtual clock alone: same seed, same text, on any
// machine. table1 carries the simulated takeover latency, so a change to
// the view change that moves the simulator's failover shows here first.
// Re-record with -update only for a change meant to move a number.
//
// Skipped under -short, which CI runs with -race: the Fig. 1 body updates
// one field under whichever mutex a client picked (ROADMAP item 1), so the
// race detector's slower interleavings can lose an update in replay's PMAT
// row, which then reads "state replayed false". CI runs it in a step of
// its own, without -race.
func TestExperimentGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("virtual experiment goldens (about 4 s)")
	}
	all, err := lookup("all")
	if err != nil {
		t.Fatal(err)
	}
	var got reports
	if err := parse(t, "-experiment", "all").run(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(all) {
		t.Fatalf("all printed %d reports, want one for each of its %d experiments", len(got), len(all))
	}
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(all) && !*update {
		t.Errorf("%d golden files for %d experiments in all", len(files), len(all))
	}
	for i, e := range all {
		t.Run(e.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", e.name+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got[i]), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != string(want) {
				t.Errorf("%s differs from %s:\n--- got\n%s\n--- want\n%s", e.name, path, got[i], want)
			}
		})
	}
}

// TestAllHonoursFlags: "all" runs each experiment with the options the
// flags set, so the Fig. 1 table it prints is the one -experiment fig1
// prints at the same flags. At one request of one client it is quick, and
// the replay row that can flake under -race is not compared.
func TestAllHonoursFlags(t *testing.T) {
	args := []string{"-clients", "1", "-requests", "1", "-seed", "7"}
	var all, fig1 reports
	if err := parse(t, append([]string{"-experiment", "all"}, args...)...).run(&all); err != nil {
		t.Fatal(err)
	}
	if err := parse(t, append([]string{"-experiment", "fig1"}, args...)...).run(&fig1); err != nil {
		t.Fatal(err)
	}
	if len(fig1) != 1 || !strings.HasPrefix(fig1[0], "==== fig1: ") {
		t.Fatalf("-experiment fig1 printed %q", fig1)
	}
	if all[0] != fig1[0] {
		t.Errorf("all's fig1 table differs from -experiment fig1 at %v:\n--- all\n%s\n--- fig1\n%s", args, all[0], fig1[0])
	}
}
