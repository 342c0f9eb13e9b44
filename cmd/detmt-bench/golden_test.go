package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"detmt/internal/harness"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this tree")

// virtualExperiments are the experiments that run on the virtual clock
// alone: same seed, same text, on any machine. table1 carries the
// simulated takeover latency, so a change to the view change that moves
// the simulator's failover shows here first.
var virtualExperiments = []string{
	"fig1", "fig1tput", "fig2", "fig3", "fig4", "table1", "wan", "overhead",
	"pds", "replay", "determinism", "advisor", "scaling", "scenarios", "earlysched",
}

// TestExperimentGoldens pins the text of every virtual experiment at the
// default flags (seed 1), recorded before the view change became a state
// machine. Re-record with -update only for a change meant to move a number.
//
// Skipped under -short, which CI runs with -race: the Fig. 1 body updates
// one field under whichever mutex a client picked (ROADMAP item 1), so the
// race detector's slower interleavings can lose an update in replay's PMAT
// row, which then reads "state replayed false".
func TestExperimentGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("virtual experiment goldens (about 4 s)")
	}
	opts := harness.DefaultFig1Options()
	opts.Sim.Seed = 1
	for _, name := range virtualExperiments {
		t.Run(name, func(t *testing.T) {
			var got string
			for _, r := range runExperiment(name, opts, 0, 0) {
				got += render(r)
			}
			path := filepath.Join("testdata", "golden", name+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s differs from %s:\n--- got\n%s\n--- want\n%s", name, path, got, want)
			}
		})
	}
}
