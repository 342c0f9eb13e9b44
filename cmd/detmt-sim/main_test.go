package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceForDetmtTrace is the first half of the sim → trace pipeline:
// the report at seed 1 is stable (but for the wall-clock row), and the
// trace written with -trace is byte for byte the one detmt-trace's test
// reads (../detmt-trace/testdata/seed1.json).
func TestTraceForDetmtTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.json")
	var out strings.Builder
	if err := run(&out, []string{"-seed", "1", "-clients", "2", "-requests", "2", "-trace", path}); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(line, "real time to simulate") && !strings.HasPrefix(line, "trace written to") {
			got = append(got, line)
		}
	}
	want := `scheduler MAT, 3 replicas, 2 clients x 2 requests, seed 1

metric                  value
----------------------  -----
requests completed          4
mean latency [ms]       17.88
p50 latency [ms]        17.50
p95 latency [ms]        33.50
max latency [ms]        33.50
virtual makespan [ms]   51.00
throughput [req/s]       78.4
wire transfers             44
total-order broadcasts      8
direct messages            12
object state counter       40

replica schedules agree (hash 1339c17c0d808952)
`
	if g := strings.Join(got, "\n"); g != want {
		t.Errorf("report:\n%s\nwant:\n%s", g, want)
	}
	trace, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := os.ReadFile(filepath.Join("..", "detmt-trace", "testdata", "seed1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(trace, pinned) {
		t.Errorf("the seed-1 trace (%d bytes) differs from detmt-trace's testdata/seed1.json (%d bytes)", len(trace), len(pinned))
	}
}

func TestUnknownScheduler(t *testing.T) {
	if err := run(&strings.Builder{}, []string{"-scheduler", "BOGUS"}); !errors.Is(err, errUsage) {
		t.Fatalf("run(-scheduler BOGUS) = %v, want the usage error", err)
	}
}
