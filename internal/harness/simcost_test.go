package harness

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"detmt/internal/replica"
)

// simCell is one sim-fig1 cell: the paper's Fig. 1 workload, PDS with its
// dummy pump.
func simCell(kind replica.SchedulerKind, clients, requests int, seed uint64) *SimResult {
	o := DefaultFig1Options()
	o.Sim.RequestsPerClient = requests
	o.Sim.Seed = seed
	return Fig1Cell(o, kind, clients)
}

// simAllocs runs n cells at seed 7 and returns the bytes and objects the
// process allocated per simulated request.
func simAllocs(kind replica.SchedulerKind, clients, requests, n int) (bytes, objects float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		simCell(kind, clients, requests, 7)
	}
	runtime.ReadMemStats(&after)
	reqs := float64(n * clients * requests)
	return float64(after.TotalAlloc-before.TotalAlloc) / reqs, float64(after.Mallocs-before.Mallocs) / reqs
}

// BenchmarkRunSim reports what one simulated request costs, per scheduler,
// on 16 clients x 72 requests (one sim-fig1 cell). Profile one cell with
//
//	go test -run '^$' -bench 'RunSim/pds$' -benchtime 1x -memprofile mem.out ./internal/harness
func BenchmarkRunSim(b *testing.B) {
	for _, kind := range []replica.SchedulerKind{
		replica.KindSEQ, replica.KindSAT, replica.KindLSA,
		replica.KindPDS, replica.KindMAT, replica.KindPMAT,
	} {
		b.Run(strings.ToLower(string(kind)), func(b *testing.B) {
			bytes, objects := simAllocs(kind, 16, 72, b.N)
			b.ReportMetric(bytes, "B/req")
			b.ReportMetric(objects, "allocs/req")
		})
	}
}

// TestRunSimLeavesNothingBehind: once RunSim has returned, every goroutine
// it started has exited and what it allocated is garbage, so twelve more
// runs leave the live heap where one left it.
func TestRunSimLeavesNothingBehind(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	for _, kind := range []replica.SchedulerKind{replica.KindPDS, replica.KindLSA} {
		simCell(kind, 16, 2, 7) // fills the analysis cache, which lives on
		_, heap := settled(goroutines)
		for seed := uint64(201); seed <= 212; seed++ {
			simCell(kind, 16, 2, seed)
		}
		g, h := settled(goroutines)
		if g > goroutines {
			t.Errorf("%s: %d goroutines after 12 runs, %d before", kind, g, goroutines)
		}
		if h > heap+256<<10 {
			t.Errorf("%s: live heap %d KB after 12 runs, %d KB before", kind, h>>10, heap>>10)
		}
	}
}

// settled collects twice and returns the goroutine count and the live heap,
// waiting up to a few seconds for the goroutines to come down to want.
func settled(want int) (goroutines int, heap uint64) {
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		goroutines = runtime.NumGoroutine()
		if goroutines <= want || time.Now().After(deadline) {
			break
		}
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goroutines, ms.HeapAlloc
}
