package core_test

import (
	"testing"
	"time"

	"detmt/internal/harness"
	"detmt/internal/replica"
)

// TestOneLaneIsSerialFig1 pins the paper's Fig. 1 point (3 replicas, 16
// clients) under the published PDS — full-pool barriers fed by the dummy
// pump, the one configuration the generated programs of
// TestOneLaneIsSerial cannot reach — through the whole replica path. A
// replica without early scheduling must schedule a class-stamped log
// (requests and dummies) exactly like an unstamped one.
func TestOneLaneIsSerialFig1(t *testing.T) {
	const (
		goldenHash     = uint64(0x846f165256bffc25)
		goldenMakespan = 219500 * time.Microsecond
		goldenMean     = 46281250 * time.Nanosecond
	)
	for _, stamped := range []bool{false, true} {
		sim := harness.DefaultSim()
		sim.Kind = replica.KindPDS
		sim.Clients = 16
		sim.PDSWindow = 8
		sim.DummyInterval = 2 * time.Millisecond
		sim.StampClasses = stamped
		r := harness.RunSim(sim)
		for i, h := range r.Hashes {
			if h != goldenHash {
				t.Errorf("stamped=%v replica %d: hash %#x, golden %#x", stamped, i+1, h, goldenHash)
			}
		}
		if r.Makespan != goldenMakespan || r.Latency.Mean() != goldenMean {
			t.Errorf("stamped=%v: makespan %v mean latency %v, golden %v %v",
				stamped, r.Makespan, r.Latency.Mean(), goldenMakespan, goldenMean)
		}
	}
}
