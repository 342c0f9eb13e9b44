//go:build !race

package harness

import (
	"testing"

	"detmt/internal/replica"
)

// TestSimAllocBudget holds the simulator to what a simulated request
// allocates once the virtual execution path allocates nothing per event
// and the interpreter resolves names once per method, the trace stores
// encoded events, finished threads' parkers are reused and a node's
// sequenced log is the only replay log: bytes and objects
// per request on 16 clients x 18 requests, with 10 % headroom, for the
// two heaviest schedulers and for MAT, the scheduler the socket workloads
// deploy. (The race detector changes what is allocated, hence the build
// tag.)
func TestSimAllocBudget(t *testing.T) {
	for _, c := range []struct {
		kind           replica.SchedulerKind
		bytes, objects float64 // per request, measured
	}{
		{replica.KindPDS, 12210, 207.2},
		{replica.KindLSA, 11250, 213.0}, // objects not re-recorded: 220.0 measured, link arrivals are events
		{replica.KindMAT, 8060, 140.9},
	} {
		simCell(c.kind, 16, 18, 7) // the analysis cache fills once per process
		bytes, objects := simAllocs(c.kind, 16, 18, 1)
		if bytes > 1.1*c.bytes || objects > 1.1*c.objects {
			t.Errorf("%s allocates %.0f B and %.1f objects per simulated request, budget %.0f B and %.1f objects (measured plus 10 %%)",
				c.kind, bytes, objects, 1.1*c.bytes, 1.1*c.objects)
		}
	}
}
