//go:build !race

package harness

import (
	"testing"

	"detmt/internal/replica"
)

// TestSimAllocBudget holds the simulator to what a simulated request
// allocates once the virtual execution path allocates nothing per event:
// bytes and objects per request for the two heaviest schedulers on 16
// clients x 18 requests, with 10 % headroom. (The race detector changes
// what is allocated, hence the build tag.)
func TestSimAllocBudget(t *testing.T) {
	for _, c := range []struct {
		kind           replica.SchedulerKind
		bytes, objects float64 // per request, measured
	}{
		{replica.KindPDS, 24800, 298.5},
		{replica.KindLSA, 21500, 258.5},
	} {
		simCell(c.kind, 16, 18, 7) // the analysis cache fills once per process
		bytes, objects := simAllocs(c.kind, 16, 18, 1)
		if bytes > 1.1*c.bytes || objects > 1.1*c.objects {
			t.Errorf("%s allocates %.0f B and %.1f objects per simulated request, budget %.0f B and %.1f objects (measured plus 10 %%)",
				c.kind, bytes, objects, 1.1*c.bytes, 1.1*c.objects)
		}
	}
}
