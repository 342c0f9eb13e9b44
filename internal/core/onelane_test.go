package core

import (
	"testing"
	"time"
)

// TestOneLaneIsSerial characterises the lane schedulers before they
// replace the serial ones: with every thread in the global class 0 a
// lane scheduler has one lane and no merge barrier to enforce, so it
// must reproduce the serial scheduler's schedule exactly — same
// consistency hash, same makespan — on every program of the grid. The
// per-seed results fold into one golden per scheduler.
func TestOneLaneIsSerial(t *testing.T) {
	for _, tc := range []struct {
		name   string
		serial func() Scheduler
		lanes  func() Scheduler
		golden uint64
	}{
		{"MAT", func() Scheduler { return NewMAT(false) }, func() Scheduler { return NewClassMAT(false) }, 0xd1ab9e1a1c0dd820},
		{"MAT+LLA", func() Scheduler { return NewMAT(true) }, func() Scheduler { return NewClassMAT(true) }, 0x2e201b0ba8d2d9a0},
		{"PDS/W=1", func() Scheduler { return NewPDS(1, false) }, func() Scheduler { return NewClassPDS(1) }, 0xd4ec5fb5a601a608},
		{"PDS/W=2", func() Scheduler { return NewPDS(2, false) }, func() Scheduler { return NewClassPDS(2) }, 0x109ccb7dba8f35e0},
		{"PDS/W=4", func() Scheduler { return NewPDS(4, false) }, func() Scheduler { return NewClassPDS(4) }, 0xc936f4faf20d1550},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel() // every scenario owns its clock and runtime
			var fold uint64 = 14695981039346656037
			mix := func(x uint64) { fold = (fold ^ x) * 1099511628211 }
			for seed := uint64(1); seed <= programGridSeeds; seed++ {
				threads, si := gridProgram(seed)
				hash, span := runProgram(t, tc.serial, threads, si)
				laneHash, laneSpan := runProgram(t, tc.lanes, threads, si)
				if laneHash != hash || laneSpan != span {
					t.Fatalf("seed %d: one-lane hash %x makespan %v, serial %x %v", seed, laneHash, laneSpan, hash, span)
				}
				mix(hash)
				mix(uint64(span / time.Nanosecond))
			}
			if fold != tc.golden {
				t.Fatalf("folded schedule %#x, golden %#x", fold, tc.golden)
			}
		})
	}
}
