package core

import "testing"

// TestOneLaneIsSerial pins MAT and PDS with every thread in the global
// class 0 — one lane, no merge barrier to enforce — to the schedules of
// the lane-less serial implementations they replaced: the goldens fold
// the consistency hash and makespan of every program of the grid, and
// were recorded while both implementations existed and agreed on each.
func TestOneLaneIsSerial(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mk     func() Scheduler
		golden uint64
	}{
		{"MAT", func() Scheduler { return NewMAT(false) }, 0xd1ab9e1a1c0dd820},
		{"MAT+LLA", func() Scheduler { return NewMAT(true) }, 0x2e201b0ba8d2d9a0},
		{"PDS/W=1", func() Scheduler { return NewPDS(1, false) }, 0xd4ec5fb5a601a608},
		{"PDS/W=2", func() Scheduler { return NewPDS(2, false) }, 0x109ccb7dba8f35e0},
		{"PDS/W=4", func() Scheduler { return NewPDS(4, false) }, 0xc936f4faf20d1550},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel() // every scenario owns its clock and runtime
			var fold uint64 = 14695981039346656037
			mix := func(x uint64) { fold = (fold ^ x) * 1099511628211 }
			for seed := uint64(1); seed <= programGridSeeds; seed++ {
				threads, si := gridProgram(seed)
				hash, span := runProgram(t, tc.mk, threads, si)
				mix(hash)
				mix(uint64(span))
			}
			if fold != tc.golden {
				t.Fatalf("folded schedule %#x, golden %#x", fold, tc.golden)
			}
		})
	}
}
