package core

import (
	"slices"
	"sort"
)

// ClassStats are the admission counters of a lane scheduler (MAT, PDS).
// Snapshots must be taken under the decision lock (Runtime.External);
// the replication layer surfaces them in the server Status and shutdown
// logs of replicas that honour stamped classes.
type ClassStats struct {
	// ActiveClasses is the number of distinct conflict classes among the
	// currently live threads (the instantaneous lane occupancy).
	ActiveClasses int
	// Escalations counts admissions to the conservative global class 0 —
	// requests the classifier could not bound, each of which serialises
	// the lanes through the merge barrier.
	Escalations uint64
	// MergeStalls counts promotion/grant scans in which a runnable thread
	// was held back by the merge barrier (a live request of another
	// classes' side of the barrier). It is an event count, not a thread
	// count: one barred thread stalls once per scheduling decision it
	// sits through.
	MergeStalls uint64
	// ParallelCommits counts completed requests that ran in a non-global
	// lane; SerialCommits counts completed global-class requests.
	ParallelCommits uint64
	SerialCommits   uint64
}

// ParallelRatio is the fraction of completed requests that committed
// through a concurrent lane (0 when nothing completed yet).
func (s ClassStats) ParallelRatio() float64 {
	total := s.ParallelCommits + s.SerialCommits
	if total == 0 {
		return 0
	}
	return float64(s.ParallelCommits) / float64(total)
}

// ClassScheduler is implemented by schedulers that admit per conflict
// class and expose admission counters (MAT, PDS).
type ClassScheduler interface {
	Scheduler
	// ClassStats snapshots the admission counters. Decision lock held
	// (use Runtime.External from outside the scheduler).
	ClassStats() ClassStats
}

// classCounters is the counting half of a ClassScheduler, embedded by
// the lane schedulers. Decision lock held throughout.
type classCounters struct {
	escalations     uint64
	mergeStalls     uint64
	parallelCommits uint64
	serialCommits   uint64
}

func (c *classCounters) admitted(t *Thread) {
	if t.Class() == 0 {
		c.escalations++
	}
}

func (c *classCounters) exited(t *Thread) {
	if t.Class() == 0 {
		c.serialCommits++
	} else {
		c.parallelCommits++
	}
}

func (c *classCounters) snapshot(rt *Runtime) ClassStats {
	seen := map[uint32]bool{}
	for _, t := range rt.ThreadsByAdmission() {
		seen[t.Class()] = true
	}
	return ClassStats{
		ActiveClasses:   len(seen),
		Escalations:     c.escalations,
		MergeStalls:     c.mergeStalls,
		ParallelCommits: c.parallelCommits,
		SerialCommits:   c.serialCommits,
	}
}

// laneSet holds a scheduler's per-class lanes. Lanes materialise on
// first use and are always swept in ascending class order — classes[i]
// is the class of sorted[i] — so the sweep is a function of the classes
// seen, not of map iteration, and costs no lookup per lane.
type laneSet[L any] struct {
	byClass map[uint32]*L
	classes []uint32
	sorted  []*L
}

func (ls *laneSet[L]) of(c uint32) *L {
	l := ls.byClass[c]
	if l == nil {
		if ls.byClass == nil {
			ls.byClass = map[uint32]*L{}
		}
		l = new(L)
		ls.byClass[c] = l
		i := sort.Search(len(ls.classes), func(i int) bool { return ls.classes[i] > c })
		ls.classes = slices.Insert(ls.classes, i, c)
		ls.sorted = slices.Insert(ls.sorted, i, l)
	}
	return l
}
