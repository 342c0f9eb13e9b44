package ids

import (
	"slices"
	"sort"
)

// Runs is a set of uint64 kept as sorted, disjoint, non-adjacent closed
// intervals. The duplicate-suppression tables use one per origin: uids and
// per-client request numbers are issued consecutively, so whatever an
// origin has had ordered is one run however many requests that is, and a
// retransmission, a reordering or a gap costs memory in proportion to the
// gaps, not to the requests. Add and Has answer exactly what a
// map[uint64]bool would. The zero value is the empty set.
type Runs struct {
	runs []run
}

type run struct{ lo, hi uint64 }

// find returns the index of the first run that ends at or after v.
func (s *Runs) find(v uint64) int {
	if n := len(s.runs); n > 0 && s.runs[n-1].hi < v {
		return n // the common case: v continues, or follows, the last run
	}
	return sort.Search(len(s.runs), func(i int) bool { return s.runs[i].hi >= v })
}

// Has reports whether v is in the set.
func (s *Runs) Has(v uint64) bool {
	i := s.find(v)
	return i < len(s.runs) && s.runs[i].lo <= v
}

// Add inserts v and reports whether it was absent.
func (s *Runs) Add(v uint64) bool {
	i := s.find(v)
	if i < len(s.runs) && s.runs[i].lo <= v {
		return false
	}
	// v lies strictly between run i-1 and run i, so neither v-1 below nor
	// v+1 above can wrap.
	joinsPrev := i > 0 && s.runs[i-1].hi == v-1
	joinsNext := i < len(s.runs) && s.runs[i].lo == v+1
	switch {
	case joinsPrev && joinsNext:
		s.runs[i-1].hi = s.runs[i].hi
		s.runs = slices.Delete(s.runs, i, i+1)
	case joinsPrev:
		s.runs[i-1].hi = v
	case joinsNext:
		s.runs[i].lo = v
	default:
		s.runs = slices.Insert(s.runs, i, run{v, v})
	}
	return true
}

// Len returns the number of runs: one plus the number of gaps.
func (s *Runs) Len() int { return len(s.runs) }
