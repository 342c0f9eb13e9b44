package ids

import (
	"encoding/binary"
	"math"
	"testing"
)

// runsModel drives a Runs and the map it replaces with the same inserts
// and fails on the first answer that differs, or the first time the runs
// are not sorted, disjoint and non-adjacent.
type runsModel struct {
	t     *testing.T
	set   Runs
	model map[uint64]bool
}

func newRunsModel(t *testing.T) *runsModel {
	return &runsModel{t: t, model: map[uint64]bool{}}
}

func (m *runsModel) add(v uint64) {
	m.t.Helper()
	// Has first, on v and on its neighbours (the values a run boundary
	// could wrongly swallow), then Add.
	for _, p := range []uint64{v - 1, v, v + 1} {
		if got, want := m.set.Has(p), m.model[p]; got != want {
			m.t.Fatalf("Has(%d) = %v before Add(%d), the map says %v; runs %v", p, got, v, want, m.set.runs)
		}
	}
	want := !m.model[v]
	m.model[v] = true
	if got := m.set.Add(v); got != want {
		m.t.Fatalf("Add(%d) = %v, the map says %v; runs %v", v, got, want, m.set.runs)
	}
	if !m.set.Has(v) {
		m.t.Fatalf("Has(%d) false right after Add; runs %v", v, m.set.runs)
	}
	m.invariant()
}

func (m *runsModel) invariant() {
	m.t.Helper()
	var covered uint64
	for i, r := range m.set.runs {
		if r.lo > r.hi {
			m.t.Fatalf("run %d is [%d, %d]", i, r.lo, r.hi)
		}
		// Sorted, disjoint and non-adjacent: at least one absent value
		// between two runs.
		if i > 0 && (m.set.runs[i-1].hi == math.MaxUint64 || r.lo <= m.set.runs[i-1].hi+1) {
			m.t.Fatalf("runs %d and %d touch or are out of order: %v", i-1, i, m.set.runs)
		}
		covered += r.hi - r.lo + 1
	}
	if covered != uint64(len(m.model)) {
		m.t.Fatalf("runs cover %d values, the map holds %d: %v", covered, len(m.model), m.set.runs)
	}
}

// TestRunsMatchMap is the seeded property: the streams the dedup tables
// see (consecutive uids from an arbitrary base, retransmitted, reordered,
// interleaved between incarnations) and streams they should never see
// (descending, random) get the answers of a map[uint64]bool.
func TestRunsMatchMap(t *testing.T) {
	bases := []uint64{0, 1, 1000, 1 << 32, math.MaxUint64 - 300}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := NewRNG(seed)
		m := newRunsModel(t)
		base := bases[rng.Intn(len(bases))]
		switch seed % 4 {
		case 0: // one origin: ascending with retransmissions of recent uids
			for i := uint64(0); i < 300; i++ {
				m.add(base + i)
				if rng.Bool(0.3) {
					m.add(base + i - uint64(rng.Intn(int(i)+1)))
				}
			}
		case 1: // descending, then the same again
			for i := uint64(300); i > 0; i-- {
				m.add(base + i - 1)
			}
			for i := uint64(300); i > 0; i-- {
				m.add(base + i - 1)
			}
		case 2: // two incarnations (SetUIDBase) interleaved, each in order
			a, b := base, base+150
			for a < base+140 || b < base+290 {
				if rng.Bool(0.5) && a < base+140 {
					m.add(a)
					a++
				} else if b < base+290 {
					m.add(b)
					b++
				}
			}
			for v := base + 140; v < base+150; v++ { // the gap closes: one run
				m.add(v)
			}
			if m.set.Len() != 1 {
				t.Fatalf("seed %d: %d runs after the gap closed: %v", seed, m.set.Len(), m.set.runs)
			}
		case 3: // reordered delivery inside a window, with duplicates
			for w := uint64(0); w < 300; w += 10 {
				for _, k := range rng.Perm(10) {
					m.add(base + w + uint64(k))
					if rng.Bool(0.2) {
						m.add(base + uint64(rng.Intn(int(w)+10)))
					}
				}
			}
		}
		if seed%4 != 2 && m.set.Len() != 1 {
			t.Fatalf("seed %d: a gapless origin is %d runs: %v", seed, m.set.Len(), m.set.runs)
		}
	}
	// Sparse random values: as many runs as values, same answers.
	rng := NewRNG(99)
	m := newRunsModel(t)
	for i := 0; i < 500; i++ {
		m.add(rng.Uint64() >> uint(rng.Intn(60)))
	}
}

func TestRunsBounds(t *testing.T) {
	m := newRunsModel(t)
	for _, v := range []uint64{math.MaxUint64, 0, math.MaxUint64 - 1, 1, math.MaxUint64, 0} {
		m.add(v)
	}
	if m.set.Len() != 2 {
		t.Fatalf("runs %v", m.set.runs)
	}
	var empty Runs
	if empty.Has(0) || empty.Len() != 0 {
		t.Fatal("the zero value is not the empty set")
	}
}

// FuzzRunsMatchMap reads its input as a base and a stream of signed steps
// of a cursor, each step followed by an insert — so the fuzzer reaches
// duplicates, descents, gaps that close and both ends of the range.
func FuzzRunsMatchMap(f *testing.F) {
	f.Add(uint64(0), []byte{1, 1, 1, 0, 255, 3, 254})
	f.Add(uint64(math.MaxUint64-2), []byte{1, 1, 1, 1, 250})
	f.Add(uint64(1<<32), []byte{2, 2, 255, 255, 2, 0x80, 0x10, 0x00})
	f.Fuzz(func(t *testing.T, base uint64, steps []byte) {
		if len(steps) > 4096 {
			steps = steps[:4096]
		}
		m := newRunsModel(t)
		cur := base
		for i := 0; i < len(steps); i++ {
			if steps[i] == 0x80 && i+2 < len(steps) { // a long jump
				cur += uint64(binary.BigEndian.Uint16(steps[i+1:])) << 3
				i += 2
			} else {
				cur += uint64(int64(int8(steps[i])))
			}
			m.add(cur)
		}
	})
}
