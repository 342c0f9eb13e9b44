package ring

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"detmt/internal/ids"
)

// shiftLog is the retention idiom Buffer replaces, kept as the reference:
// append, then shift the slice down whenever it is over its bound.
type shiftLog struct {
	s     []*int
	start uint64
	bound int
}

func (m *shiftLog) push(v *int) {
	m.s = append(m.s, v)
	if m.bound > 0 && len(m.s) > m.bound {
		drop := len(m.s) - m.bound
		m.s = append(m.s[:0], m.s[drop:]...)
		m.start += uint64(drop)
	}
}

func (m *shiftLog) trimTo(first uint64) {
	switch end := m.start + uint64(len(m.s)); {
	case first <= m.start:
	case first >= end:
		m.s, m.start = nil, first
	default:
		m.s = append(m.s[:0], m.s[first-m.start:]...)
		m.start = first
	}
}

// pair drives a Buffer and its reference with the same operations.
type pair struct {
	t    *testing.T
	b    *Buffer[*int]
	m    shiftLog
	peak int // most elements ever held at once
	next int
}

func newPair(t *testing.T, bound int) *pair {
	return &pair{t: t, b: New[*int](bound), m: shiftLog{bound: bound}}
}

func (p *pair) push() {
	v := new(int)
	*v = p.next
	p.next++
	p.b.Push(v)
	p.m.push(v)
	p.peak = max(p.peak, p.b.Len())
	p.check()
}

func (p *pair) trimTo(first uint64) {
	p.b.TrimTo(first)
	p.m.trimTo(first)
	p.check()
}

func (p *pair) pop() {
	v, ok := p.b.Pop()
	if ok != (len(p.m.s) > 0) || (ok && v != p.m.s[0]) {
		p.t.Fatalf("Pop() = %v, %v with %d held", v, ok, len(p.m.s))
	}
	if ok {
		p.m.trimTo(p.m.start + 1)
	}
	p.check()
}

func (p *pair) reset(first uint64) {
	p.b.Reset(first)
	p.m = shiftLog{start: first, bound: p.m.bound}
	p.check()
}

func (p *pair) check() {
	p.t.Helper()
	b, m := p.b, &p.m
	if b.Len() != len(m.s) || b.First() != m.start || b.End() != m.start+uint64(len(m.s)) {
		p.t.Fatalf("buffer holds [%d, %d) (%d), the shifted slice [%d, %d)",
			b.First(), b.End(), b.Len(), m.start, m.start+uint64(len(m.s)))
	}
	for k, want := range m.s {
		if got := b.At(m.start + uint64(k)); got != want {
			p.t.Fatalf("At(%d) = %d, the shifted slice holds %d", m.start+uint64(k), *got, *want)
		}
	}
	all := b.All()
	if len(all) != len(m.s) || (len(all) == 0) != (all == nil) {
		p.t.Fatalf("All() has %d elements (nil: %v), want %d", len(all), all == nil, len(m.s))
	}
	for k := range all {
		if all[k] != m.s[k] {
			p.t.Fatalf("All()[%d] = %d, want %d", k, *all[k], *m.s[k])
		}
	}
	if n := len(m.s); n > 2 {
		from, to := m.start+uint64(n/3), m.start+uint64(n-1)
		part := b.Slice(from, to)
		if len(part) != int(to-from) {
			p.t.Fatalf("Slice(%d, %d) has %d elements", from, to, len(part))
		}
		for k := range part {
			if part[k] != m.s[int(from-m.start)+k] {
				p.t.Fatalf("Slice(%d, %d)[%d] = %d, want %d", from, to, k, *part[k], *m.s[int(from-m.start)+k])
			}
		}
	}
	// Nothing outside the live window is referenced.
	s, storage := b.seg(), len(b.spare)
	for _, v := range b.spare {
		if v != nil {
			p.t.Fatalf("the spare segment still holds element %d", *v)
		}
	}
	for i, sg := range b.segs {
		storage += len(sg)
		if i < len(b.segs)-1 && len(sg) != s {
			p.t.Fatalf("segment %d of %d has %d slots, want %d", i, len(b.segs), len(sg), s)
		}
		for j, v := range sg {
			if o := i*s + j; (o < b.head || o >= b.head+b.n) && v != nil {
				p.t.Fatalf("slot %d outside the live window still holds element %d", o, *v)
			}
		}
	}
	// Never allocated ahead of its contents: a young buffer's one segment
	// doubles with what it held, an older one spans its window rounded out
	// to whole segments, plus one spare.
	limit := b.n + 3*s
	if len(b.segs) <= 1 && b.spare == nil {
		limit = max(8, 2*p.peak)
	}
	if storage > limit || (b.bound > 0 && s > b.bound) {
		p.t.Fatalf("storage for %d elements in segments of %d, with %d held and at most %d ever (bound %d)",
			storage, s, b.n, p.peak, b.bound)
	}
}

// TestBufferMatchesShiftedSlice is the seeded property: any mix of pushes,
// pops, trims and resets leaves the buffer with the contents and the absolute
// indexes of the slice-shifting log it replaces.
func TestBufferMatchesShiftedSlice(t *testing.T) {
	for seed := 1; seed <= 60; seed++ {
		rng := ids.NewRNG(uint64(seed))
		bound := []int{0, 1, 3, 4, 7, 8, 9, 64, 100}[rng.Intn(9)]
		p := newPair(t, bound)
		if rng.Intn(2) == 0 {
			p.reset(uint64(rng.Intn(1000))) // a log that starts at slot N
		}
		for op := 0; op < 600; op++ {
			switch r := rng.Intn(100); {
			case r < 80:
				p.push()
			case r < 88:
				p.pop()
			case r < 97:
				p.trimTo(p.b.First() + uint64(rng.Intn(p.b.Len()+3)))
			default:
				p.reset(p.b.End() + uint64(rng.Intn(5)))
			}
		}
	}
}

func TestZeroValueAndNil(t *testing.T) {
	var b Buffer[int]
	for i := 0; i < 20; i++ {
		b.Push(i)
	}
	if b.Len() != 20 || b.First() != 0 || b.At(19) != 19 {
		t.Fatalf("zero value: [%d, %d)", b.First(), b.End())
	}
	var none *Buffer[int]
	if none.Len() != 0 {
		t.Fatal("a nil buffer holds something")
	}
}

// TestDroppedElementsAreCollectable is the reason the retained logs exist
// in this form: what falls out of the window — overwritten at the bound,
// trimmed, or left behind in storage the buffer grew out of — must not stay
// reachable from the buffer.
func TestDroppedElementsAreCollectable(t *testing.T) {
	type payload struct{ body [64]byte } // too large for the tiny allocator, which batches finalizers
	const bound, pushed, trimmed = 16, 100, 6
	var finalized atomic.Int32
	b := New[*payload](bound)
	for i := 0; i < pushed; i++ {
		p := new(payload)
		runtime.SetFinalizer(p, func(*payload) { finalized.Add(1) })
		b.Push(p)
	}
	b.TrimTo(b.First() + trimmed)
	want := int32(pushed - bound + trimmed)
	deadline := time.Now().Add(10 * time.Second)
	for finalized.Load() < want && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := finalized.Load(); got != want {
		t.Fatalf("%d of the %d dropped elements were collected", got, want)
	}
	runtime.KeepAlive(b)
	if b.Len() != bound-trimmed {
		t.Fatalf("%d elements held", b.Len())
	}
}

// A log that only grows allocates what it holds plus less than two
// segments (the young first one doubles up to full size), and a log at its
// bound, or a queue that is pushed and popped, allocates nothing more.
func TestBufferAllocatesWhatItHolds(t *testing.T) {
	type entry struct{ a, b, c, d uint64 }
	const held = 100 * segSize
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := New[entry](0)
	for i := 0; i < held; i++ {
		b.Push(entry{a: uint64(i)})
	}
	runtime.ReadMemStats(&after)
	size := uint64(32) // bytes per entry
	if got, limit := after.TotalAlloc-before.TotalAlloc, (held+2*segSize)*size+4096; got > limit {
		t.Errorf("growing to %d elements allocated %d bytes, limit %d", held, got, limit)
	}
	runtime.KeepAlive(b)

	bounded := New[entry](10 * segSize)
	for i := 0; i < 20*segSize; i++ {
		bounded.Push(entry{})
	}
	if allocs := testing.AllocsPerRun(1000, func() { bounded.Push(entry{}) }); allocs != 0 {
		t.Errorf("a push at the bound allocates %.2f objects", allocs)
	}
	var queue Buffer[entry]
	if allocs := testing.AllocsPerRun(1000, func() {
		queue.Push(entry{})
		queue.Push(entry{})
		queue.Pop()
		queue.Pop()
	}); allocs != 0 {
		t.Errorf("a push and a pop allocate %.2f objects", allocs)
	}
}

// FuzzBufferMatchesShiftedSlice lets the fuzzer pick the bound and the
// operations: a byte below 180 pushes, one below 200 pops, the others trim
// or reset by the amount the byte encodes.
func FuzzBufferMatchesShiftedSlice(f *testing.F) {
	f.Add(uint8(4), []byte{0, 0, 0, 0, 0, 0, 201, 0, 0, 250, 0, 0, 0, 0, 0})
	f.Add(uint8(0), []byte{0, 0, 0, 210, 0, 255, 0})
	f.Add(uint8(9), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 220, 0, 0})
	f.Fuzz(func(t *testing.T, bound uint8, ops []byte) {
		if len(ops) > 2048 {
			ops = ops[:2048]
		}
		p := newPair(t, int(bound))
		for _, op := range ops {
			switch {
			case op < 180:
				p.push()
			case op < 200:
				p.pop()
			case op < 250:
				p.trimTo(p.b.First() + uint64(op-200))
			default:
				p.reset(p.b.End() + uint64(op-250))
			}
		}
	})
}
