// Package ring holds the one bounded FIFO behind every retained log of
// the system: the sequenced tail a donor serves, the LSA leader's decision
// tail, the per-client reply replay, the delivered-message log and the
// divergence points — and behind the simulator's inboxes and links.
package ring

// segSize is the number of elements per storage segment.
const segSize = 128

// Buffer is a FIFO of at most bound elements (0: unbounded) whose elements
// keep an absolute index: the first one pushed after Reset(i) has index i,
// the next i+1, whatever has been dropped since. Past the bound a push
// overwrites the oldest element, so keeping the last N of a stream costs
// the same per element whether the stream is N or N million long.
//
// Storage is a list of fixed-size segments that are linked, never copied:
// a log that only grows allocates what it holds, rounded up to a segment,
// and a segment its oldest elements leave is reused for the newest. Only
// the first segment of a young buffer starts small and doubles up to the
// segment size, so most buffers (a short-lived cluster's log, an idle
// client's replies, an inbox) never allocate ahead of the elements they
// hold. No slot outside the live window holds a reference: an overwritten
// or trimmed element is zeroed. The zero value is an empty unbounded
// buffer whose next element has index 0. Not safe for concurrent use.
type Buffer[T any] struct {
	segs  [][]T  // segs[0] holds the oldest element, at position head
	spare []T    // a segment the window left, kept for the next one needed
	head  int    // position in segs[0] of the oldest element
	n     int    // elements held
	first uint64 // absolute index of the oldest element
	bound int
}

// New returns an empty buffer that keeps the last bound elements.
func New[T any](bound int) *Buffer[T] { return &Buffer[T]{bound: bound} }

// seg is the segment length: segSize, or the bound when that is smaller.
func (b *Buffer[T]) seg() int {
	if b.bound > 0 && b.bound < segSize {
		return b.bound
	}
	return segSize
}

// Len returns the number of elements held. A nil buffer holds none.
func (b *Buffer[T]) Len() int {
	if b == nil {
		return 0
	}
	return b.n
}

// First returns the absolute index of the oldest element held (of the next
// element pushed, when empty).
func (b *Buffer[T]) First() uint64 { return b.first }

// End returns the absolute index the next element pushed will get.
func (b *Buffer[T]) End() uint64 { return b.first + uint64(b.n) }

// slot returns the k-th held element's slot (k == Len() is the next free
// one, which must exist).
func (b *Buffer[T]) slot(k int) *T {
	s := b.seg()
	o := b.head + k
	return &b.segs[o/s][o%s]
}

// Push appends v, dropping the oldest element when the bound is reached.
func (b *Buffer[T]) Push(v T) {
	if b.bound > 0 && b.n == b.bound {
		b.drop(1)
		b.first++
	}
	s := b.seg()
	o := b.head + b.n
	switch i := o / s; {
	case i == len(b.segs):
		size := s
		if i == 0 {
			size = min(8, s)
		}
		if b.spare != nil {
			b.segs, b.spare = append(b.segs, b.spare), nil
		} else {
			b.segs = append(b.segs, make([]T, size))
		}
	case o%s == len(b.segs[i]):
		// Only a young first segment is short. Move its elements to the
		// front when some have left it, or else double it, up to s.
		sg := b.segs[0]
		if b.head > 0 {
			clear(sg[copy(sg, sg[b.head:o]):])
			b.head = 0
			break
		}
		grown := make([]T, min(2*len(sg), s))
		copy(grown, sg)
		b.segs[0] = grown
	}
	*b.slot(b.n) = v
	b.n++
}

// drop zeroes the k oldest elements and lets go of the segments they
// leave; the caller moves first.
func (b *Buffer[T]) drop(k int) {
	var zero T
	for i := 0; i < k; i++ {
		*b.slot(i) = zero
	}
	b.head += k
	b.n -= k
	s := b.seg()
	if b.n == 0 {
		// Keep the first segment for the next push; the others are idle.
		if len(b.segs) > 1 {
			clear(b.segs[1:])
			b.segs = b.segs[:1]
		}
		b.head = 0
		return
	}
	for b.head >= s {
		if len(b.segs[0]) == s {
			b.spare = b.segs[0]
		}
		n := copy(b.segs, b.segs[1:])
		b.segs[n] = nil
		b.segs = b.segs[:n]
		b.head -= s
	}
}

// Pop removes and returns the oldest element; ok is false when the buffer
// is empty.
func (b *Buffer[T]) Pop() (v T, ok bool) {
	if b.n == 0 {
		return v, false
	}
	v = *b.slot(0)
	b.drop(1)
	b.first++
	return v, true
}

// At returns the element with absolute index i, First() <= i < End().
func (b *Buffer[T]) At(i uint64) T { return *b.slot(int(i - b.first)) }

// Slice returns a copy of the elements with absolute indexes [from, to),
// First() <= from <= to <= End().
func (b *Buffer[T]) Slice(from, to uint64) []T {
	out := make([]T, to-from)
	s, base := b.seg(), b.head+int(from-b.first)
	for k := 0; k < len(out); {
		o := base + k
		k += copy(out[k:], b.segs[o/s][o%s:])
	}
	return out
}

// All returns a copy of every element held, oldest first.
func (b *Buffer[T]) All() []T {
	if b.Len() == 0 {
		return nil
	}
	return b.Slice(b.first, b.End())
}

// TrimTo drops the elements with absolute index below first (all of them
// when first >= End(); the next element pushed then gets index first).
func (b *Buffer[T]) TrimTo(first uint64) {
	if first <= b.first {
		return
	}
	b.drop(int(min(first-b.first, uint64(b.n))))
	b.first = first
}

// Reset drops everything, storage included; the next element pushed gets
// absolute index first.
func (b *Buffer[T]) Reset(first uint64) {
	b.segs, b.spare, b.head, b.n, b.first = nil, nil, 0, 0, first
}
