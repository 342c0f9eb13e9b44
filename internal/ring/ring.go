// Package ring holds the one bounded FIFO behind every retained log of
// the system: the sequenced tail a donor serves, the LSA leader's decision
// tail, the per-client reply replay, the delivered-message log and the
// divergence points.
package ring

// Buffer is a FIFO of at most bound elements (0: unbounded) whose elements
// keep an absolute index: the first one pushed after Reset(i) has index i,
// the next i+1, whatever has been dropped since. Past the bound a push
// overwrites the oldest element, so keeping the last N of a stream costs
// the same per element whether the stream is N or N million long.
//
// Storage grows by doubling up to the bound and is never allocated ahead
// of the elements it holds: most buffers (a short-lived cluster's log, an
// idle client's replies) never get near their bound. No slot outside the
// live window holds a reference: an overwritten element is gone, trimmed
// ones are zeroed. The zero value is an empty unbounded buffer whose next
// element has index 0. Not safe for concurrent use.
type Buffer[T any] struct {
	buf   []T
	head  int    // position in buf of the oldest element
	n     int    // elements held
	first uint64 // absolute index of the oldest element
	bound int
}

// New returns an empty buffer that keeps the last bound elements.
func New[T any](bound int) *Buffer[T] { return &Buffer[T]{bound: bound} }

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

// pos maps the k-th held element to its position in buf.
func (b *Buffer[T]) pos(k int) int {
	if p := b.head + k; p < len(b.buf) {
		return p
	}
	return b.head + k - len(b.buf)
}

// Push appends v, dropping the oldest element when the bound is reached.
func (b *Buffer[T]) Push(v T) {
	if b.bound > 0 && b.n == b.bound {
		b.buf[b.head] = v
		b.head = b.pos(1)
		b.first++
		return
	}
	if b.n == len(b.buf) {
		size := max(8, 2*len(b.buf))
		if b.bound > 0 {
			size = min(size, b.bound)
		}
		grown := make([]T, size)
		k := copy(grown, b.buf[b.head:])
		copy(grown[k:], b.buf[:b.head])
		b.buf, b.head = grown, 0
	}
	b.buf[b.pos(b.n)] = v
	b.n++
}

// At returns the element with absolute index i, First() <= i < End().
func (b *Buffer[T]) At(i uint64) T { return b.buf[b.pos(int(i-b.first))] }

// Slice returns a copy of the elements with absolute indexes [from, to),
// First() <= from <= to <= End().
func (b *Buffer[T]) Slice(from, to uint64) []T {
	out := make([]T, to-from)
	if len(out) == 0 {
		return out
	}
	p := b.pos(int(from - b.first))
	k := copy(out, b.buf[p:])
	copy(out[k:], b.buf)
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
	if first >= b.End() {
		b.Reset(first)
		return
	}
	drop := int(first - b.first)
	for k := 0; k < drop; k++ {
		var zero T
		b.buf[b.pos(k)] = zero
	}
	b.head = b.pos(drop)
	b.n -= drop
	b.first = first
}

// Reset drops everything, storage included; the next element pushed gets
// absolute index first.
func (b *Buffer[T]) Reset(first uint64) {
	b.buf, b.head, b.n, b.first = nil, 0, 0, first
}
