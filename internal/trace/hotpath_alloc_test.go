package trace

import (
	"math/rand"
	"testing"
)

// Allocation budgets for the trace hot path. Record runs under the
// runtime's decision lock on every scheduler decision; the hash getters
// are polled by the control endpoint while the replica serves traffic.
// Both must stay (amortised) allocation-free or trace overhead shows up
// as GC pressure on every request.

// TestRecordAllocBudget: steady-state Record allocates only the
// chunkBytes storage chunk (about a thousand encoded events), amortised
// to ~0.001 objects per call.
func TestRecordAllocBudget(t *testing.T) {
	tr := New()
	for i := 0; i < 4*chunkBytes; i++ {
		tr.Record(benchEvent(i)) // warm chunks and the chain map
	}
	i := 4 * chunkBytes
	perOp := testing.AllocsPerRun(2*chunkBytes, func() {
		tr.Record(benchEvent(i))
		i++
	})
	if perOp > 0.5 {
		t.Fatalf("Record allocates %.3f objects/op, want ~0 amortised", perOp)
	}
}

// TestHashReadAllocBudget: hash reads are cached-value loads — exactly
// zero allocations regardless of trace length.
func TestHashReadAllocBudget(t *testing.T) {
	tr := New()
	for i := 0; i < 16384; i++ {
		tr.Record(benchEvent(i))
	}
	if n := testing.AllocsPerRun(256, func() { _ = tr.DecisionHash() }); n != 0 {
		t.Fatalf("DecisionHash allocates %.1f objects", n)
	}
	if n := testing.AllocsPerRun(256, func() { _ = tr.ConsistencyHash() }); n != 0 {
		t.Fatalf("ConsistencyHash allocates %.1f objects", n)
	}
}

// TestBoundedRecordAllocBudget: with retention bounded, trimmed chunks
// are recycled, so steady-state Record allocates nothing at all.
func TestBoundedRecordAllocBudget(t *testing.T) {
	tr := New()
	tr.SetRetention(2048)
	for i := 0; i < 8*chunkBytes; i++ {
		tr.Record(benchEvent(i)) // reach the recycle steady state
	}
	i := 8 * chunkBytes
	perOp := testing.AllocsPerRun(4*chunkBytes, func() {
		tr.Record(benchEvent(i))
		i++
	})
	if perOp > 0.1 {
		t.Fatalf("bounded Record allocates %.3f objects/op, want 0 (chunks recycled)", perOp)
	}
}

// TestChunksNeverRegrow: a chunk takes another event only while the
// longest encoding still fits, so an append never reallocates a chunk
// (which would copy what it stores into an array twice its size).
func TestChunksNeverRegrow(t *testing.T) {
	tr := New()
	for _, e := range storageEvents(rand.New(rand.NewSource(7)), 20000) {
		tr.Record(e)
	}
	for i, c := range tr.chunks {
		if cap(c.b) != chunkBytes {
			t.Fatalf("chunk %d of %d has capacity %d, want %d", i, len(tr.chunks), cap(c.b), chunkBytes)
		}
	}
}
