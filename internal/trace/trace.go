// Package trace records scheduler decision events.
//
// Traces serve three purposes in this reproduction:
//
//  1. Determinism checking (paper Sect. 2): two replicas executing the
//     same totally ordered request stream must make identical scheduling
//     decisions. DecisionHash folds the order-relevant fields of all
//     decision events into one comparable value.
//  2. Locking-pattern figures (paper Fig. 2 and Fig. 3): Gantt renders a
//     per-thread ASCII timeline of running / blocked / waiting / nested /
//     lock-holding intervals from a trace.
//  3. Debugging: String gives a readable decision log.
//
// Schedulers must record decision events while holding their decision
// lock, so that the append order of the trace is the decision order.
//
// Storage is a segmented append log of encoded events: each event is a
// kind byte and five zigzag varints (At, Thread and Mutex as deltas from
// the previous event in its chunk, then Sync and Arg), about 8 bytes
// where an Event is 48. Chunks are fixed-size byte segments that are
// linked, never copied, so Record is O(1) with one amortised chunk
// allocation per chunkBytes of encoded events; a chunk's first event is
// encoded against the zero Event, so every chunk decodes on its own and
// retention drops whole head chunks. The encoding is lossless for every
// field value. Both determinism hashes are maintained incrementally at
// Record time and read in O(1); combined with SetRetention this lets a
// long-running server keep exact full-history hashes while storing only
// a bounded window of events.
package trace

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"detmt/internal/ids"
)

// Kind enumerates trace event kinds.
type Kind int

// Event kinds. Decision kinds (order fixed by the scheduler's decision
// lock) are marked; the rest are informational and excluded from hashes.
const (
	KindAdmit       Kind = iota // decision: thread admitted to the scheduler
	KindStart                   // decision: thread starts running
	KindLockReq                 // decision: lock requested
	KindLockAcq                 // decision: lock granted
	KindLockRel                 // decision: lock released
	KindWaitBegin               // decision: thread entered condition wait
	KindWaitEnd                 // decision: thread left condition wait
	KindNotify                  // decision: notify issued
	KindNotifyAll               // decision: notifyAll issued
	KindNestedBegin             // decision: nested invocation started
	KindNestedEnd               // decision: nested invocation reply consumed
	KindExit                    // decision: thread terminated
	KindPromote                 // info: thread became primary (MAT family)
	KindPredicted               // decision: thread became fully predicted (PMAT)
	KindLockInfo                // info: future lock announced (injected code)
	KindIgnore                  // info: syncid declared unreachable on this path
	KindCompute                 // info: local computation interval (Arg = µs)
	KindBarrier                 // info: PDS round barrier crossed (Arg = round)
)

var kindNames = map[Kind]string{
	KindAdmit: "admit", KindStart: "start", KindLockReq: "lockreq",
	KindLockAcq: "lockacq", KindLockRel: "lockrel", KindWaitBegin: "waitbegin",
	KindWaitEnd: "waitend", KindNotify: "notify", KindNotifyAll: "notifyall",
	KindNestedBegin: "nestedbegin", KindNestedEnd: "nestedend", KindExit: "exit",
	KindPromote: "promote", KindPredicted: "predicted", KindLockInfo: "lockinfo",
	KindIgnore: "ignore", KindCompute: "compute", KindBarrier: "barrier",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Decision reports whether events of this kind participate in the
// determinism hashes. Lock *requests* are inputs (their arrival order
// between concurrently running threads is inherently racy); the grants
// are the decisions. Promotions are bookkeeping: a primary slot can be
// claimed and released transiently by a running thread without any
// observable effect, so only the grants that promotions lead to are
// hashed.
func (k Kind) Decision() bool {
	switch k {
	case KindLockInfo, KindIgnore, KindCompute, KindBarrier, KindLockReq, KindPromote:
		return false
	}
	return true
}

// Event is one recorded scheduler event.
type Event struct {
	At     time.Duration // virtual (or wall) time of the event
	Thread ids.ThreadID
	Kind   Kind
	Sync   ids.SyncID  // static syncid or ids.NoSync
	Mutex  ids.MutexID // mutex involved or ids.NoMutex
	Arg    int64       // kind-specific extra value
}

func (e Event) String() string {
	s := fmt.Sprintf("%8s %s %s", e.At.Round(time.Microsecond), e.Thread, e.Kind)
	if e.Mutex != ids.NoMutex {
		s += " " + e.Mutex.String()
	}
	if e.Sync != ids.NoSync {
		s += " " + e.Sync.String()
	}
	if e.Arg != 0 {
		s += fmt.Sprintf(" arg=%d", e.Arg)
	}
	return s
}

// FNV-1a parameters shared by both hashes.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvStep folds one 64-bit value into h, one byte at a time (identical
// to hashing the value's 8 little-endian bytes with FNV-1a).
func fnvStep(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// chainKey identifies one consistency chain: a per-mutex monitor chain
// (thread zero) or a per-thread lifecycle chain (mutex NoMutex).
type chainKey struct {
	mutex  ids.MutexID
	thread ids.ThreadID
}

// chunkBytes is the size of one storage segment: about a thousand
// encoded events. Segments are linked, never copied, so a Record never
// moves previously stored events and costs one allocation per chunkBytes
// of encoded events (zero in bounded-retention steady state, where
// retired chunks are recycled).
const chunkBytes = 8 << 10

// maxEventBytes bounds one encoded event: the kind byte, a varint for a
// kind the byte cannot hold, and the five field varints. A chunk takes
// another event only while this much room is left.
const maxEventBytes = 1 + 6*binary.MaxVarintLen64

// kindEscape in the kind byte announces a kind encoded as a varint.
const kindEscape = 0xff

// chunk is one storage segment: n events encoded back to back in b,
// the first against the zero Event, each later one against its
// predecessor.
type chunk struct {
	b []byte
	n int
}

// appendEvent encodes e after prev onto b.
func appendEvent(b []byte, prev, e Event) []byte {
	if uint(e.Kind) < kindEscape {
		b = append(b, byte(e.Kind))
	} else {
		b = binary.AppendVarint(append(b, kindEscape), int64(e.Kind))
	}
	b = binary.AppendVarint(b, int64(e.At)-int64(prev.At))
	b = binary.AppendVarint(b, int64(uint64(e.Thread)-uint64(prev.Thread)))
	b = binary.AppendVarint(b, int64(e.Mutex)-int64(prev.Mutex))
	b = binary.AppendVarint(b, int64(e.Sync))
	return binary.AppendVarint(b, e.Arg)
}

// decodeNext overwrites e, the event before it, with the event
// appendEvent wrote at b[i:] and returns the index of the next event.
func (e *Event) decodeNext(b []byte, i int) int {
	if k := b[i]; k < kindEscape {
		e.Kind, i = Kind(k), i+1
	} else {
		k, n := binary.Varint(b[i+1:])
		e.Kind, i = Kind(k), i+1+n
	}
	var f [5]int64 // At, Thread, Mutex, Sync, Arg
	for j := range f {
		if c := b[i]; c < 0x80 { // most fields fit one byte
			f[j], i = int64(c>>1)^-int64(c&1), i+1
		} else {
			v, n := binary.Varint(b[i:])
			f[j], i = v, i+n
		}
	}
	e.At += time.Duration(f[0])
	e.Thread += ids.ThreadID(f[1])
	e.Mutex += ids.MutexID(f[2])
	e.Sync = ids.SyncID(f[3])
	e.Arg = f[4]
	return i
}

// scan decodes c's events in order until fn returns false, and reports
// whether it ran to the end.
func (c chunk) scan(fn func(Event) bool) bool {
	var e Event
	for i := 0; i < len(c.b); {
		i = e.decodeNext(c.b, i)
		if !fn(e) {
			return false
		}
	}
	return true
}

// Trace is an append-only, concurrency-safe event log with O(1)
// incrementally maintained determinism hashes.
type Trace struct {
	mu     sync.Mutex
	chunks []chunk  // retained segments; the last one is the append tail
	last   Event    // the tail chunk's last event, the next delta's base
	free   [][]byte // retired segments kept for reuse (bounded mode)
	total  uint64   // events ever recorded
	start  uint64   // index of the first retained event (= events dropped)
	retain int      // max retained events (rounded up to chunks); 0: unlimited

	decHash  uint64              // incremental DecisionHash state
	chains   map[chainKey]uint64 // per-chain ConsistencyHash state
	consHash uint64              // XOR over all chain values
}

// New returns an empty trace.
func New() *Trace {
	return &Trace{
		decHash: fnvOffset,
		chains:  make(map[chainKey]uint64),
	}
}

// SetRetention bounds the number of retained events to roughly max
// (rounded up to whole chunks; min one chunk). Older events are
// discarded as new ones arrive, but both determinism hashes remain
// exact over the full recorded history — they are folded in at Record
// time. max <= 0 restores unlimited retention. A long-running server
// should set a bound so its trace does not grow without limit.
func (t *Trace) SetRetention(max int) {
	t.mu.Lock()
	if max <= 0 {
		t.retain = 0
	} else {
		t.retain = max
		t.trimLocked()
	}
	t.mu.Unlock()
}

// trimLocked discards whole head chunks while more than retain events
// are stored, keeping at least the tail chunk. Retired chunks are
// recycled through the free list so bounded steady state allocates
// nothing.
func (t *Trace) trimLocked() {
	if t.retain == 0 {
		return
	}
	for len(t.chunks) > 1 && int(t.total-t.start) > t.retain {
		head := t.chunks[0]
		t.start += uint64(head.n)
		n := copy(t.chunks, t.chunks[1:])
		t.chunks[n] = chunk{}
		t.chunks = t.chunks[:n]
		if len(t.free) < 4 {
			t.free = append(t.free, head.b[:0])
		}
	}
}

// Record appends an event and folds it into the incremental hashes.
// The caller supplies the timestamp so that the scheduler can stamp
// events with its clock while holding its decision lock.
func (t *Trace) Record(e Event) {
	t.mu.Lock()
	n := len(t.chunks)
	if n == 0 || len(t.chunks[n-1].b)+maxEventBytes > chunkBytes {
		var b []byte
		if k := len(t.free); k > 0 {
			b = t.free[k-1]
			t.free = t.free[:k-1]
		} else {
			b = make([]byte, 0, chunkBytes)
		}
		t.chunks = append(t.chunks, chunk{b: b})
		t.last = Event{}
		n++
	}
	c := &t.chunks[n-1]
	c.b = appendEvent(c.b, t.last, e)
	c.n++
	t.last = e
	t.total++
	if e.Kind.Decision() {
		t.decHash = fnvStep(fnvStep(fnvStep(fnvStep(fnvStep(t.decHash,
			uint64(e.Thread)), uint64(e.Kind)), uint64(int64(e.Sync))), uint64(int64(e.Mutex))), uint64(e.Arg))
		var key chainKey
		switch e.Kind {
		case KindLockAcq, KindLockRel, KindWaitBegin, KindWaitEnd, KindNotify, KindNotifyAll:
			key = chainKey{mutex: e.Mutex}
		default: // lifecycle: admit, start, nested, exit, predicted
			key = chainKey{mutex: ids.NoMutex, thread: e.Thread}
		}
		h, ok := t.chains[key]
		if !ok {
			h = fnvStep(fnvStep(fnvOffset, uint64(int64(key.mutex))), uint64(key.thread))
		} else {
			t.consHash ^= h // replace this chain's previous contribution
		}
		h = fnvStep(fnvStep(fnvStep(fnvStep(fnvStep(h,
			uint64(e.Thread)), uint64(e.Kind)), uint64(int64(e.Sync))), uint64(int64(e.Mutex))), uint64(e.Arg))
		if e.Kind == KindExit {
			// Exit is a thread's final lifecycle event (thread ids are
			// never reused within a runtime), so its chain value is
			// sealed into consHash and the map entry can be evicted —
			// the chain state stays bounded by the number of *live*
			// threads plus the (static) mutex set, not by history.
			delete(t.chains, key)
		} else {
			t.chains[key] = h
		}
		t.consHash ^= h
	}
	t.trimLocked()
	t.mu.Unlock()
}

// Len returns the number of retained events (equal to the number of
// recorded events unless a retention bound discarded older ones).
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(t.total - t.start)
}

// TotalRecorded returns the number of events ever recorded, including
// any discarded by the retention bound.
func (t *Trace) TotalRecorded() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns the number of events discarded by the retention bound.
func (t *Trace) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.start
}

// Events returns a copy of the retained events.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, int(t.total-t.start))
	for _, c := range t.chunks {
		c.scan(func(e Event) bool {
			out = append(out, e)
			return true
		})
	}
	return out
}

// Scan calls fn with every retained event, in order, until fn returns
// false. It runs under the trace lock, decoding one event at a time
// without copying the log, so fn must not call back into the trace.
func (t *Trace) Scan(fn func(Event) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.chunks {
		if !c.scan(fn) {
			return
		}
	}
}

// Filter returns the retained events satisfying pred, in order.
func (t *Trace) Filter(pred func(Event) bool) []Event {
	var out []Event
	t.Scan(func(e Event) bool {
		if pred(e) {
			out = append(out, e)
		}
		return true
	})
	return out
}

// DecisionHash returns an FNV-1a hash over the order-relevant fields
// (thread, kind, syncid, mutex, arg) of all decision events ever
// recorded. Timestamps are deliberately excluded: replicas agree on the
// decision sequence, not necessarily on wall-clock instants. The value
// is maintained incrementally at Record time, so reading it is O(1) and
// does not stall the decision path behind a trace scan.
func (t *Trace) DecisionHash() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.decHash
}

// ConsistencyHash summarises the schedule in the way replica consistency
// actually requires: the *per-mutex* order of monitor decisions (grants,
// releases, waits, notifies) and the *per-thread* order of lifecycle
// decisions, combined order-independently across mutexes and threads.
//
// Rationale: the paper's system model assumes all shared-state access is
// protected by the intercepted mutexes, so two executions lead to the
// same object state iff every monitor sees the same sequence of critical
// sections and every thread performs the same sequence of operations.
// The interleaving of decisions on unrelated mutexes is immaterial — and
// between concurrently running threads it is inherently racy even in a
// correct deterministic scheduler, which is why DecisionHash (global
// order) is only meaningful for single-active-thread schedulers.
//
// Like DecisionHash the value covers the full recorded history and is
// maintained incrementally, so the read is O(1) regardless of trace
// length or retention bound.
func (t *Trace) ConsistencyHash() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.consHash
}

// ChainState is one live consistency chain in an exported HashState:
// either a per-mutex monitor chain (Thread zero) or a per-thread
// lifecycle chain (Mutex = ids.NoMutex).
type ChainState struct {
	Mutex  ids.MutexID
	Thread ids.ThreadID
	Hash   uint64
}

// HashState is a portable snapshot of the incremental hash state taken
// at a quiescent sequence point. A checkpoint carries it so that a
// rejoining replica can seed a fresh trace and, after replaying the
// sequenced tail, arrive at hashes bit-identical to replicas that lived
// through the whole history. Consistency is carried explicitly (not
// recomputed from Chains) because exited threads' chains are sealed
// into it and no longer enumerable.
type HashState struct {
	Decision    uint64
	Consistency uint64
	Total       uint64 // events recorded when the snapshot was taken
	Chains      []ChainState
}

// ExportHashState snapshots the incremental hash state. Chains are
// sorted (mutex, thread) so the encoding of a checkpoint is
// deterministic across replicas. Export only at a quiescent point (no
// scheduler decisions in flight), or the snapshot is torn.
func (t *Trace) ExportHashState() HashState {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := HashState{
		Decision:    t.decHash,
		Consistency: t.consHash,
		Total:       t.total,
		Chains:      make([]ChainState, 0, len(t.chains)),
	}
	for k, h := range t.chains {
		s.Chains = append(s.Chains, ChainState{Mutex: k.mutex, Thread: k.thread, Hash: h})
	}
	sort.Slice(s.Chains, func(i, j int) bool {
		a, b := s.Chains[i], s.Chains[j]
		if a.Mutex != b.Mutex {
			return a.Mutex < b.Mutex
		}
		return a.Thread < b.Thread
	})
	return s
}

// SeedHashState primes a fresh trace with a previously exported state:
// subsequent Records continue the exact hash chains, as if the first
// s.Total events had been recorded here and then dropped by retention
// (Len() starts at 0, Dropped() at s.Total). Any retained events are
// discarded.
func (t *Trace) SeedHashState(s HashState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.chunks = nil
	t.total = s.Total
	t.start = s.Total
	t.decHash = s.Decision
	t.consHash = s.Consistency
	t.chains = make(map[chainKey]uint64, len(s.Chains))
	for _, c := range s.Chains {
		t.chains[chainKey{mutex: c.Mutex, thread: c.Thread}] = c.Hash
	}
}

// String renders the retained events, one per line.
func (t *Trace) String() string {
	var b strings.Builder
	for _, e := range t.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// FirstDivergence compares the decision-event subsequences of two traces
// and returns the index of the first differing decision plus the two
// events, or -1 if one sequence is a prefix of the other (ok=false means
// the traces agree completely, including length).
func FirstDivergence(a, b *Trace) (idx int, ea, eb Event, ok bool) {
	da := a.Filter(func(e Event) bool { return e.Kind.Decision() })
	db := b.Filter(func(e Event) bool { return e.Kind.Decision() })
	n := len(da)
	if len(db) < n {
		n = len(db)
	}
	for i := 0; i < n; i++ {
		if !sameDecision(da[i], db[i]) {
			return i, da[i], db[i], true
		}
	}
	if len(da) != len(db) {
		return n, Event{}, Event{}, true
	}
	return -1, Event{}, Event{}, false
}

func sameDecision(a, b Event) bool {
	return a.Thread == b.Thread && a.Kind == b.Kind && a.Sync == b.Sync &&
		a.Mutex == b.Mutex && a.Arg == b.Arg
}
