package trace

import (
	"sort"
	"time"

	"detmt/internal/ids"
)

// Interval extraction shared by the ASCII Gantt and the HTML/SVG
// timeline renderers.

// SpanClass classifies a thread-timeline interval.
type SpanClass int

// Span classes, in paint priority order (later overrides earlier when
// intervals overlap).
const (
	SpanQueued  SpanClass = iota // admitted but not yet started
	SpanRun                      // running
	SpanBlocked                  // blocked waiting for a lock grant
	SpanWait                     // in a condition wait
	SpanNested                   // suspended in a nested invocation
	SpanHold                     // holding a mutex (Mutex field valid)
)

// Span is one interval of a thread's life.
type Span struct {
	From, To time.Duration
	Class    SpanClass
	Mutex    ids.MutexID // valid for SpanHold
}

// ThreadLane is the complete interval view of one thread.
type ThreadLane struct {
	ID    ids.ThreadID
	Spans []Span
}

// Lanes extracts per-thread interval lanes from a trace, ordered by
// thread id, together with the trace's end time (at least 1ns).
func Lanes(tr *Trace) ([]ThreadLane, time.Duration) {
	type state struct {
		admitted, started, exited   time.Duration
		hasAdmit, hasStart, hasExit bool
		spans                       []Span
		openLock                    map[ids.MutexID]time.Duration
		openReq, openWait, openNest time.Duration
		hasReq, hasWait, hasNest    bool
	}
	threads := map[ids.ThreadID]*state{}
	get := func(id ids.ThreadID) *state {
		s := threads[id]
		if s == nil {
			s = &state{openLock: map[ids.MutexID]time.Duration{}}
			threads[id] = s
		}
		return s
	}

	var end time.Duration
	tr.Scan(func(e Event) bool {
		end = max(end, e.At)
		s := get(e.Thread)
		switch e.Kind {
		case KindAdmit:
			s.admitted, s.hasAdmit = e.At, true
		case KindStart:
			s.started, s.hasStart = e.At, true
		case KindExit:
			s.exited, s.hasExit = e.At, true
		case KindLockReq:
			s.openReq, s.hasReq = e.At, true
		case KindLockAcq:
			if s.hasReq {
				s.spans = append(s.spans, Span{s.openReq, e.At, SpanBlocked, ids.NoMutex})
				s.hasReq = false
			}
			if _, held := s.openLock[e.Mutex]; !held {
				s.openLock[e.Mutex] = e.At
			}
		case KindLockRel:
			if from, ok := s.openLock[e.Mutex]; ok {
				s.spans = append(s.spans, Span{from, e.At, SpanHold, e.Mutex})
				delete(s.openLock, e.Mutex)
			}
		case KindWaitBegin:
			s.openWait, s.hasWait = e.At, true
			// The monitor is released for the duration of the wait.
			if from, ok := s.openLock[e.Mutex]; ok {
				s.spans = append(s.spans, Span{from, e.At, SpanHold, e.Mutex})
				delete(s.openLock, e.Mutex)
			}
		case KindWaitEnd:
			if s.hasWait {
				s.spans = append(s.spans, Span{s.openWait, e.At, SpanWait, ids.NoMutex})
				s.hasWait = false
			}
			s.openLock[e.Mutex] = e.At // monitor reacquired
		case KindNestedBegin:
			s.openNest, s.hasNest = e.At, true
		case KindNestedEnd:
			if s.hasNest {
				s.spans = append(s.spans, Span{s.openNest, e.At, SpanNested, ids.NoMutex})
				s.hasNest = false
			}
		}
		return true
	})
	if end == 0 {
		end = 1
	}

	var lanes []ThreadLane
	for id, s := range threads {
		till := end
		if s.hasExit {
			till = s.exited
		}
		var spans []Span
		if s.hasAdmit {
			spans = append(spans, Span{s.admitted, till, SpanQueued, ids.NoMutex})
		}
		if s.hasStart {
			spans = append(spans, Span{s.started, till, SpanRun, ids.NoMutex})
		}
		spans = append(spans, s.spans...)
		// Close still-open intervals at the end of the trace.
		if s.hasReq {
			spans = append(spans, Span{s.openReq, end, SpanBlocked, ids.NoMutex})
		}
		if s.hasWait {
			spans = append(spans, Span{s.openWait, end, SpanWait, ids.NoMutex})
		}
		if s.hasNest {
			spans = append(spans, Span{s.openNest, end, SpanNested, ids.NoMutex})
		}
		for m, from := range s.openLock {
			spans = append(spans, Span{from, end, SpanHold, m})
		}
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Class < spans[j].Class })
		lanes = append(lanes, ThreadLane{ID: id, Spans: spans})
	}
	sort.Slice(lanes, func(i, j int) bool { return lanes[i].ID < lanes[j].ID })
	return lanes, end
}
