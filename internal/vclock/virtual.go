package vclock

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Virtual is a discrete-event clock.
//
// It maintains a count of runnable managed goroutines. Whenever that count
// drops to zero, the goroutine that caused the drop advances virtual time
// to the earliest pending timer and wakes its sleeper before blocking
// itself. If the count drops to zero with no pending timer while parked
// goroutines exist, the system is deadlocked and the deadlock handler runs
// (by default: panic with a dump of the parked sites).
type Virtual struct {
	mu         sync.Mutex
	now        time.Duration
	runnable   int
	timers     timerHeap
	seq        uint64
	parkedSet  map[*vparker]struct{}
	onDeadlock func(dump string)
	sleepers   []*vparker // parkers of finished sleeps, for the next (see sleep)
	released   []*vparker // parkers handed back by ReleaseParker, for newParker
	fired      uint64     // ScheduleAt callbacks started (Fired)

	// Pacing state (see EnablePacing). While paced, a future timer fires
	// only once both the externally promised horizon and wall time have
	// reached its deadline, and an empty system is idle, not deadlocked.
	paced     bool
	horizon   time.Duration
	wallStart time.Time
	offset    time.Duration // wall anchor: time.Since(wallStart)+offset; fastest horizon seen on a follower
	offsetSet bool
	wallTimer *time.Timer
}

// horizonMax is the horizon of a pacing leader: effectively unbounded.
const horizonMax = time.Duration(1) << 62

// NewVirtual returns a virtual clock positioned at time zero.
func NewVirtual() *Virtual {
	return &Virtual{parkedSet: make(map[*vparker]struct{})}
}

// SetDeadlockHandler replaces the default panic-on-deadlock behaviour.
// The handler receives a human-readable dump of the parked sites. It is
// called with the clock's lock held; it must not call back into the clock.
func (v *Virtual) SetDeadlockHandler(h func(dump string)) {
	v.mu.Lock()
	v.onDeadlock = h
	v.mu.Unlock()
}

// EnablePacing couples the clock to real time and to an external event
// horizon, turning the discrete-event simulator into a conservative
// real-time executor for distributed deployments: virtual time still
// jumps between the same deterministic instants, but each jump waits
// until (a) wall time has caught up with the target instant and (b) the
// instant does not lie beyond the promised horizon (SetHorizon), so no
// timer can fire before an externally stamped message that precedes it.
//
// A leader (the process that originates the time stamps) runs with an
// unbounded horizon and a wall anchor fixed at the call. A follower
// starts with horizon zero, and every horizon h that arrives raises its
// wall offset to at least h minus the wall time elapsed: the anchor is
// the fastest horizon seen (a minimum-transit filter), so late-joining
// processes do not stall and a slow first frame does not delay every
// later delivery. The horizon is the only gate that orders events; the
// wall clock only sets their rate. While paced, a fully parked system
// with no eligible timer is idle — external input may still arrive —
// rather than deadlocked.
//
// Call EnablePacing before any managed goroutines exist.
func (v *Virtual) EnablePacing(leader bool) {
	v.mu.Lock()
	v.paced = true
	v.wallStart = time.Now()
	if leader {
		v.horizon = horizonMax
		v.offsetSet = true
	}
	v.mu.Unlock()
}

// PromoteLeader turns a paced follower into the pacing leader at
// runtime (sequencer takeover): the horizon opens fully, so timers run
// at wall pace from here on. The wall offset raised by the fastest
// horizon seen while following is kept and stops moving, preserving the
// virtual-to-wall mapping; a follower that never received a horizon
// anchors at its current instant. Safe to call from unmanaged goroutines.
func (v *Virtual) PromoteLeader() {
	v.mu.Lock()
	if v.paced && v.horizon < horizonMax {
		v.horizon = horizonMax
		if !v.offsetSet {
			v.offset = v.now - time.Since(v.wallStart)
			v.offsetSet = true
		}
		v.advanceLocked()
	}
	v.mu.Unlock()
}

// SetHorizon raises the externally promised horizon: a guarantee that no
// future stamped event will carry an instant at or below h. Lower or
// equal horizons are ignored (the horizon is monotone). On a follower a
// new horizon also raises the wall offset to h minus the wall time
// elapsed if that is higher, so the wall gate never holds a timer the
// horizon admits; a leader's horizon is already unbounded, so this is a
// no-op there. Safe to call from unmanaged goroutines.
func (v *Virtual) SetHorizon(h time.Duration) {
	v.mu.Lock()
	if !v.paced || h <= v.horizon {
		v.mu.Unlock()
		return
	}
	v.horizon = h
	if off := h - time.Since(v.wallStart); !v.offsetSet || off > v.offset {
		v.offset, v.offsetSet = off, true
	}
	v.advanceLocked()
	v.mu.Unlock()
}

// ScheduleAt runs fn in a managed goroutine at virtual instant at, ranked
// by order among same-instant timers; an instant at or before now means
// now, once every runnable goroutine has blocked. The timer is in the heap
// when ScheduleAt returns: the clock cannot pass at before fn runs, and
// callbacks at one (at, order) run in call order. fn's goroutine starts
// when the timer fires. Safe to call from unmanaged goroutines.
func (v *Virtual) ScheduleAt(at time.Duration, order uint64, fn func()) {
	v.ScheduleSlot(at, order, 0, fn)
}

// ScheduleSlot is ScheduleAt with a third rank: among callbacks at one
// (at, order), lower slots run first whatever the call order (ScheduleAt's
// are slot 0). gcs delivers a stamped total-order slot with it.
func (v *Virtual) ScheduleSlot(at time.Duration, order, slot uint64, fn func()) {
	v.mu.Lock()
	v.seq++
	v.timers.push(timer{at: max(at, v.now), order: order, slot: slot, seq: v.seq, fn: fn})
	v.advanceLocked()
	v.mu.Unlock()
}

// Fired returns how many ScheduleAt and ScheduleSlot callbacks have started.
func (v *Virtual) Fired() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.fired
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Enter registers the calling goroutine as managed.
func (v *Virtual) Enter() {
	v.mu.Lock()
	v.runnable++
	v.mu.Unlock()
}

// Exit unregisters the calling goroutine, possibly advancing the clock if
// it was the last runnable one.
func (v *Virtual) Exit() {
	v.mu.Lock()
	v.runnable--
	v.advanceLocked()
	v.mu.Unlock()
}

// Go runs fn in a new managed goroutine. The goroutine is accounted as
// runnable from the moment Go returns, so the clock can never advance past
// work that has been spawned but not yet scheduled.
func (v *Virtual) Go(fn func()) {
	v.Enter()
	go func() {
		defer v.Exit()
		fn()
	}()
}

// Sleep suspends the calling goroutine for d of virtual time.
func (v *Virtual) Sleep(d time.Duration) { v.sleep(d, DefaultOrder) }

// sleep parks the caller for d, ranked by order among same-instant timers.
// Nothing else can unpark a sleeper, so every sleep ends by its timeout and
// its parker is free again: the next sleep reuses it. A sleeper has a
// pending timer, so it never appears in a deadlock dump and needs no label.
func (v *Virtual) sleep(d time.Duration, order uint64) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	var p *vparker
	if k := len(v.sleepers); k > 0 {
		p, v.sleepers = v.sleepers[k-1], v.sleepers[:k-1]
	}
	v.mu.Unlock()
	if p == nil {
		p = v.newParker("", order)
	}
	p.order = order
	p.ParkTimeout(d)
	v.mu.Lock()
	v.sleepers = append(v.sleepers, p)
	v.mu.Unlock()
}

// DefaultOrder is the firing-order rank of parkers created without an
// explicit order. Lower ranks fire first among timers with an identical
// deadline.
const DefaultOrder = ^uint64(0) / 2

// NewParker returns a Parker bound to this clock.
func (v *Virtual) NewParker() Parker { return v.newParker("", DefaultOrder) }

// NewNamedParker returns a Parker whose label appears in deadlock dumps.
func (v *Virtual) NewNamedParker(label string) Parker { return v.newParker(label, DefaultOrder) }

// NewOrderedParker returns a Parker whose timeout timers fire in `order`
// rank among timers with the same deadline (ties broken by registration
// sequence). Deterministic simulations use this so that simultaneous
// events are processed in an order that does not depend on racy timer
// registration.
func (v *Virtual) NewOrderedParker(label string, order uint64) Parker {
	return v.newParker(label, order)
}

// NewOrderedParkerNum is NewOrderedParker for the common "<label> <n>"
// naming (one parker per thread/request). The number is stored raw and
// only formatted if a deadlock dump is rendered, so callers on hot
// submit paths need not build a name string per parker.
func (v *Virtual) NewOrderedParkerNum(label string, num, order uint64) Parker {
	p := v.newParker(label, order)
	p.num = num
	p.numbered = true
	return p
}

// ReleaseParker hands back a parker whose owner is done with it, for the
// next parker this clock creates to reuse (core returns a thread's once
// the thread has exited and its done callback has run). The owner must
// not touch it again, and no Unpark may still be on its way to it.
// Releasing a parked parker panics.
func (v *Virtual) ReleaseParker(p Parker) {
	vp := p.(*vparker)
	v.mu.Lock()
	defer v.mu.Unlock()
	if vp.parked {
		panic("vclock: release of a parked parker")
	}
	v.released = append(v.released, vp)
}

// newParker returns a released parker if there is one, else a new one. A
// reused parker gets the new owner's label and rank and loses any wakeup
// buffered for its previous owner; its channel is empty, since every send
// on it was received by the park it ended. gen is kept, never reset: it
// only grows, so a timeout timer the previous owner armed and abandoned
// stays stale.
func (v *Virtual) newParker(label string, order uint64) *vparker {
	v.mu.Lock()
	defer v.mu.Unlock()
	k := len(v.released)
	if k == 0 {
		return &vparker{v: v, ch: make(chan struct{}, 1), label: label, order: order}
	}
	p := v.released[k-1]
	v.released[k-1] = nil
	v.released = v.released[:k-1]
	p.label, p.num, p.numbered, p.order = label, 0, false, order
	p.pending, p.timedOut = false, false
	return p
}

type vparker struct {
	v        *Virtual
	ch       chan struct{}
	label    string
	num      uint64 // numeric label suffix, rendered lazily in dumps
	numbered bool
	order    uint64 // same-deadline firing rank
	pending  bool   // an Unpark arrived while not parked
	parked   bool   // currently parked (guarded by v.mu)
	timedOut bool   // last ParkTimeout ended by timeout
	gen      uint64 // invalidates stale heap entries
}

func (p *vparker) Park() {
	v := p.v
	v.mu.Lock()
	if p.pending {
		p.pending = false
		v.mu.Unlock()
		return
	}
	p.parked = true
	p.timedOut = false
	v.runnable--
	v.parkedSet[p] = struct{}{}
	v.advanceLocked()
	v.mu.Unlock()
	<-p.ch
}

// ParkTimeout parks with a deadline. A non-positive d parks on an
// immediate timer: the goroutine is woken (with woken=false) as soon as
// every other managed goroutine is blocked, without advancing virtual
// time. Low-order parkers use this to run "after everything due now has
// settled" — the event pump in package core depends on it.
func (p *vparker) ParkTimeout(d time.Duration) bool {
	if d < 0 {
		d = 0
	}
	v := p.v
	v.mu.Lock()
	if p.pending {
		p.pending = false
		v.mu.Unlock()
		return true
	}
	p.parked = true
	p.timedOut = false
	p.gen++
	v.seq++
	v.timers.push(timer{at: v.now + d, order: p.order, seq: v.seq, p: p, gen: p.gen})
	v.runnable--
	v.parkedSet[p] = struct{}{}
	v.advanceLocked()
	v.mu.Unlock()
	<-p.ch
	v.mu.Lock()
	woken := !p.timedOut
	p.timedOut = false
	v.mu.Unlock()
	return woken
}

func (p *vparker) Unpark() {
	v := p.v
	v.mu.Lock()
	if p.parked {
		p.parked = false
		p.gen++ // invalidate any outstanding timeout timer
		delete(v.parkedSet, p)
		v.runnable++
		v.mu.Unlock()
		p.ch <- struct{}{}
		return
	}
	p.pending = true
	v.mu.Unlock()
}

// advanceLocked runs with v.mu held. If no managed goroutine is runnable
// it fires the earliest valid timer (advancing virtual time), and if none
// exists while goroutines are parked it reports a deadlock.
func (v *Virtual) advanceLocked() {
	if v.runnable > 0 {
		return
	}
	for len(v.timers) > 0 {
		t := v.timers[0] // peek: a paced clock may not be allowed to fire yet
		if t.fn == nil && (t.gen != t.p.gen || !t.p.parked) {
			v.timers.pop()
			continue // stale entry: sleeper was unparked early
		}
		if v.paced && t.at > v.now {
			if t.at > v.horizon {
				return // SetHorizon re-runs the advancement
			}
			if wait := v.wallWaitLocked(t.at); wait > 0 {
				v.armWallKickLocked(wait)
				return
			}
		}
		v.timers.pop()
		if t.at > v.now {
			v.now = t.at
		}
		v.runnable++
		if fn := t.fn; fn != nil {
			v.fired++
			go func() {
				defer v.Exit()
				fn()
			}()
			return
		}
		t.p.parked = false
		t.p.timedOut = true
		delete(v.parkedSet, t.p)
		t.p.ch <- struct{}{} // buffered; cannot block
		return
	}
	if len(v.parkedSet) > 0 {
		if v.paced {
			return // idle: external input may still arrive
		}
		dump := v.dumpLocked()
		if v.onDeadlock != nil {
			v.onDeadlock(dump)
			return
		}
		panic("vclock: deadlock — all managed goroutines parked with no pending timer\n" + dump)
	}
	// Nothing runnable, nothing parked: the simulation simply finished.
}

// wallWaitLocked returns how much real time must pass before the paced
// clock may jump to virtual instant at (<= 0: jump now).
func (v *Virtual) wallWaitLocked(at time.Duration) time.Duration {
	if !v.offsetSet {
		return 0
	}
	return at - (time.Since(v.wallStart) + v.offset)
}

// armWallKickLocked re-runs the advancement after wait of real time.
func (v *Virtual) armWallKickLocked(wait time.Duration) {
	if v.wallTimer != nil {
		v.wallTimer.Stop()
	}
	v.wallTimer = time.AfterFunc(wait, func() {
		v.mu.Lock()
		v.wallTimer = nil
		v.advanceLocked()
		v.mu.Unlock()
	})
}

func (v *Virtual) dumpLocked() string {
	labels := make([]string, 0, len(v.parkedSet))
	for p := range v.parkedSet {
		l := p.label
		if p.numbered {
			l = fmt.Sprintf("%s %d", p.label, p.num)
		}
		if l == "" {
			l = "<unnamed>"
		}
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return fmt.Sprintf("virtual time %v, %d parked: %s", v.now, len(labels), strings.Join(labels, ", "))
}

type timer struct {
	at    time.Duration
	order uint64 // deterministic same-deadline rank (parker order)
	slot  uint64 // rank among identical (at, order) (ScheduleSlot)
	seq   uint64 // FIFO tiebreak among identical (at, order, slot)
	p     *vparker
	gen   uint64
	fn    func() // a ScheduleAt callback (p is nil)
}

// timerHeap is a binary min-heap of timers by (at, order, slot, seq), a
// total order, so the firing sequence does not depend on the heap's layout.
// Typed sift-up and sift-down keep a push and a pop free of allocations.
type timerHeap []timer

func (h timerHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].order != h[j].order {
		return h[i].order < h[j].order
	}
	if h[i].slot != h[j].slot {
		return h[i].slot < h[j].slot
	}
	return h[i].seq < h[j].seq
}

func (h *timerHeap) push(t timer) {
	*h = append(*h, t)
	s := *h
	for i := len(s) - 1; i > 0; {
		up := (i - 1) / 2
		if !s.less(i, up) {
			break
		}
		s[i], s[up] = s[up], s[i]
		i = up
	}
}

// pop removes the earliest timer.
func (h *timerHeap) pop() timer {
	s := *h
	n := len(s) - 1
	t := s[0]
	s[0] = s[n]
	s[n] = timer{} // the backing array must not keep the parker or callback reachable
	s = s[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && s.less(r, m) {
			m = r
		}
		if !s.less(m, i) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return t
}
