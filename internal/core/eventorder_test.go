package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/vclock"
)

// freeSched starts every thread on admission and grants each monitor in
// request order. It records, with the instant, every nested resume and
// wait wake-up the runtime hands it: the order in which the runtime
// delivers them is what the event-order tests pin.
type freeSched struct {
	NopScheduler
	rt  *Runtime
	log []string
}

func (s *freeSched) Name() string                 { return "FREE" }
func (s *freeSched) Attach(rt *Runtime)           { s.rt = rt }
func (s *freeSched) Admit(t *Thread)              { s.rt.StartThread(t) }
func (s *freeSched) Acquire(_ *Thread, m *Mutex)  { s.grant(m) }
func (s *freeSched) Release(_ *Thread, m *Mutex)  { s.grant(m) }
func (s *freeSched) WaitPark(_ *Thread, m *Mutex) { s.grant(m) }
func (s *freeSched) NestedBegin(*Thread)          {}
func (s *freeSched) Exit(*Thread)                 {}

func (s *freeSched) WaitWake(t *Thread, m *Mutex) {
	s.note(t, "wake")
	m.waiters = append(m.waiters, t)
	s.grant(m)
}

func (s *freeSched) NestedResume(t *Thread) {
	s.note(t, "resume")
	s.rt.ResumeNested(t)
}

func (s *freeSched) note(t *Thread, what string) {
	s.log = append(s.log, fmt.Sprintf("%v %s %s", s.rt.clock.Now(), what, t.ID))
}

func (s *freeSched) grant(m *Mutex) {
	if m.owner == nil && len(m.waiters) > 0 {
		s.rt.Grant(m.waiters[0], m)
	}
}

// TestSameInstantEventOrder pins the order in which the runtime delivers
// nested resumes and wait timeouts that fall on one virtual instant: by
// thread id, and for one thread the resume before the timeout, whatever
// order they were scheduled in. At T = 10ms:
//   - threads 1 and 3 get a nested reply (through ScheduleNestedResume);
//   - threads 2 and 4 time out of a wait;
//   - thread 5 gets a nested reply, and a wait timeout left over from a
//     wait that thread 6 ended early by a notify. That stale timeout
//     fires after the resume, once thread 5 is waiting on the same
//     monitor again, and ends that wait at T.
//
// Each thread reaches the call that schedules its event after a compute
// of its own length; the reversed case swaps those lengths, so the events
// are scheduled in the opposite call order.
func TestSameInstantEventOrder(t *testing.T) {
	const T = 10 * time.Millisecond
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	want := []string{
		"10ms resume T1", "10ms wake T2", "10ms resume T3", "10ms wake T4",
		"10ms resume T5", "10ms wake T5",
	}
	for _, c := range []struct {
		name  string
		delay [5]time.Duration // compute before the scheduling call, threads 1-5
	}{
		{"forward", [5]time.Duration{ms(1), ms(2), ms(3), ms(4), 0}},
		{"reversed", [5]time.Duration{ms(4), ms(3), ms(2), ms(1), ms(4.5)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			v := vclock.NewVirtual()
			s := &freeSched{}
			rt := NewRuntime(Options{Clock: v, Scheduler: s, Nested: func(rt *Runtime, th *Thread, arg interface{}) {
				v.Sleep(T - v.Now())
				rt.ScheduleNestedResume(th, arg)
			}})
			var lateWake time.Duration
			var lateNotified bool
			done := make(chan struct{})
			v.Go(func() {
				defer close(done)
				g := vclock.NewGroup(v)
				submit := func(tid ids.ThreadID, body func(*Thread)) {
					g.Add(1)
					rt.Submit(tid, 0, body, g.Done)
				}
				nested := func(d time.Duration) func(*Thread) {
					return func(th *Thread) {
						th.Compute(d)
						th.Nested(nil)
					}
				}
				timeout := func(mid ids.MutexID, d time.Duration) func(*Thread) {
					return func(th *Thread) {
						th.Compute(d)
						th.Lock(ids.NoSync, mid)
						th.WaitTimeout(mid, T-d)
						th.Unlock(ids.NoSync, mid)
					}
				}
				submit(1, nested(c.delay[0]))
				submit(2, timeout(2, c.delay[1]))
				submit(3, nested(c.delay[2]))
				submit(4, timeout(4, c.delay[3]))
				submit(5, func(th *Thread) {
					th.Compute(c.delay[4])
					th.Lock(ids.NoSync, 5)
					th.WaitTimeout(5, T-c.delay[4]) // notified by thread 6
					th.Unlock(ids.NoSync, 5)
					th.Nested(nil)
					th.Lock(ids.NoSync, 5)
					lateNotified = th.WaitTimeout(5, 5*time.Millisecond)
					lateWake = v.Now()
					th.Unlock(ids.NoSync, 5)
				})
				submit(6, func(th *Thread) {
					th.Compute(c.delay[4] + ms(0.25))
					th.Lock(ids.NoSync, 5)
					th.Notify(5)
					th.Unlock(ids.NoSync, 5)
				})
				g.Wait()
			})
			<-done
			at := slices.IndexFunc(s.log, func(l string) bool { return l == want[0] })
			if at < 0 || !slices.Equal(s.log[at:], want) {
				t.Fatalf("delivered\n%q\nwant the log to end with\n%q", s.log, want)
			}
			if lateNotified || lateWake != T {
				t.Fatalf("thread 5's second wait ended at %v (notified %v), want the stale timeout at %v", lateWake, lateNotified, T)
			}
		})
	}
}

// TestNestedResumeIsOneClockEvent: every nested resume, simulated or
// delivered through ScheduleNestedResume, and every wait timeout is one
// fired clock event, and nothing else the runtime does is.
func TestNestedResumeIsOneClockEvent(t *testing.T) {
	const calls = 7
	for _, c := range []struct {
		name   string
		nested NestedHandler
	}{
		{"simulated", nil},
		{"external", func(rt *Runtime, th *Thread, arg interface{}) {
			rt.Clock().Sleep(time.Millisecond)
			rt.ScheduleNestedResume(th, arg)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			v := vclock.NewVirtual()
			rt := NewRuntime(Options{Clock: v, Scheduler: NewMAT(false), Nested: c.nested, NestedDelay: time.Millisecond})
			done := make(chan struct{})
			v.Go(func() {
				defer close(done)
				g := vclock.NewGroup(v)
				for tid := ids.ThreadID(1); tid <= 2; tid++ {
					g.Add(1)
					rt.Submit(tid, 0, func(th *Thread) {
						for i := 0; i < calls; i++ {
							th.Compute(time.Millisecond)
							th.Nested(i)
						}
						th.Lock(ids.NoSync, 1)
						th.WaitTimeout(1, time.Millisecond)
						th.Unlock(ids.NoSync, 1)
					}, g.Done)
				}
				g.Wait()
			})
			<-done
			if got, want := v.Fired(), uint64(2*calls+2); got != want {
				t.Fatalf("%d fired clock events for %d nested resumes and 2 wait timeouts", got, want-2)
			}
		})
	}
}

// TestEventSlotPacking: eventSlot keeps (thread id, kind) order for every
// thread id the replication layer makes. Request thread ids are
// client<<32|seq with client ids below 2^22, so below 2^54; dummy thread
// ids are 1<<62|seq, below 2^63. The packing holds up to 2^63-1.
func TestEventSlotPacking(t *testing.T) {
	tids := []ids.ThreadID{
		0, 1, 2,
		ids.ThreadID(ids.MakeRequestID(1<<22-1, ^uint32(0))), // the largest request thread id, 2^54-1
		1 << 62, 1<<62 | 1, // the first dummy thread ids
		1<<63 - 1, // the bound
	}
	if got := uint64(tids[3]); got != 1<<54-1 {
		t.Fatalf("largest request thread id %#x, want 2^54-1", got)
	}
	var prev uint64
	for i, tid := range tids {
		for kind := uint64(eventResume); kind <= eventTimeout; kind++ {
			slot := eventSlot(tid, kind)
			if (i > 0 || kind > 0) && slot <= prev {
				t.Fatalf("slot of (%v, %d) is %#x, not above the previous %#x", tid, kind, slot, prev)
			}
			if slot>>1 != uint64(tid) || slot&1 != kind {
				t.Fatalf("slot %#x of (%v, %d) does not unpack", slot, tid, kind)
			}
			prev = slot
		}
	}
	if eventSlot(1<<63, eventResume) > eventSlot(1<<63-1, eventTimeout) {
		t.Fatal("the packing bound is not 2^63: thread id 2^63 still orders after 2^63-1")
	}
}
