package vclock

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// run executes fn as the initial managed goroutine of a fresh virtual
// clock and waits (in real time, with a watchdog) for it to return.
// Tests must join any managed goroutines they spawn — use Group — before
// returning from fn.
func run(t *testing.T, fn func(v *Virtual)) *Virtual {
	t.Helper()
	v := NewVirtual()
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		fn(v)
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("virtual-clock test timed out in real time")
	}
	return v
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	v := run(t, func(v *Virtual) {
		start := v.Now()
		v.Sleep(12 * time.Millisecond)
		if got := v.Now() - start; got != 12*time.Millisecond {
			t.Errorf("slept %v, want 12ms", got)
		}
	})
	if v.Now() != 12*time.Millisecond {
		t.Errorf("final time %v", v.Now())
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	run(t, func(v *Virtual) {
		v.Sleep(0)
		v.Sleep(-time.Second)
		if v.Now() != 0 {
			t.Errorf("time moved to %v", v.Now())
		}
	})
}

func TestConcurrentSleepsOverlap(t *testing.T) {
	// Two goroutines sleeping in parallel: total virtual time is the max,
	// not the sum.
	v := run(t, func(v *Virtual) {
		g := NewGroup(v)
		for _, d := range []time.Duration{10 * time.Millisecond, 25 * time.Millisecond} {
			d := d
			g.Go(func() { v.Sleep(d) })
		}
		g.Wait()
	})
	if v.Now() != 25*time.Millisecond {
		t.Errorf("virtual makespan %v, want 25ms", v.Now())
	}
}

func TestSequentialSleepsAccumulate(t *testing.T) {
	v := run(t, func(v *Virtual) {
		for i := 0; i < 5; i++ {
			v.Sleep(3 * time.Millisecond)
		}
	})
	if v.Now() != 15*time.Millisecond {
		t.Errorf("virtual time %v, want 15ms", v.Now())
	}
}

func TestTimersFireInOrder(t *testing.T) {
	var mu atomic.Int64 // bit-packed order check: wake times must ascend
	var bad atomic.Bool
	run(t, func(v *Virtual) {
		g := NewGroup(v)
		for _, d := range []time.Duration{30, 10, 20} {
			d := d * time.Millisecond
			g.Go(func() {
				v.Sleep(d)
				prev := mu.Swap(int64(d))
				if int64(d) < prev {
					bad.Store(true)
				}
			})
		}
		g.Wait()
	})
	if bad.Load() {
		t.Fatal("sleepers woke out of deadline order")
	}
}

func TestTimerHeapFIFOAtSameDeadline(t *testing.T) {
	// Entries with equal deadlines pop in registration (seq) order.
	var h timerHeap
	for i := 0; i < 5; i++ {
		h.push(timer{at: 5 * time.Millisecond, seq: uint64(i)})
	}
	h.push(timer{at: time.Millisecond, seq: 99})
	if got := h.pop(); got.seq != 99 {
		t.Fatalf("earliest deadline not first: %+v", got)
	}
	for i := 0; i < 5; i++ {
		got := h.pop()
		if got.seq != uint64(i) {
			t.Fatalf("same-deadline pop order broken: got seq %d want %d", got.seq, i)
		}
	}
}

// The heap pops every timer in (at, order, seq) order, pushes and pops
// interleaved, and holds no reference past its length.
func TestTimerHeapPopsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h timerHeap
	var want []timer
	seq := uint64(0)
	p := &vparker{}
	for round := 0; round < 200; round++ {
		for k := rng.Intn(8); k > 0; k-- {
			seq++
			tm := timer{at: time.Duration(rng.Intn(6)), order: uint64(rng.Intn(3)), seq: seq, p: p}
			h.push(tm)
			want = append(want, tm)
		}
		sort.Slice(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.order != b.order {
				return a.order < b.order
			}
			return a.seq < b.seq
		})
		for k := rng.Intn(6); k > 0 && len(want) > 0; k-- {
			if got := h.pop(); got.seq != want[0].seq { // seq is unique
				t.Fatalf("popped %+v, want %+v", got, want[0])
			}
			want = want[1:]
			if tail := h[len(h):cap(h)]; len(tail) > 0 && (tail[0].p != nil || tail[0].fn != nil) {
				t.Fatal("a popped slot still references its parker or callback")
			}
		}
	}
}

func TestParkUnpark(t *testing.T) {
	run(t, func(v *Virtual) {
		p := v.NewParker()
		g := NewGroup(v)
		g.Go(func() {
			v.Sleep(time.Millisecond)
			p.Unpark()
		})
		p.Park()
		if v.Now() != time.Millisecond {
			t.Errorf("woken at %v", v.Now())
		}
		g.Wait()
	})
}

func TestUnparkBeforeParkIsPending(t *testing.T) {
	run(t, func(v *Virtual) {
		p := v.NewParker()
		p.Unpark()
		p.Park() // must not block
		// A second park would block: verify via ParkTimeout.
		if woken := p.ParkTimeout(time.Millisecond); woken {
			t.Error("second park consumed a stale wakeup")
		}
	})
}

func TestUnparkCoalesces(t *testing.T) {
	run(t, func(v *Virtual) {
		p := v.NewParker()
		p.Unpark()
		p.Unpark()
		p.Unpark()
		p.Park()
		if woken := p.ParkTimeout(time.Millisecond); woken {
			t.Error("multiple pending unparks buffered; want coalesced to one")
		}
	})
}

func TestParkTimeoutTimesOut(t *testing.T) {
	v := run(t, func(v *Virtual) {
		p := v.NewParker()
		if woken := p.ParkTimeout(7 * time.Millisecond); woken {
			t.Error("spurious wake")
		}
	})
	if v.Now() != 7*time.Millisecond {
		t.Errorf("time %v, want 7ms", v.Now())
	}
}

func TestParkTimeoutZeroPollsPending(t *testing.T) {
	run(t, func(v *Virtual) {
		p := v.NewParker()
		if p.ParkTimeout(0) {
			t.Error("poll with no pending unpark reported woken")
		}
		p.Unpark()
		if !p.ParkTimeout(0) {
			t.Error("poll missed pending unpark")
		}
	})
}

func TestParkTimeoutWokenEarly(t *testing.T) {
	v := run(t, func(v *Virtual) {
		p := v.NewParker()
		g := NewGroup(v)
		g.Go(func() {
			v.Sleep(2 * time.Millisecond)
			p.Unpark()
		})
		if woken := p.ParkTimeout(100 * time.Millisecond); !woken {
			t.Error("timed out despite unpark")
		}
		g.Wait()
	})
	// The stale 100ms timer must not advance the clock.
	if v.Now() != 2*time.Millisecond {
		t.Errorf("time %v, want 2ms", v.Now())
	}
}

func TestStaleTimerDoesNotWakeNextPark(t *testing.T) {
	run(t, func(v *Virtual) {
		p := v.NewParker()
		g := NewGroup(v)
		g.Go(func() {
			v.Sleep(time.Millisecond)
			p.Unpark()
		})
		p.ParkTimeout(50 * time.Millisecond) // woken at 1ms; 50ms timer now stale
		g.Wait()
		// Park again with a longer timeout; the stale 50ms timer must not
		// wake or time-out this park.
		if woken := p.ParkTimeout(200 * time.Millisecond); woken {
			t.Error("stale timer woke subsequent park")
		}
		if v.Now() != 201*time.Millisecond {
			t.Errorf("time %v, want 201ms", v.Now())
		}
	})
}

func TestDeadlockDetection(t *testing.T) {
	v := NewVirtual()
	got := make(chan string, 1)
	v.SetDeadlockHandler(func(dump string) { got <- dump })
	release := v.NewNamedParker("stuck-site")
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		release.Park() // nobody will unpark in time; deadlock fires
	})
	var dump string
	select {
	case dump = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock handler never ran")
	}
	if want := "stuck-site"; !contains(dump, want) {
		t.Fatalf("deadlock dump %q missing %q", dump, want)
	}
	release.Unpark() // let the goroutine finish
	<-done
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestManyGoroutinesQuiesce(t *testing.T) {
	const n = 100
	var done atomic.Int64
	v := run(t, func(v *Virtual) {
		g := NewGroup(v)
		for i := 0; i < n; i++ {
			i := i
			g.Go(func() {
				v.Sleep(time.Duration(i%10+1) * time.Millisecond)
				done.Add(1)
			})
		}
		g.Wait()
	})
	if done.Load() != n {
		t.Fatalf("%d of %d goroutines completed", done.Load(), n)
	}
	if v.Now() != 10*time.Millisecond {
		t.Errorf("makespan %v, want 10ms", v.Now())
	}
}

func TestVirtualDeterministicMakespan(t *testing.T) {
	// The same program yields the same virtual makespan on every run.
	shape := func() time.Duration {
		v := run(t, func(v *Virtual) {
			g := NewGroup(v)
			for i := 0; i < 20; i++ {
				i := i
				g.Go(func() {
					for j := 0; j < 5; j++ {
						v.Sleep(time.Duration((i*7+j*3)%11+1) * time.Millisecond)
					}
				})
			}
			g.Wait()
		})
		return v.Now()
	}
	first := shape()
	for i := 0; i < 3; i++ {
		if got := shape(); got != first {
			t.Fatalf("run %d makespan %v != %v", i, got, first)
		}
	}
}

func TestGroupWaitWhenAlreadyZero(t *testing.T) {
	run(t, func(v *Virtual) {
		g := NewGroup(v)
		g.Wait() // returns immediately
	})
}

func TestGroupNegativePanics(t *testing.T) {
	run(t, func(v *Virtual) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on negative counter")
			}
		}()
		NewGroup(v).Done()
	})
}

func TestGroupMultipleWaiters(t *testing.T) {
	var woken atomic.Int64
	run(t, func(v *Virtual) {
		g := NewGroup(v)
		g.Add(1)
		join := NewGroup(v)
		for i := 0; i < 5; i++ {
			join.Go(func() {
				g.Wait()
				woken.Add(1)
			})
		}
		v.Sleep(time.Millisecond)
		g.Done()
		join.Wait()
	})
	if woken.Load() != 5 {
		t.Fatalf("%d waiters woken, want 5", woken.Load())
	}
}

func TestRealClockBasics(t *testing.T) {
	r := NewReal()
	r.Sleep(time.Millisecond)
	if r.Now() < time.Millisecond {
		t.Errorf("real clock did not advance: %v", r.Now())
	}
	p := r.NewParker()
	p.Unpark()
	p.Park() // pending wakeup consumed
	if woken := p.ParkTimeout(time.Millisecond); woken {
		t.Error("stale wakeup on real parker")
	}
	done := make(chan struct{})
	r.Go(func() { close(done) })
	<-done
	r.Enter()
	r.Exit()
}

func TestRealParkerUnparkWhileParked(t *testing.T) {
	r := NewReal()
	p := r.NewParker()
	go func() {
		time.Sleep(time.Millisecond)
		p.Unpark()
	}()
	if woken := p.ParkTimeout(5 * time.Second); !woken {
		t.Fatal("timed out waiting for unpark")
	}
}

func TestRealGroup(t *testing.T) {
	r := NewReal()
	g := NewGroup(r)
	var n atomic.Int64
	for i := 0; i < 10; i++ {
		g.Go(func() { n.Add(1) })
	}
	g.Wait()
	if n.Load() != 10 {
		t.Fatalf("joined %d of 10", n.Load())
	}
}

func TestSleepOrderedDeterministicTies(t *testing.T) {
	// Three sleepers with the same deadline but explicit ranks wake in
	// rank order on every run, regardless of registration order.
	for rep := 0; rep < 5; rep++ {
		var mu sync.Mutex
		var order []int
		run(t, func(v *Virtual) {
			g := NewGroup(v)
			for _, rank := range []int{3, 1, 2} {
				rank := rank
				g.Go(func() {
					SleepOrdered(v, 5*time.Millisecond, uint64(rank))
					mu.Lock()
					order = append(order, rank)
					mu.Unlock()
				})
			}
			g.Wait()
		})
		if order[0] != 1 || order[1] != 2 || order[2] != 3 {
			t.Fatalf("rep %d: wake order %v, want rank order", rep, order)
		}
	}
}

func TestSleepOrderedZeroReturnsImmediately(t *testing.T) {
	run(t, func(v *Virtual) {
		SleepOrdered(v, 0, 1)
		if v.Now() != 0 {
			t.Errorf("time advanced: %v", v.Now())
		}
	})
}

func TestSleepOrderedRealClock(t *testing.T) {
	r := NewReal()
	start := time.Now()
	SleepOrdered(r, time.Millisecond, 1)
	if time.Since(start) < time.Millisecond {
		t.Fatal("real ordered sleep returned early")
	}
}

// TestParkerReuse: a released parker comes back to the next owner as if
// new. A wakeup buffered for the previous owner is gone, a timeout the
// previous owner armed and abandoned never fires it, and it carries the
// new owner's rank and label. Releasing a parked parker panics.
func TestParkerReuse(t *testing.T) {
	t.Run("no wakeup or timeout of the previous owner", func(t *testing.T) {
		run(t, func(v *Virtual) {
			p := v.NewOrderedParkerNum("thread", 1, 1)
			g := NewGroup(v)
			g.Go(func() {
				v.Sleep(5 * time.Millisecond)
				p.Unpark()
			})
			if !p.ParkTimeout(10 * time.Millisecond) { // woken at 5ms; the 10ms timer is abandoned
				t.Error("previous owner timed out, want woken")
			}
			g.Wait()
			p.Unpark() // a wakeup the previous owner never consumes
			v.ReleaseParker(p)

			q := v.NewOrderedParkerNum("thread", 2, 2)
			if q.(*vparker) != p.(*vparker) {
				t.Fatal("the released parker was not reused")
			}
			start := v.Now()
			if q.ParkTimeout(20 * time.Millisecond) {
				t.Error("new owner woken by the previous owner's wakeup")
			}
			if got := v.Now() - start; got != 20*time.Millisecond {
				t.Errorf("new owner's 20ms timeout ended after %v", got)
			}
		})
	})

	t.Run("the new owner's rank", func(t *testing.T) {
		var woke []string
		run(t, func(v *Virtual) {
			old := v.NewOrderedParker("old", 1)
			v.ReleaseParker(old)
			reused := v.NewOrderedParker("reused", 9)
			fresh := v.NewOrderedParker("fresh", 5)
			g := NewGroup(v)
			for name, p := range map[string]Parker{"reused": reused, "fresh": fresh} {
				g.Go(func() {
					p.ParkTimeout(time.Millisecond)
					woke = append(woke, name) // one goroutine runs at a time: the other is parked
				})
			}
			g.Wait()
		})
		if len(woke) != 2 || woke[0] != "fresh" {
			t.Fatalf("same-deadline wake order %v, want fresh (rank 5) before reused (rank 9)", woke)
		}
	})

	t.Run("the new owner's label", func(t *testing.T) {
		v := NewVirtual()
		dumps := make(chan string, 1)
		v.SetDeadlockHandler(func(dump string) { dumps <- dump })
		v.ReleaseParker(v.NewOrderedParkerNum("thread", 1, 1))
		q := v.NewNamedParker("site")
		done := make(chan struct{})
		v.Go(func() {
			defer close(done)
			q.Park()
		})
		var dump string
		select {
		case dump = <-dumps:
		case <-time.After(5 * time.Second):
			t.Fatal("deadlock handler never ran")
		}
		if !contains(dump, "site") || contains(dump, "thread") {
			t.Errorf("deadlock dump %q, want the new label site only", dump)
		}
		q.Unpark()
		<-done
	})

	t.Run("releasing a parked parker panics", func(t *testing.T) {
		v := NewVirtual()
		parked := make(chan string, 1)
		v.SetDeadlockHandler(func(dump string) { parked <- dump })
		p := v.NewNamedParker("parked")
		done := make(chan struct{})
		v.Go(func() {
			defer close(done)
			p.Park()
		})
		select {
		case <-parked:
		case <-time.After(5 * time.Second):
			t.Fatal("the parker never parked")
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("releasing a parked parker did not panic")
				}
			}()
			v.ReleaseParker(p)
		}()
		p.Unpark()
		<-done
	})
}
