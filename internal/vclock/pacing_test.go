package vclock

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestPacedLeaderTracksWall(t *testing.T) {
	v := NewVirtual()
	v.EnablePacing(true)
	done := make(chan time.Duration, 1)
	start := time.Now()
	v.Go(func() {
		v.Sleep(30 * time.Millisecond)
		done <- v.Now()
	})
	select {
	case now := <-done:
		if now != 30*time.Millisecond {
			t.Fatalf("virtual now = %v, want 30ms", now)
		}
		if el := time.Since(start); el < 20*time.Millisecond {
			t.Fatalf("paced sleep returned after only %v of wall time", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("paced sleep never fired")
	}
}

// TestPacedLeaderIgnoresHorizons: a leader's horizon is already
// unbounded, so a horizon far ahead must not move its wall anchor — if
// it did, the sequencer's stamps would run ahead of wall time.
func TestPacedLeaderIgnoresHorizons(t *testing.T) {
	v := NewVirtual()
	v.EnablePacing(true)
	done := make(chan time.Duration, 1)
	start := time.Now()
	v.Go(func() {
		v.Sleep(30 * time.Millisecond)
		done <- v.Now()
	})
	time.Sleep(5 * time.Millisecond)
	v.SetHorizon(time.Hour)
	select {
	case now := <-done:
		if now != 30*time.Millisecond {
			t.Fatalf("virtual now = %v, want 30ms", now)
		}
		if el := time.Since(start); el < 25*time.Millisecond {
			t.Fatalf("paced sleep returned after only %v of wall time", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("paced sleep never fired")
	}
}

// TestFollowerAnchorsOnFastestHorizon: a slow first horizon must not
// hold every later delivery back by its excess transit. The 5 ms
// horizon arrives 60 ms after pacing starts; anchored there, the 100 ms
// delivery would wait about 95 ms of wall time after its own horizon.
func TestFollowerAnchorsOnFastestHorizon(t *testing.T) {
	v := NewVirtual()
	v.EnablePacing(false)
	time.Sleep(60 * time.Millisecond)
	v.SetHorizon(5 * time.Millisecond)
	got := make(chan time.Duration, 1)
	start := time.Now()
	v.ScheduleAt(100*time.Millisecond, DefaultOrder, func() {
		got <- v.Now()
	})
	v.SetHorizon(100 * time.Millisecond)
	select {
	case now := <-got:
		if now != 100*time.Millisecond {
			t.Fatalf("delivered at %v, want 100ms", now)
		}
		if el := time.Since(start); el > 30*time.Millisecond {
			t.Fatalf("delivery waited %v of wall time behind its horizon", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delivery never ran")
	}
}

// TestFollowerAnchorNeverMovesBack: a horizon slower than the fastest
// one seen must not lower the anchor. On a follower the horizon gate
// already holds every timer the anchor would, so the kept anchor shows
// once the follower is promoted: a timer due under the fast anchor must
// fire at once, where the slower one would hold it about 85 ms.
func TestFollowerAnchorNeverMovesBack(t *testing.T) {
	v := NewVirtual()
	v.EnablePacing(false)
	v.SetHorizon(200 * time.Millisecond) // fast: offset ≈ 200ms
	time.Sleep(100 * time.Millisecond)
	v.SetHorizon(205 * time.Millisecond) // slow: h − elapsed ≈ 105ms
	v.PromoteLeader()
	got := make(chan time.Duration, 1)
	start := time.Now()
	v.ScheduleAt(290*time.Millisecond, DefaultOrder, func() {
		got <- v.Now()
	})
	select {
	case now := <-got:
		if now != 290*time.Millisecond {
			t.Fatalf("fired at %v, want 290ms", now)
		}
		if el := time.Since(start); el > 30*time.Millisecond {
			t.Fatalf("timer due under the fastest anchor waited %v", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
}

func TestFollowerGatedByHorizon(t *testing.T) {
	v := NewVirtual()
	v.EnablePacing(false)
	fired := make(chan struct{})
	v.Go(func() {
		v.Sleep(10 * time.Millisecond)
		close(fired)
	})
	select {
	case <-fired:
		t.Fatal("timer fired before any horizon arrived")
	case <-time.After(50 * time.Millisecond):
	}
	v.SetHorizon(10 * time.Millisecond)
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("timer did not fire after the horizon was raised")
	}
	if v.Now() != 10*time.Millisecond {
		t.Fatalf("virtual now = %v, want 10ms", v.Now())
	}
}

func TestScheduleAtInjectsAtExactInstant(t *testing.T) {
	v := NewVirtual()
	v.EnablePacing(false)
	got := make(chan time.Duration, 1)
	v.ScheduleAt(5*time.Millisecond, DefaultOrder, func() {
		got <- v.Now()
	})
	v.SetHorizon(5 * time.Millisecond)
	select {
	case now := <-got:
		if now != 5*time.Millisecond {
			t.Fatalf("injected at %v, want 5ms", now)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("injection never ran")
	}
}

func TestPacedParkIsIdleNotDeadlock(t *testing.T) {
	v := NewVirtual()
	v.EnablePacing(false)
	p := make(chan Parker, 1)
	done := make(chan struct{})
	v.Go(func() {
		pk := v.NewParker()
		p <- pk
		pk.Park() // unpaced, this would panic as a deadlock
		close(done)
	})
	pk := <-p
	time.Sleep(20 * time.Millisecond) // give the goroutine time to park
	pk.Unpark()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("parked goroutine never resumed")
	}
}

func TestHorizonIsMonotone(t *testing.T) {
	v := NewVirtual()
	v.EnablePacing(false)
	v.SetHorizon(20 * time.Millisecond)
	v.SetHorizon(5 * time.Millisecond) // ignored: lower than current
	fired := make(chan struct{})
	v.Go(func() {
		v.Sleep(15 * time.Millisecond)
		close(fired)
	})
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("timer within the horizon did not fire")
	}
}

// ScheduleAt puts its timer in the heap before it returns: callbacks with
// equal (at, order) run in call order, one goroutine calling it many times
// over included, and an instant at or before now means this instant, once
// every runnable goroutine has blocked.
func TestScheduleAtFIFOAtOneKey(t *testing.T) {
	const n = 1000
	run(t, func(v *Virtual) {
		var mu sync.Mutex
		var got []int
		for i := 0; i < n; i++ {
			i := i
			v.ScheduleAt(5*time.Millisecond, 7, func() {
				mu.Lock()
				got = append(got, i)
				mu.Unlock()
			})
		}
		v.Sleep(10 * time.Millisecond)
		mu.Lock()
		defer mu.Unlock()
		if len(got) != n {
			t.Errorf("%d of %d callbacks ran", len(got), n)
			return
		}
		for i, g := range got {
			if g != i {
				t.Errorf("callback %d ran in position %d", g, i)
				return
			}
		}
	})

	run(t, func(v *Virtual) {
		v.Sleep(time.Millisecond)
		var mu sync.Mutex
		var parentDone, childDone, ran bool
		var at time.Duration
		v.ScheduleAt(0, DefaultOrder, func() {
			mu.Lock()
			ran = true
			at = v.Now()
			if !parentDone || !childDone {
				t.Errorf("an at<=now callback ran before every runnable goroutine blocked (caller done %v, child done %v)", parentDone, childDone)
			}
			mu.Unlock()
		})
		v.Go(func() {
			for i := 0; i < 100; i++ {
				runtime.Gosched()
			}
			mu.Lock()
			childDone = true
			mu.Unlock()
		})
		for i := 0; i < 100; i++ {
			runtime.Gosched()
		}
		mu.Lock()
		parentDone = true
		mu.Unlock()
		v.Sleep(time.Millisecond)
		mu.Lock()
		defer mu.Unlock()
		if !ran || at != time.Millisecond {
			t.Errorf("callback ran %v at %v, want at 1ms", ran, at)
		}
	})
}

// ScheduleSlot ranks callbacks at one (at, order) by slot whatever the
// call order, keeps call order among equal slots, puts ScheduleAt's
// callbacks (slot 0) first and never lets a slot outrank a lower order or
// an earlier instant; Fired counts every callback that started.
func TestScheduleSlotRanksBySlot(t *testing.T) {
	run(t, func(v *Virtual) {
		var mu sync.Mutex
		var got []string
		rec := func(s string) func() {
			return func() {
				mu.Lock()
				got = append(got, s)
				mu.Unlock()
			}
		}
		before := v.Fired()
		at := 5 * time.Millisecond
		v.ScheduleSlot(at, 7, 3, rec("s3"))
		v.ScheduleSlot(at, 7, 1, rec("s1a"))
		v.ScheduleSlot(at, 8, 0, rec("order8"))
		v.ScheduleSlot(at, 7, 2, rec("s2"))
		v.ScheduleSlot(at, 7, 1, rec("s1b"))
		v.ScheduleAt(at, 7, rec("plain"))
		v.ScheduleSlot(at-time.Millisecond, 9, 9, rec("earlier"))
		v.Sleep(10 * time.Millisecond)
		mu.Lock()
		defer mu.Unlock()
		want := []string{"earlier", "plain", "s1a", "s1b", "s2", "s3", "order8"}
		if len(got) != len(want) {
			t.Errorf("ran %v, want %v", got, want)
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("ran %v, want %v", got, want)
				return
			}
		}
		if fired := v.Fired() - before; fired != uint64(len(want)) {
			t.Errorf("Fired counts %d callbacks, %d ran", fired, len(want))
		}
	})
}
