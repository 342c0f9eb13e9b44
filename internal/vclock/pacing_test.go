package vclock

import (
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
