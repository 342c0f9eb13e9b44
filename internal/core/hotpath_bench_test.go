package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/vclock"
)

// Hot-path microbenchmarks for the per-decision scheduler cost. Every
// synchronisation operation of every managed thread funnels through the
// decision lock, so the constant factors measured here bound the
// sustainable request rate of a replica (paper Sect. 3; Kendo/CoreDet
// make the same argument for their per-sync-op costs).

// benchRuntime builds a MAT runtime on a fresh virtual clock.
func benchRuntime() (*vclock.Virtual, *Runtime) {
	v := vclock.NewVirtual()
	rt := NewRuntime(Options{Clock: v, Scheduler: NewMAT(false)})
	return v, rt
}

// hotPathRig runs measure on one live thread of a MAT runtime. With
// lanes > 1 the thread is in class 1 and lanes-1 more threads stay live
// in classes 2..lanes (the tcp3-families shape), so every decision
// sweeps that many lanes; with lanes == 1 it is alone in class 0.
func hotPathRig(lanes int, measure func(*Thread)) {
	_, rt := benchRuntime()
	release := make(chan struct{})
	var live sync.WaitGroup
	for c := 2; c <= lanes; c++ {
		live.Add(1)
		rt.SubmitClassed(ids.ThreadID(c), 0, uint32(c), func(*Thread) { <-release }, live.Done)
	}
	class := uint32(0)
	if lanes > 1 {
		class = 1
	}
	done := make(chan struct{})
	rt.SubmitClassed(1, 0, class, measure, func() { close(done) })
	<-done
	close(release)
	live.Wait()
}

// BenchmarkHotPathLockUnlock measures the uncontended steady-state
// decision pair: one running primary thread acquiring and releasing one
// mutex. This is the single most frequent path in every workload.
func BenchmarkHotPathLockUnlock(b *testing.B) {
	for _, lanes := range []int{1, 4} {
		b.Run(fmt.Sprintf("lanes%d", lanes), func(b *testing.B) {
			b.ReportAllocs()
			hotPathRig(lanes, func(t *Thread) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t.Lock(ids.NoSync, 1)
					t.Unlock(ids.NoSync, 1)
				}
				b.StopTimer()
			})
		})
	}
}

// BenchmarkHotPathSubmitExit measures thread admission + exit — the
// per-request fixed cost of the replica (parker setup, bookkeeping
// tables, admit/start/exit decisions).
func BenchmarkHotPathSubmitExit(b *testing.B) {
	_, rt := benchRuntime()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan struct{})
		rt.Submit(ids.ThreadID(i+1), 0, func(t *Thread) {}, func() { close(done) })
		<-done
	}
}

// BenchmarkHotPathPump measures the event pump's schedule+deliver cycle
// with a queue of 64 pending timeouts per drain — the pattern of many
// concurrent timed waits on a busy server.
func BenchmarkHotPathPump(b *testing.B) {
	_, rt := benchRuntime()
	th := &Thread{ID: 1, rt: rt}
	m := &Mutex{ID: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := rt.clock.Now()
		for j := 0; j < 64; j++ {
			rt.events.schedule(now+time.Duration(j)*time.Microsecond,
				pumpEvent{thread: th, kind: pumpWaitTimeout, mutex: m})
		}
		for !rt.events.drained() {
			runtime.Gosched()
		}
	}
}

// drained reports whether the pump queue is empty and its goroutine has
// exited (benchmark helper).
func (p *pump) drained() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.running
}
