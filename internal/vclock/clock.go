// Package vclock provides the time substrate for detmt experiments.
//
// The paper's evaluation ran on a LAN testbed with millisecond-scale
// delays (12 ms nested invocations, 1.5 ms computations). Reproducing
// those experiments with wall-clock sleeps would be slow and noisy, so
// this package offers two interchangeable clocks:
//
//   - Virtual: a discrete-event clock. All managed goroutines register
//     their blocking points; when every managed goroutine is blocked the
//     clock jumps to the next timer. Experiments run in microseconds of
//     real time, produce bit-identical timings on every run, and any true
//     deadlock is detected and reported instead of hanging.
//   - Real: thin wrappers over the wall clock, for demos and for checking
//     that shapes survive on real hardware.
//
// The contract for code running under a Virtual clock: every blocking
// operation must be expressed either as Clock.Sleep or as a Parker
// park/unpark pair, and every goroutine that does so must be spawned via
// Clock.Go (or bracketed with Enter/Exit). Short sync.Mutex critical
// sections are exempt: a goroutine spinning on a contended mutex still
// counts as runnable, so the clock cannot advance past it.
package vclock

import "time"

// Clock abstracts virtual and real time.
type Clock interface {
	// Now returns the time elapsed since the clock was created.
	Now() time.Duration
	// Sleep blocks the calling goroutine for d (virtual or real).
	// Non-positive durations return immediately.
	Sleep(d time.Duration)
	// Go runs fn in a new managed goroutine.
	Go(fn func())
	// NewParker returns a fresh parking slot for one blocking site.
	// A Parker may be reused sequentially but never parked concurrently.
	NewParker() Parker
	// Enter registers the calling goroutine as managed; Exit unregisters
	// it. Go calls these automatically.
	Enter()
	Exit()
}

// SleepOrdered sleeps like Clock.Sleep but, on a Virtual clock, with a
// deterministic same-deadline rank: among timers expiring at the same
// virtual instant, lower orders wake first regardless of (racy) timer
// registration order. Fully deterministic simulations must use it for
// any sleep whose wake order can influence a decision (e.g. which of two
// simultaneous broadcasts gets the earlier total-order slot).
func SleepOrdered(c Clock, d time.Duration, order uint64) {
	if v, ok := c.(*Virtual); ok {
		v.sleep(d, order)
		return
	}
	c.Sleep(d)
}

// Parker is a one-goroutine blocking slot integrated with the clock's
// runnable-goroutine accounting.
//
// Unpark may be called before Park; the pending wakeup is then consumed
// by the next Park, which returns immediately. At most one wakeup is
// buffered. Unpark may be called from any goroutine, managed or not.
type Parker interface {
	// Park blocks until Unpark is called (or a pending unpark exists).
	Park()
	// ParkTimeout blocks until Unpark or until d elapses. It reports
	// whether the goroutine was woken by Unpark (true) or by the
	// timeout (false).
	ParkTimeout(d time.Duration) bool
	// Unpark wakes the parked goroutine, or buffers one wakeup.
	// Unparking a goroutine whose ParkTimeout already fired is a no-op
	// for that park (the buffered wakeup is cleared on timeout).
	Unpark()
}
