package server

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/workload"
)

// The load engine over a fake Invoker: schedule, shedding, window
// accounting, per-shard ledgers and the ladder's stop rule, without
// sockets and (on the fake clock) without waiting.

// fakeReply says how the fake answers one call.
type fakeReply struct {
	after time.Duration // fake-clock delay before the reply
	never bool          // no reply until the test ends
	err   error
}

// fakeSubmit is one Submit as the fake saw it.
type fakeSubmit struct {
	at    time.Duration // engine clock
	slot  int
	calls []Call
}

// fakeInvoker routes key%shards, answers as reply says (nil: at once, no
// error) and reports, like three replicas per shard, the calls it answered
// without error as completed — minus lag[k], a shard that never catches up.
type fakeInvoker struct {
	shards     int
	reply      func(c Call, shard int) fakeReply // called under mu
	lag        []int
	fork       bool          // replica 3 reports another hash than the others
	clock      *fakeClock    // nil on the real clock
	submitCost time.Duration // fake-clock time one Submit takes
	stop       chan struct{}

	mu        sync.Mutex
	log       []fakeSubmit
	calls     int             // calls seen so far
	due       []time.Duration // when each call that gets a reply gets it
	completed []int
}

// fakeClock moves only when someone sleeps on it (or a Submit costs time).
type fakeClock struct {
	mu    sync.Mutex
	moved *sync.Cond
	t     time.Duration
}

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.moved = sync.NewCond(&c.mu)
	return c
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t += d
	c.mu.Unlock()
	c.moved.Broadcast()
}

func (c *fakeClock) waitUntil(t time.Duration) {
	c.mu.Lock()
	for c.t < t {
		c.moved.Wait()
	}
	c.mu.Unlock()
}

func newFake(t *testing.T, shards int) *fakeInvoker {
	f := &fakeInvoker{
		shards: shards, stop: make(chan struct{}),
		lag: make([]int, max(shards, 1)), completed: make([]int, max(shards, 1)),
	}
	t.Cleanup(func() { close(f.stop) })
	return f
}

type fakeWaiter struct {
	f     *fakeInvoker
	shard int
	r     fakeReply
	due   time.Duration
}

func (w fakeWaiter) Wait() (lang.Value, time.Duration, error) {
	if w.r.never {
		<-w.f.stop
		return nil, 0, errors.New("fake: stopped")
	}
	if w.f.clock != nil {
		w.f.clock.waitUntil(w.due)
	}
	if w.r.err == nil {
		w.f.mu.Lock()
		w.f.completed[w.shard]++
		w.f.mu.Unlock()
	}
	return nil, w.r.after, w.r.err
}

func (f *fakeInvoker) Shards() int { return f.shards }

func (f *fakeInvoker) Submit(slot int, calls []Call) []Pending {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := fakeSubmit{slot: slot, calls: append([]Call(nil), calls...)}
	if f.clock != nil {
		s.at = f.clock.now()
		f.clock.advance(f.submitCost)
	}
	f.log = append(f.log, s)
	out := make([]Pending, len(calls))
	for i, c := range calls {
		k := 0
		if f.shards > 1 {
			k = int(c.Key % uint64(f.shards))
		}
		var r fakeReply
		if f.reply != nil {
			r = f.reply(c, k)
		}
		f.calls++
		w := fakeWaiter{f: f, shard: k, r: r, due: s.at + r.after}
		if !r.never {
			f.due = append(f.due, w.due)
		}
		out[i] = Pending{Shard: k, Waiter: w}
	}
	return out
}

func (f *fakeInvoker) Statuses(k int) ([]Status, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sts := make([]Status, 3)
	for i := range sts {
		sts[i] = Status{ID: ids.ReplicaID(i + 1), Completed: f.completed[k] - f.lag[k], Hash: uint64(7 + k)}
	}
	if f.fork {
		sts[2].Hash++
	}
	return sts, nil
}

// runFake runs the engine on a fake clock. Sleeping advances it at once,
// but only after the engine has booked every reply that is due by now — so
// a run is a deterministic function of its options.
func runFake(f *fakeInvoker, o RunOptions) (*RunResult, error) {
	f.clock, f.due = newFakeClock(), nil
	e := &engine{o: o, now: f.clock.now}
	e.o.Invoker = f
	e.sleep = func(d time.Duration) {
		for giveUp := time.Now().Add(2 * time.Second); time.Now().Before(giveUp); runtime.Gosched() {
			e.mu.Lock()
			booked := 0
			for k := range e.acct {
				booked += e.acct[k].done
			}
			e.mu.Unlock()
			now, due := f.clock.now(), 0
			f.mu.Lock()
			for _, t := range f.due {
				if t <= now {
					due++
				}
			}
			f.mu.Unlock()
			if booked >= due {
				break
			}
		}
		f.clock.advance(d)
	}
	return e.run()
}

// keyedGen spreads Fig. 1 requests over shards by a drawn key.
func keyedGen() workload.Gen { return workload.Fig1Gen(testWorkload(), true) }

func openOpts(rate float64) RunOptions {
	return RunOptions{
		Rate: rate, Warmup: 10 * time.Millisecond, Duration: 20 * time.Millisecond,
		Seed: 3, Gen: keyedGen(), Timeout: time.Second,
	}
}

func TestEngineSeedDeterminesScheduleAndCalls(t *testing.T) {
	run := func(seed uint64) []fakeSubmit {
		f := newFake(t, 2)
		o := openOpts(2000)
		o.Seed, o.Poisson = seed, true
		if _, err := runFake(f, o); err != nil {
			t.Fatal(err)
		}
		return f.log
	}
	a, b, c := run(3), run(3), run(4)
	if len(a) < 30 {
		t.Fatalf("only %d submissions at 2000 req/s over 30ms", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedule or call stream")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same schedule and call stream")
	}
}

func TestEngineMeasuresOnlyTheWindow(t *testing.T) {
	f := newFake(t, 2)
	res, err := runFake(f, openOpts(1000))
	if err != nil {
		t.Fatal(err)
	}
	// Intents at 0,1,..,29 ms: 30 sent, the 20 with intent in [10,30) measured.
	if res.Sent != 30 || res.Measured != 20 || res.Achieved != 1000 {
		t.Fatalf("sent %d measured %d achieved %.0f, want 30, 20, 1000", res.Sent, res.Measured, res.Achieved)
	}
	if res.Intent.N() != 20 || res.Service.N() != 20 {
		t.Fatalf("histograms hold %d/%d samples, want 20", res.Intent.N(), res.Service.N())
	}
	if !res.Converged || len(res.PerShard) != 2 || res.Timeouts+res.Errors+res.Shed != 0 {
		t.Fatalf("clean run: %+v", res)
	}
	var routed uint64
	measured := 0.0
	for _, s := range res.PerShard {
		routed += s.Routed
		measured += s.Achieved * 0.020
		if len(s.Hashes) != 3 || !s.Converged {
			t.Fatalf("shard %d: %+v", s.Shard, s)
		}
	}
	if routed != 30 || int(measured+0.5) != 20 {
		t.Fatalf("per-shard ledgers: routed %d measured %.1f", routed, measured)
	}
	// One call per submission, round-robin over the slots.
	for i, s := range f.log {
		if s.slot != i || len(s.calls) != 1 || s.at != time.Duration(i)*time.Millisecond {
			t.Fatalf("submission %d: slot %d, %d calls at %v", i, s.slot, len(s.calls), s.at)
		}
	}
}

func TestEngineShedsPastMaxInFlight(t *testing.T) {
	f := newFake(t, 1)
	f.reply = func(Call, int) fakeReply { return fakeReply{never: true} }
	o := openOpts(1000)
	o.MaxInFlight = 5
	res, err := runFake(f, o)
	if err != nil {
		t.Fatal(err)
	}
	// The first five are in flight for ever; everything after is shed, never
	// queued; at the drain deadline the five become the shard's timeouts.
	if len(f.log) != 5 || res.Sent != 5 || res.Shed != 25 {
		t.Fatalf("%d submissions, sent %d shed %d; want 5, 5, 25", len(f.log), res.Sent, res.Shed)
	}
	if res.Timeouts != 5 || res.Measured != 0 || res.Elapsed < time.Second {
		t.Fatalf("timeouts %d measured %d after %v", res.Timeouts, res.Measured, res.Elapsed)
	}
}

func TestEngineBatchesWhatIsDue(t *testing.T) {
	// A Submit that takes 2.5 ms at one arrival per ms: every wakeup after
	// the first finds two or three arrivals due.
	for _, batch := range []bool{true, false} {
		f := newFake(t, 2)
		f.submitCost = 2500 * time.Microsecond
		o := openOpts(1000)
		o.Batch = batch
		res, err := runFake(f, o)
		if err != nil || res.Sent != 30 || res.Measured != 20 {
			t.Fatalf("batch=%v: sent %d measured %d err %v", batch, res.Sent, res.Measured, err)
		}
		biggest := 0
		for i, s := range f.log {
			if s.slot != i {
				t.Fatalf("batch=%v: submission %d rode slot %d, want one slot per submission", batch, i, s.slot)
			}
			biggest = max(biggest, len(s.calls))
		}
		if batch && biggest < 2 || !batch && biggest != 1 {
			t.Fatalf("batch=%v: largest submission carried %d calls", batch, biggest)
		}
	}
}

func TestEngineTimeoutsStayOnTheirShard(t *testing.T) {
	// Three calls to shard 0 are never answered; shard 1's replicas lag two
	// completions behind what was sent there. The three timeouts must not
	// loosen shard 1's expectation: it has to be reported as not converged.
	f := newFake(t, 2)
	lost := 0
	f.reply = func(_ Call, shard int) fakeReply {
		if shard == 0 && lost < 3 {
			lost++
			return fakeReply{never: true}
		}
		return fakeReply{}
	}
	f.lag[1] = 2
	res, err := runFake(f, openOpts(1000))
	if err == nil || res.Converged {
		t.Fatalf("shard 1 lags by two and the run converged (err %v)", err)
	}
	if res.Timeouts != 3 {
		t.Fatalf("timeouts %d, want 3", res.Timeouts)
	}
	s0, s1 := res.PerShard[0], res.PerShard[1]
	if !s0.Converged || s1.Converged {
		t.Fatalf("shard 0 converged=%v (its timeouts are its own), shard 1 converged=%v (it lags)", s0.Converged, s1.Converged)
	}
	if got := int(s0.Routed) - s0.Statuses[0].Completed; got != 3 {
		t.Fatalf("shard 0 settled %d short of routed, want exactly its 3 timeouts", got)
	}
}

func TestEngineClosedLoop(t *testing.T) {
	f := newFake(t, 1)
	// The third submission hits an election window; the engine retries it.
	f.reply = func(Call, int) fakeReply {
		if f.calls == 2 {
			return fakeReply{err: errors.New("reply: " + gcs.ErrNoSequencer.Error())}
		}
		return fakeReply{}
	}
	res, err := Run(RunOptions{Invoker: f, Clients: 1, RequestsPerClient: 4, Seed: 1, Gen: keyedGen()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 5 || res.Measured != 4 || res.NoSequencer != 1 || res.Errors != 0 || !res.Converged {
		t.Fatalf("sent %d measured %d no-sequencer %d errors %d converged %v",
			res.Sent, res.Measured, res.NoSequencer, res.Errors, res.Converged)
	}
	if !reflect.DeepEqual(f.log[2].calls, f.log[3].calls) {
		t.Fatal("the retry is not the same call")
	}

	// Batch: every client's requests in one submission, on its own slot.
	f = newFake(t, 1)
	res, err = Run(RunOptions{Invoker: f, Clients: 3, RequestsPerClient: 4, Seed: 1, Gen: keyedGen(), Batch: true})
	if err != nil || res.Measured != 12 || len(f.log) != 3 {
		t.Fatalf("batch: measured %d in %d submissions, err %v", res.Measured, len(f.log), err)
	}
	for _, s := range f.log {
		if len(s.calls) != 4 {
			t.Fatalf("client %d submitted %d calls at once, want 4", s.slot, len(s.calls))
		}
	}
}

func TestEngineBehindAFacade(t *testing.T) {
	// No shard visible (HTTP): nothing to settle, replies are all there is.
	f := newFake(t, 0)
	f.reply = func(Call, int) fakeReply {
		if f.calls == 7 {
			return fakeReply{err: errors.New("HTTP 503")}
		}
		return fakeReply{}
	}
	res, err := runFake(f, openOpts(1000))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerShard) != 0 || !res.Converged || res.Errors != 1 || res.Sent != 30 {
		t.Fatalf("facade run: %+v", res)
	}
}

// TestFindCeilingStopRule walks the ladder with 20 ms windows: rungs of
// 1000, 2000, 4000, 8000 req/s, that is 20, 40, 80, 160 arrivals. The fake misbehaves from the third rung on, so the search must
// stop there and report the second rung as the ceiling.
func TestFindCeilingStopRule(t *testing.T) {
	cases := []struct {
		name string
		o    RunOptions
		bad  func(f *fakeInvoker) fakeReply // the third rung's replies (nil: as good as the others)
	}{
		{name: "sustained throughout"},
		{"p99 over the SLO", RunOptions{SLO: 50 * time.Millisecond},
			func(*fakeInvoker) fakeReply { return fakeReply{after: 120 * time.Millisecond} }},
		// Slow replies under a low cap: most arrivals are shed, none fails.
		{"achieved below 90% of offered", RunOptions{MaxInFlight: 16},
			func(*fakeInvoker) fakeReply { return fakeReply{after: 30 * time.Millisecond} }},
		{"a timeout", RunOptions{},
			func(f *fakeInvoker) fakeReply { return fakeReply{never: f.calls == 70} }},
		{"a failed request", RunOptions{},
			func(f *fakeInvoker) fakeReply {
				if f.calls == 70 {
					return fakeReply{err: errors.New("boom")}
				}
				return fakeReply{}
			}},
		{"a shard that does not converge", RunOptions{},
			func(f *fakeInvoker) fakeReply { f.lag[1] = 1; return fakeReply{} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := newFake(t, 2)
			f.reply = func(Call, int) fakeReply {
				if c.bad != nil && f.calls >= 60 {
					return c.bad(f)
				}
				return fakeReply{}
			}
			o := c.o
			if o.SLO == 0 {
				o.SLO = 100 * time.Millisecond
			}
			o.Invoker, o.Gen, o.Seed = f, keyedGen(), 5
			o.Warmup, o.Duration, o.Timeout = -1, 20*time.Millisecond, 40*time.Millisecond
			res, err := findCeiling(o, 1000, 2, 4, func(o RunOptions) (*RunResult, error) { return runFake(f, o) })
			if err != nil {
				t.Fatal(err)
			}
			last := res.Steps[len(res.Steps)-1]
			if c.bad == nil {
				if len(res.Steps) != 4 || !last.Sustained || last.Offered != 8000 || res.Ceiling != last.Achieved {
					t.Fatalf("ladder should run out sustained: ceiling %.0f, steps %+v", res.Ceiling, res.Steps)
				}
				return
			}
			if len(res.Steps) != 3 || last.Sustained || last.Offered != 4000 {
				t.Fatalf("want a stop at the third rung (4000 req/s): %+v", res.Steps)
			}
			if prev := res.Steps[1]; !prev.Sustained || prev.Achieved != 2000 || res.Ceiling != 2000 {
				t.Fatalf("ceiling %.0f, want the last sustained rung's 2000: %+v", res.Ceiling, res.Steps)
			}
		})
	}
}

// Replicas that settle on different hashes are a correctness defect, not a
// capacity signal: the rung is marked, the search goes on.
func TestFindCeilingReportsDivergence(t *testing.T) {
	f := newFake(t, 1)
	f.fork = true
	o := openOpts(0)
	o.SLO = 100 * time.Millisecond
	res, err := findCeiling(o, 1000, 2, 2, func(o RunOptions) (*RunResult, error) { return runFake(f, o) })
	if err != nil || len(res.Steps) != 2 || res.Ceiling != 2000 {
		t.Fatalf("err %v, steps %+v", err, res.Steps)
	}
	for _, st := range res.Steps {
		if !st.Diverged || !st.Sustained {
			t.Fatalf("rung %+v: want sustained and marked diverged", st)
		}
	}
}

// closedDraws returns what the closed loop submits for a seed,
// client-major: each client's draws in the order it submitted them.
func closedDraws(t *testing.T, seed uint64, clients, perClient int, batch bool, gen drawGen) []draw {
	t.Helper()
	f := newFake(t, 1)
	_, err := Run(RunOptions{
		Invoker: f, Clients: clients, RequestsPerClient: perClient, Seed: seed,
		Gen: gen, Batch: batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	perSlot := make([][]draw, clients)
	for _, s := range f.log {
		for _, c := range s.calls {
			perSlot[s.slot] = append(perSlot[s.slot], draw{s.slot + 1, c.Method, c.Args})
		}
	}
	var out []draw
	for _, ds := range perSlot {
		out = append(out, ds...)
	}
	return out
}

// openDraws returns the open-loop pump's first drawN intents (relative to
// the run's start) and calls, on a clock that is never late.
func openDraws(t *testing.T, seed uint64, poisson bool, gen drawGen) ([]time.Duration, []draw) {
	t.Helper()
	f := newFake(t, 1)
	_, err := runFake(f, RunOptions{
		Rate: drawRate, Warmup: -1, Duration: 100 * time.Millisecond, Poisson: poisson,
		Seed: seed, Gen: gen, Timeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var intents []time.Duration
	var calls []draw
	for _, s := range f.log[:drawN] {
		if len(s.calls) != 1 {
			t.Fatalf("submission of %d calls on a clock that is never late", len(s.calls))
		}
		intents = append(intents, s.at)
		calls = append(calls, draw{1, s.calls[0].Method, s.calls[0].Args})
	}
	return intents, calls
}
