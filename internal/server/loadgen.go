package server

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"detmt/internal/ids"
	"detmt/internal/metrics"
	"detmt/internal/shard"
	"detmt/internal/workload"
)

// Invoker is what the load engine drives: submit these calls, give me
// something to wait on, tell me your per-shard statuses. ShardClients is
// the wire implementation (DialGroup, DialShards); kvapi.HTTPInvoker goes
// through an HTTP gateway. The interface hides the transport from the
// engine and lets a test substitute a fake.
type Invoker interface {
	// Shards is the number of replica groups whose statuses the invoker
	// can see: 0 behind an HTTP facade, where nothing can be settled.
	Shards() int
	// Submit starts the calls, as one atomic unit per shard, on the
	// slot-th client identity and returns one Pending per call in call
	// order. It does not wait for replies.
	Submit(slot int, calls []Call) []Pending
	// Statuses returns shard k's per-replica control snapshots.
	Statuses(k int) ([]Status, error)
}

// RunOptions parameterises one load run, the paper's Fig. 1 measurement
// protocol over real sockets: N clients against the replicas,
// client-perceived latency, replicas compared afterwards. The schedule is
// closed loop (Clients workers, each waiting for its reply before the
// next request) unless Rate is set; then arrivals follow a schedule that
// is independent of response times — a slow cluster does not slow the
// offered rate down, it builds queue — which is the only way to find the
// throughput ceiling without coordinated omission hiding it.
type RunOptions struct {
	// Invoker carries the requests (required). The run does not close it.
	Invoker Invoker
	// Clients is the number of concurrent closed-loop clients (default 1);
	// client i submits on the invoker's slot i. The open loop round-robins
	// over every slot instead, so no single per-client sequence-number
	// stream serialises the offered load.
	Clients int
	// RequestsPerClient is how many requests each closed-loop client
	// issues (default 1).
	RequestsPerClient int
	// Rate > 0 selects the open loop: the offered arrival rate in
	// requests per second, across all shards.
	Rate float64
	// Duration is the open loop's measured window (default 5s). Only
	// completions whose scheduled intent time falls inside it are recorded.
	Duration time.Duration
	// Warmup precedes the measured window (default 1s, negative: none):
	// arrivals are offered but their completions are discarded, so
	// connection setup and first-touch allocation do not pollute the
	// histogram.
	Warmup time.Duration
	// Poisson draws exponential inter-arrival times (mean 1/Rate) instead
	// of a fixed interval. Seeded, so the schedule reproduces.
	Poisson bool
	// MaxInFlight caps outstanding open-loop requests (default 4096).
	// Arrivals beyond the cap are shed and counted, not queued
	// client-side: unbounded client queues would turn an overloaded run
	// into an unbounded-memory run and report meaningless latencies.
	MaxInFlight int
	// Batch submits atomically. Closed loop: each client sends all its
	// requests as ONE batch before collecting replies — a single batched
	// client gives the whole run a reproducible total order, the property
	// the reconnect-determinism test asserts. Open loop: every arrival due
	// at a pump wakeup rides one wire frame per shard (the client-side
	// half of group commit).
	Batch bool
	// SLO is the p99 budget on intent-to-response latency used for the
	// SLOMet verdict and the ceiling search (0: no verdict).
	SLO time.Duration
	// Seed drives the client-side random decisions (paper Fig. 1: the
	// clients make all random choices and pass them as parameters) and
	// the Poisson schedule.
	Seed uint64
	// Gen draws each request and must match what the servers host (nil:
	// the default Fig. 1 workload, under a random routing key when the
	// invoker has several shards).
	Gen workload.Gen
	// Timeout bounds, in wall time, the whole closed-loop run including the
	// settle (default 2 minutes); in the open loop, whose schedule has its
	// own length, what follows the window: the drain — requests still
	// unanswered at its end are counted as Timeouts — and the settle
	// (default 30s).
	Timeout time.Duration

	Logf func(format string, args ...interface{})
}

// ShardSummary is one shard's slice of a run.
type ShardSummary struct {
	Shard    int     // index into the ring's groups
	Routed   uint64  // submissions the router sent here
	Achieved float64 // the shard's share of RunResult.Achieved
	// Statuses/Hashes/Converged: the shard's replicas after settling —
	// converged means all of them completed the same count with
	// bit-identical ConsistencyHash (the determinism criterion).
	Statuses  []Status
	Hashes    []uint64
	Converged bool
}

// RunResult is the outcome of one run.
type RunResult struct {
	Offered  float64 // open loop: requested arrival rate (req/s)
	Achieved float64 // measured replies per second of window (closed loop: of the run)
	Sent     int     // submissions (a closed-loop retry is a new one)
	Measured int     // replies recorded in the histograms
	Shed     int     // arrivals dropped at the MaxInFlight cap
	Timeouts int     // submitted but unanswered at the deadline
	// NoSequencer counts submissions that failed fast on
	// gcs.ErrNoSequencer, an election in flight; they never entered the
	// order. The closed loop retries them, the open loop does not.
	NoSequencer int
	Errors      int // other failed requests
	// Intent is the coordinated-omission-corrected latency: reply time
	// minus the request's scheduled intent time, so queueing caused by a
	// saturated cluster shows. Service is reply time minus actual send
	// time. In a closed loop the intent is the send.
	Intent  *metrics.Histogram
	Service *metrics.Histogram
	Elapsed time.Duration // first submission to last reply (or deadline)
	// SLOMet reports whether Intent's p99 stayed within SLO (true when no
	// SLO was set).
	SLOMet bool
	// PerShard has one entry per shard of the invoker (one for an
	// unsharded cluster, none behind HTTP); Imbalance is max/mean over
	// their routed counts (1.0 = perfectly even ring). Converged means
	// every shard converged.
	PerShard  []ShardSummary
	Imbalance float64
	Converged bool
}

// shardAcct is the engine's per-shard ledger. A shard's replicas must
// reach base + done - failed completions: submissions that failed never
// entered the order, and those still unanswered at the deadline may not
// have.
type shardAcct struct{ base, sent, done, failed, measured int }

// engine is one run. The clock is injected so that unit tests can walk
// the schedule without waiting for it.
type engine struct {
	o     RunOptions
	now   func() time.Duration // monotonic
	sleep func(time.Duration)

	winStart, winEnd time.Duration // intents in [winStart, winEnd) are measured
	inFlight         atomic.Int64

	mu     sync.Mutex
	closed bool // deadline passed: late replies no longer count
	res    RunResult
	acct   []shardAcct
}

// Run drives one measurement run and waits for the cluster to settle:
// every replica of every shard reporting the completions the run
// produced, with identical hashes.
func Run(o RunOptions) (*RunResult, error) {
	epoch := time.Now()
	e := &engine{o: o, now: func() time.Duration { return time.Since(epoch) }, sleep: time.Sleep}
	return e.run()
}

func (e *engine) run() (*RunResult, error) {
	o := &e.o
	if o.Invoker == nil {
		return nil, fmt.Errorf("load: no invoker given")
	}
	if o.Clients <= 0 {
		o.Clients = 1
	}
	if o.RequestsPerClient <= 0 {
		o.RequestsPerClient = 1
	}
	if o.Duration <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	} else if o.Warmup == 0 {
		o.Warmup = time.Second
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 4096
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Minute
		if o.Rate > 0 {
			o.Timeout = 30 * time.Second
		}
	}
	shards := o.Invoker.Shards()
	if o.Gen == nil {
		o.Gen = workload.Fig1Gen(workload.DefaultFig1(), shards > 1)
	}

	e.res = RunResult{Offered: o.Rate, Intent: &metrics.Histogram{}, Service: &metrics.Histogram{}}
	e.acct = make([]shardAcct, max(shards, 1))
	// The replicas' completion counters are cumulative, so a warm cluster
	// starts above zero: capture the base before offering load.
	for k := 0; k < shards; k++ {
		if sts, err := o.Invoker.Statuses(k); err == nil {
			for _, st := range sts {
				e.acct[k].base = max(e.acct[k].base, st.Completed)
			}
		}
	}

	start := e.now()
	settleBy := start + o.Timeout
	var runErr error
	if o.Rate > 0 {
		e.winStart = start + o.Warmup
		e.winEnd = e.winStart + o.Duration
		e.pump(start)
		// Drain: wait for every submitted request to resolve. Stragglers
		// become Timeouts.
		settleBy = e.now() + o.Timeout
		for e.inFlight.Load() > 0 && e.now() < settleBy {
			e.sleep(5 * time.Millisecond)
		}
	} else {
		e.winEnd = math.MaxInt64
		if !e.closedLoop(time.Now().Add(o.Timeout)) {
			runErr = fmt.Errorf("load: requests did not complete within %v (servers unreachable or stalled)", o.Timeout)
		}
	}

	e.mu.Lock()
	e.closed = true // goroutines still parked on a reply keep e alive but no longer write
	res := &e.res
	e.mu.Unlock()
	res.Elapsed = e.now() - start
	window := o.Duration.Seconds()
	if o.Rate <= 0 {
		window = res.Elapsed.Seconds()
	}
	res.Achieved = float64(res.Measured) / window
	res.SLOMet = o.SLO <= 0 || res.Intent.Percentile(99) <= o.SLO
	routed := make([]uint64, shards)
	for k := range e.acct {
		a := &e.acct[k]
		res.Timeouts += a.sent - a.done
		if k < shards {
			routed[k] = uint64(a.sent)
			res.PerShard = append(res.PerShard, ShardSummary{
				Shard: k, Routed: routed[k], Achieved: float64(a.measured) / window,
			})
		}
	}
	res.Imbalance = shard.ImbalanceRatio(routed)
	if runErr != nil {
		return res, runErr
	}
	res.Converged = true
	for k := range res.PerShard {
		a := &e.acct[k]
		if err := e.settle(&res.PerShard[k], a.base+a.done-a.failed, settleBy); err != nil && runErr == nil {
			runErr = err
		}
		res.Converged = res.Converged && res.PerShard[k].Converged
	}
	return res, runErr
}

// draw generates one call from rng.
func (e *engine) draw(rng *ids.RNG) Call {
	key, method, args := e.o.Gen(rng)
	return Call{Key: key, Method: method, Args: args}
}

// submit hands calls to the invoker and books them as sent.
func (e *engine) submit(slot int, calls []Call) []Pending {
	ps := e.o.Invoker.Submit(slot, calls)
	e.inFlight.Add(int64(len(ps)))
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		e.res.Sent += len(ps)
		for _, p := range ps {
			e.acct[p.Shard].sent++
		}
	}
	return ps
}

// await collects one reply off-schedule and books it; the call counts as
// measured when its intent lies in the window.
func (e *engine) await(p Pending, intent time.Duration) error {
	_, service, err := p.Wait()
	replyAt := e.now()
	defer e.inFlight.Add(-1) // after the booking: the drain waits on it
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return err
	}
	a := &e.acct[p.Shard]
	a.done++
	switch {
	case isNoSequencer(err):
		a.failed++
		e.res.NoSequencer++
	case err != nil:
		a.failed++
		e.res.Errors++
		if e.o.Logf != nil {
			e.o.Logf("load: request failed: %v", err)
		}
	case intent >= e.winStart && intent < e.winEnd:
		a.measured++
		e.res.Measured++
		e.res.Intent.Add(replyAt - intent)
		e.res.Service.Add(service)
	}
	return err
}

// closedLoop runs Clients workers, each with its own RNG forked off the
// seed's in client order, and reports whether they all finished by the
// deadline. A worker that hits an election window retries: the failed
// submission never entered the order, so the retry is a new request.
func (e *engine) closedLoop(deadline time.Time) bool {
	o := &e.o
	var wg sync.WaitGroup
	root := ids.NewRNG(o.Seed)
	for ci := 0; ci < o.Clients; ci++ {
		rng := root.Fork()
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			calls := make([]Call, o.RequestsPerClient)
			for i := range calls {
				calls[i] = e.draw(rng)
			}
			if o.Batch {
				sentAt := e.now()
				for _, p := range e.submit(ci, calls) {
					e.await(p, sentAt)
				}
				return
			}
			for i := range calls {
				for attempt := 0; ; attempt++ {
					sentAt := e.now()
					err := e.await(e.submit(ci, calls[i:i+1])[0], sentAt)
					if !isNoSequencer(err) || time.Now().After(deadline) {
						break
					}
					time.Sleep(electionBackoff(attempt))
				}
			}
		}(ci)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
		return true
	case <-time.After(time.Until(deadline)):
		// Clients are still parked waiting for replies that will never
		// arrive (e.g. every server unreachable).
		return false
	}
}

// burstCap bounds how many due arrivals one pump wakeup collects, hence
// the size of a single frame in batch mode.
const burstCap = 256

// pump walks the intent schedule from start to the end of the window,
// sleeping ahead of the next arrival and submitting everything that is
// due on each wakeup. It never blocks on responses, which is the whole
// point of an open loop. The arrival RNG is forked off the seed's first;
// calls are drawn from the parent in arrival order.
func (e *engine) pump(start time.Duration) {
	o := &e.o
	rng := ids.NewRNG(o.Seed)
	arrRNG := rng.Fork()
	interval := time.Duration(float64(time.Second) / o.Rate)
	nextGap := func() time.Duration {
		if !o.Poisson {
			return interval
		}
		// Exponential with mean `interval`; clamp the (measure-zero)
		// log(0) draw.
		u := arrRNG.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		return time.Duration(-math.Log(u) * float64(interval))
	}
	slot := 0
	for intent := start; intent < e.winEnd; {
		if gap := intent - e.now(); gap > 0 {
			e.sleep(gap)
		}
		due := []time.Duration{intent}
		intent += nextGap()
		for now := e.now(); len(due) < burstCap && intent < e.winEnd && intent <= now; {
			due = append(due, intent)
			intent += nextGap()
		}
		if int(e.inFlight.Load())+len(due) > o.MaxInFlight {
			e.res.Shed += len(due) // no lock: only the pump touches Shed
			continue
		}
		calls := make([]Call, len(due))
		for i := range calls {
			calls[i] = e.draw(rng)
		}
		if o.Batch {
			for i, p := range e.submit(slot, calls) {
				go e.await(p, due[i])
			}
			slot++
			continue
		}
		for i := range calls {
			go e.await(e.submit(slot, calls[i:i+1])[0], due[i])
			slot++
		}
	}
}

// settle waits until every replica of the shard reports at least expected
// completions and they all agree, then records statuses and hashes.
// Against a warm cluster the counters are cumulative, so a replica still
// applying the tail can satisfy the lower bound while lagging its peers:
// hence the agreement.
func (e *engine) settle(sum *ShardSummary, expected int, deadline time.Duration) error {
	for {
		sts, err := e.o.Invoker.Statuses(sum.Shard)
		settled := err == nil
		for _, st := range sts {
			if st.Completed < expected || st.Completed != sts[0].Completed {
				settled = false
			}
		}
		if settled || e.now() >= deadline {
			sum.Statuses = sts
			sum.Converged = settled
			for _, st := range sts {
				sum.Hashes = append(sum.Hashes, st.Hash)
				sum.Converged = sum.Converged && st.Hash == sts[0].Hash
			}
			if settled {
				return nil
			}
			if err != nil {
				return fmt.Errorf("load: shard %d did not settle: %v", sum.Shard, err)
			}
			return fmt.Errorf("load: shard %d did not reach %d completed requests within the settle timeout", sum.Shard, expected)
		}
		e.sleep(20 * time.Millisecond)
	}
}

// CeilingStep records one rung of the ceiling search.
type CeilingStep struct {
	Offered   float64
	Achieved  float64
	P50       time.Duration
	P99       time.Duration
	Sustained bool
	// Diverged: the replicas settled on the rung's requests with different
	// hashes. A correctness defect, not a capacity signal: it is reported
	// and does not end the search.
	Diverged bool
}

// CeilingResult is the outcome of FindCeiling: the rate ladder walked,
// the highest offered rate the deployment sustained, and the routing
// imbalance at that rung (visibility into ring skew at the ceiling).
type CeilingResult struct {
	Steps     []CeilingStep
	Ceiling   float64
	Imbalance float64
}

// FindCeiling walks the offered rate geometrically (times growth per
// rung) from startRate for at most maxSteps rungs and stops at the first
// rung that is not sustained: p99 intent latency over o.SLO, achieved below
// 90% of offered, any request timed out or failed, or a shard whose
// replicas did not all reach the rung's completions in time. Every rung
// runs through the same invoker, whose clients keep counting, so no rung
// reuses a request identity.
func FindCeiling(o RunOptions, startRate, growth float64, maxSteps int) (*CeilingResult, error) {
	return findCeiling(o, startRate, growth, maxSteps, Run)
}

func findCeiling(o RunOptions, startRate, growth float64, maxSteps int,
	run func(RunOptions) (*RunResult, error)) (*CeilingResult, error) {
	if startRate <= 0 || growth <= 1 {
		return nil, fmt.Errorf("ceiling: need a positive start rate and a growth above 1 (got %v, %v)", startRate, growth)
	}
	res := &CeilingResult{}
	rate := startRate
	for step := 0; step < maxSteps; step++ {
		o.Rate = rate
		r, err := run(o)
		if r == nil {
			return res, err
		}
		st := CeilingStep{
			Offered:  r.Offered,
			Achieved: r.Achieved,
			P50:      r.Intent.Percentile(50),
			P99:      r.Intent.Percentile(99),
		}
		st.Sustained = err == nil && r.SLOMet && r.Achieved >= 0.9*r.Offered &&
			r.Timeouts == 0 && r.Errors+r.NoSequencer == 0
		st.Diverged = err == nil && !r.Converged
		res.Steps = append(res.Steps, st)
		if o.Logf != nil {
			o.Logf("ceiling: step %d offered %.0f achieved %.0f req/s p99=%v imbalance=%.2f sustained=%v",
				step, st.Offered, st.Achieved, st.P99, r.Imbalance, st.Sustained)
		}
		if !st.Sustained {
			break
		}
		res.Ceiling, res.Imbalance = st.Achieved, r.Imbalance
		rate *= growth
	}
	return res, nil
}
