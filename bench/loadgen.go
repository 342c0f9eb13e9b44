package main

// loadgen.go is the benchmark's own open-loop load generator. Arrivals
// follow a fixed-interval schedule that does not depend on replies, and
// every latency is timed from the request's scheduled instant (its
// intent), so a stall in the system is charged to every request that was
// due during the stall. Raw samples are kept in memory; percentiles are
// computed from them at the end.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	latencyLimit = 100 * time.Millisecond // a later reply misses the limit
	maxInFlight  = 4096                   // arrivals beyond it are shed, not queued
	drainLimit   = 5 * time.Second        // unanswered by then: a timeout
	stallLimit   = 10 * time.Millisecond  // a generator this late was itself frozen
)

// sample is one arrival. Times are offsets from the generator's start.
type sample struct {
	intent   time.Duration // scheduled instant
	submit0  time.Duration // generator got to it (intent + lag)
	submit1  time.Duration // the submitting call returned
	reply    time.Duration // first reply
	shed, ok bool
	done     atomic.Bool // set last by the waiter; guards the fields above
}

// loadPlan is one continuous schedule: an unmeasured lead-in at the
// workload's rate, then the measured window.
type loadPlan struct {
	rate   float64
	leadIn time.Duration
	window time.Duration
	// issue submits arrival i and returns the call that waits for its
	// reply. It runs on the pump goroutine, so it must not block on the
	// reply itself.
	issue func(i int) func() error
	// atTick runs beside the pump when the window opens, every second
	// after that, and when it closes; at is the offset from the
	// generator's start.
	atTick func(at time.Duration)
}

type loadResult struct {
	samples  []sample
	measured []*sample // intent inside the window, schedule order
}

// arrivals returns how many requests the lead-in and the whole plan
// schedule; arrival i is due at i/rate.
func (p loadPlan) arrivals() (lead, total int) {
	lead = int(math.Round(p.leadIn.Seconds() * p.rate))
	return lead, lead + int(math.Round(p.window.Seconds()*p.rate))
}

func runLoad(p loadPlan) *loadResult {
	lead, total := p.arrivals()
	res := &loadResult{samples: make([]sample, total)}
	var inFlight atomic.Int64
	var wg sync.WaitGroup

	start := time.Now()
	ticks := make(chan struct{})
	go func() {
		defer close(ticks)
		if p.atTick == nil {
			return
		}
		for at := p.leadIn; ; at += time.Second {
			if at > p.leadIn+p.window {
				at = p.leadIn + p.window
			}
			time.Sleep(time.Until(start.Add(at)))
			p.atTick(time.Since(start))
			if at == p.leadIn+p.window {
				return
			}
		}
	}()

	for i := range res.samples {
		s := &res.samples[i]
		s.intent = time.Duration(float64(i) / p.rate * float64(time.Second))
		if d := s.intent - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		if i >= lead {
			res.measured = append(res.measured, s)
		}
		if inFlight.Load() >= maxInFlight {
			s.shed = true
			s.done.Store(true)
			continue
		}
		inFlight.Add(1)
		wg.Add(1)
		s.submit0 = time.Since(start)
		wait := p.issue(i)
		s.submit1 = time.Since(start)
		go func() {
			defer wg.Done()
			err := wait()
			s.reply = time.Since(start)
			s.ok = err == nil
			s.done.Store(true)
			inFlight.Add(-1)
		}()
	}

	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(drainLimit):
	}
	<-ticks
	return res
}

// windowStats summarises the measured window.
type windowStats struct {
	attempted int
	failed    int // errors + sheds + timeouts
	within    int // replied within latencyLimit
	completed int // replied at all
	p50Ms     float64
	p99Ms     float64
	lagP99Ms  float64 // how late the generator ran
	submitUs  float64 // mean time inside the submitting call
}

func statsOf(measured []*sample) windowStats {
	var st windowStats
	lat := make([]float64, 0, len(measured))
	lag := make([]float64, 0, len(measured))
	var submit time.Duration
	for _, s := range measured {
		st.attempted++
		if !s.done.Load() || s.shed || !s.ok {
			st.failed++
			// A failed request misses any latency limit.
			lat = append(lat, math.Inf(1))
			continue
		}
		st.completed++
		l := s.reply - s.intent
		if l <= latencyLimit {
			st.within++
		}
		lat = append(lat, ms(l))
		lag = append(lag, ms(s.submit0-s.intent))
		submit += s.submit1 - s.submit0
	}
	st.p50Ms = percentile(lat, 50)
	st.p99Ms = percentile(lat, 99)
	st.lagP99Ms = percentile(lag, 99)
	if st.completed > 0 {
		st.submitUs = float64(submit) / float64(time.Microsecond) / float64(st.completed)
	}
	return st
}

// sliceStat summarises one second of a window.
type sliceStat struct {
	p50Ms, p99Ms float64
	within       int // replied within latencyLimit
	length       time.Duration
	stalled      bool // the generator itself ran more than stallLimit late in it
}

// slicesOf cuts a window's samples (schedule order, fixed interval) into
// equal slices of about one second and summarises each. A one-off freeze
// of a few hundred milliseconds — this guest has them about once a minute,
// and they stop the generator as well as the servers — is enough to set the
// p99 of a whole three-second window; cut into seconds it spoils one value
// among many, and the generator's own lag tells which.
func slicesOf(measured []*sample, window time.Duration) []sliceStat {
	k := max(1, int(window.Seconds()+0.5))
	out := make([]sliceStat, 0, k)
	for j := 0; j < k; j++ {
		part := measured[j*len(measured)/k : (j+1)*len(measured)/k]
		if len(part) == 0 {
			continue
		}
		st := statsOf(part)
		sl := sliceStat{p50Ms: st.p50Ms, p99Ms: st.p99Ms, within: st.within, length: window / time.Duration(k)}
		for _, s := range part {
			if !s.shed && s.submit0-s.intent > stallLimit {
				sl.stalled = true
			}
		}
		out = append(out, sl)
	}
	return out
}

// percentile is the nearest-rank percentile of vs (unsorted); an
// infinite result is reported as the drain limit.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	v := s[rank-1]
	if math.IsInf(v, 1) {
		return ms(drainLimit)
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeSpans writes the per-request span log of a traced run as JSONL:
// bench.request (intent -> reply) contains bench.lag (intent -> submit),
// replica.submit (the submitting call) and replica.wait (submit ->
// first reply). Spans of one request share its id.
func (r *loadResult) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	type span struct {
		ID      int     `json:"id"`
		Name    string  `json:"name"`
		Parent  string  `json:"parent,omitempty"`
		StartMs float64 `json:"start_ms"`
		EndMs   float64 `json:"end_ms"`
		OK      bool    `json:"ok"`
	}
	for i := range r.samples {
		s := &r.samples[i]
		if !s.done.Load() || s.shed {
			continue
		}
		for _, sp := range []span{
			{i, "bench.request", "", ms(s.intent), ms(s.reply), s.ok},
			{i, "bench.lag", "bench.request", ms(s.intent), ms(s.submit0), s.ok},
			{i, "replica.submit", "bench.request", ms(s.submit0), ms(s.submit1), s.ok},
			{i, "replica.wait", "bench.request", ms(s.submit1), ms(s.reply), s.ok},
		} {
			if err := enc.Encode(sp); err != nil {
				f.Close()
				return fmt.Errorf("write spans: %w", err)
			}
		}
	}
	return f.Close()
}
