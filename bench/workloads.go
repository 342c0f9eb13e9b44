package main

// workloads.go defines the three socket workloads and runs them: fresh
// boot, readiness, a fixed warm-up batch, an unmeasured lead-in at the
// workload's rate, the measured window, then the correctness checks.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

const (
	rounds       = 6                      // per run: fresh boots, each measuring a sixth of the window; or sweeps
	leadIn       = 500 * time.Millisecond // unmeasured, at the workload's rate, before every window
	warmRequests = 16                     // the wire workloads' warm-up batch
	lagLimitMs   = 2.0                    // a run whose generator ran later than this at p99 is invalid
	warmSeed     = 0x5eed                 // seed of the fixed warm-up batch
	poolClients  = 16                     // client identities multiplexed on one transport
	kvKeys       = 1024
	replayPuts   = 32 // tokenized PUTs replayed after the window
	readBacks    = 32 // fresh PUTs read back after the window
)

// socketWorkload is one of the TCP workloads.
type socketWorkload struct {
	name   string
	spec   clusterSpec
	rate   float64 // open loop, fixed interval, requests per second
	object objectSpec
}

// lightMutexes is the mutex set of the light request body. The repo's
// throughput experiments (E15) use 16. One way the seed commit's replicas
// end with different hashes (README.md, "Known defect") needs two requests
// of one sequencer tick to take the SAME mutex; the set is wide enough
// that they almost never do. The lock is held for no virtual time, so
// contention was negligible at 16 already and the latencies read the same.
const lightMutexes = 4096

func socketWorkloads() []socketWorkload {
	e15 := []string{"-scheduler", "MAT", "-iterations", "1", "-mutexes", strconv.Itoa(lightMutexes)}
	return []socketWorkload{
		{
			name:   "tcp3-fig1",
			spec:   clusterSpec{serverArgs: e15},
			rate:   1000,
			object: fig1Object(e15Body()),
		},
		{
			name: "tcp3-families",
			spec: clusterSpec{serverArgs: append(append([]string(nil), e15...),
				"-families", "4", "-conflict", "0.2", "-early-sched", "-lanes", "4")},
			rate:   150,
			object: familiesObject(4, 0.2),
		},
		{
			name:   "gw-kv",
			spec:   clusterSpec{serverArgs: []string{"-scheduler", "MAT", "-kv"}, shards: 2, gateway: true},
			rate:   400,
			object: kvObject(kvKeys),
		},
	}
}

// kvOp is one generated facade operation.
type kvOp struct {
	put   bool
	key   int
	value int64
	token string
}

func (o kvOp) request(base string) (*http.Request, error) {
	if !o.put {
		return http.NewRequest(http.MethodGet, fmt.Sprintf("%s/kv/%d", base, o.key), nil)
	}
	req, err := http.NewRequest(http.MethodPut,
		fmt.Sprintf("%s/kv/%d?token=%s", base, o.key, o.token),
		bytes.NewReader([]byte(fmt.Sprintf(`{"value":%d}`, o.value))))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, err
}

// kvReply is the facade's reply body.
type kvReply struct {
	Value *int64 `json:"value"`
	Prev  *int64 `json:"prev"`
}

// kvDo performs one operation; a GET of an absent key (404) is a
// correct answer, not a failure.
func kvDo(cl *http.Client, base string, op kvOp) (kvReply, error) {
	var rep kvReply
	req, err := op.request(base)
	if err != nil {
		return rep, err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return rep, err
	}
	if resp.StatusCode != http.StatusOK && !(resp.StatusCode == http.StatusNotFound && !op.put) {
		return rep, fmt.Errorf("%s key %d: HTTP %d: %s", req.Method, op.key, resp.StatusCode, body)
	}
	return rep, json.Unmarshal(body, &rep)
}

// driver is the generator's side of one booted cluster.
type driver struct {
	wl      socketWorkload
	c       *cluster
	wire    *wireClient  // direct workloads
	http    *http.Client // gw-kv
	issued  int          // requests that entered the order so far
	nextTok int
}

func newDriver(wl socketWorkload, c *cluster) (*driver, error) {
	d := &driver{wl: wl, c: c}
	if wl.spec.gateway {
		d.http = &http.Client{
			Timeout:   drainLimit,
			Transport: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64, IdleConnTimeout: time.Minute},
		}
		return d, nil
	}
	w, err := dialWire("bench-load", "", c.clientAddrs, poolClients)
	if err != nil {
		return nil, err
	}
	d.wire = w
	return d, nil
}

func (d *driver) close() {
	if d.wire != nil {
		d.wire.close()
	}
	if d.http != nil {
		d.http.CloseIdleConnections()
	}
}

func (d *driver) token(seed uint64) string {
	d.nextTok++
	return fmt.Sprintf("b%d-%d", seed, d.nextTok)
}

// warm sends the fixed warm-up batch, closed loop: 16 requests one after
// another on the wire, or one PUT per key (8 at a time) through the
// gateway so that no later GET finds its key absent. Its time is part
// of setup_s: set-up ends when the system is ready and warm. The batch
// is the same for every seed, so that setup_s measures the system and
// not what a seed happens to draw.
func (d *driver) warm(seed uint64) error {
	if d.http == nil {
		for i, ca := range d.wl.object.corpus(warmSeed, warmRequests) {
			if err := d.wire.submit(i, ca)(); err != nil {
				return fmt.Errorf("warm-up request %d: %w", i, err)
			}
			d.issued++
		}
		return nil
	}
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for k := w; k < kvKeys; k += 8 {
				op := kvOp{put: true, key: k, value: int64(k), token: fmt.Sprintf("warm%d-%d", seed, k)}
				if _, err := kvDo(d.http, d.c.gwURL, op); err != nil {
					errs <- fmt.Errorf("warm-up PUT %d: %w", k, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	var first error
	for w := 0; w < 8; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	d.issued += kvKeys
	return first
}

// setUp boots the cluster and warms it; the elapsed time is one setup_s
// sample.
func setUp(env *benchEnv, wl socketWorkload, seed uint64, relays bool) (*driver, float64, error) {
	t0 := time.Now()
	spec := wl.spec
	spec.relays = relays
	c, err := bootCluster(env, spec)
	if err != nil {
		return nil, 0, err
	}
	d, err := newDriver(wl, c)
	if err == nil {
		err = d.warm(seed)
	}
	if err != nil {
		if d != nil {
			d.close()
		}
		c.stop()
		return nil, 0, err
	}
	return d, time.Since(t0).Seconds(), nil
}

func (d *driver) tearDown() {
	d.close()
	d.c.stop()
}

// tickSample is what the benchmark reads from outside the program at
// one instant of a window.
type tickSample struct {
	at     time.Duration // offset from the generator's start
	procs  []procSample  // server-side children: members, then the gateway
	self   procSample    // the generator
	status []statusDoc   // traced runs only
	client linkCounts    // traced: generator->member (or ->gateway) relays
	peer   linkCounts    // traced: sequencer->follower relays
}

// serverCPUMs is the CPU all server-side children had used by the tick.
func (t tickSample) serverCPUMs() float64 {
	var sum float64
	for _, p := range t.procs {
		sum += p.cpuMs()
	}
	return sum
}

func (t tickSample) serverRSSMB() float64 {
	var sum float64
	for _, p := range t.procs {
		sum += p.rssKB
	}
	return sum / 1024
}

// windowOutcome is everything measured around one window.
type windowOutcome struct {
	load       *loadResult
	stats      windowStats
	ticks      []tickSample // window open, every second, window close
	metricsz   metricszDoc  // gw-kv: read by the check, after its own 96 requests
	getP50Ms   float64
	putP50Ms   float64
	replayable []kvReplay

	setupS      float64 // boot + warm-up of this round
	bootReadyMs float64
	checkErr    error // first violated correctness check, if any
}

func (o *windowOutcome) first() tickSample { return o.ticks[0] }
func (o *windowOutcome) last() tickSample  { return o.ticks[len(o.ticks)-1] }

// cpuPerReqMs returns, for every interval between two ticks, the CPU the
// server-side children used per request that was due in it and completed.
func (o *windowOutcome) cpuPerReqMs() []float64 {
	var out []float64
	m := o.load.measured
	for i := 0; i+1 < len(o.ticks); i++ {
		from, to := o.ticks[i].at, o.ticks[i+1].at
		n := 0
		for _, s := range m {
			if s.intent >= from && s.intent < to && s.done.Load() && s.ok {
				n++
			}
		}
		if n > 0 {
			out = append(out, (o.ticks[i+1].serverCPUMs()-o.ticks[i].serverCPUMs())/float64(n))
		}
	}
	return out
}

// kvReplay remembers one tokenized PUT of the window and the prev it
// returned.
type kvReplay struct {
	op   kvOp
	prev *int64
}

// measure runs the lead-in and the window against a warm cluster.
func (d *driver) measure(seed uint64, window time.Duration, traced bool) (*windowOutcome, error) {
	out := &windowOutcome{}
	pids := d.c.serverPIDs()

	var tickErr error
	atTick := func(at time.Duration) {
		t := tickSample{at: at}
		var err error
		if t.procs, err = sampleProcs(pids); err != nil {
			tickErr = err
		}
		if t.self, err = sampleProc(os.Getpid()); err != nil {
			tickErr = err
		}
		if traced {
			t.status, _ = d.c.statuses()
			t.client, t.peer = sumLinks(d.c.clientLinks), sumLinks(d.c.peerLinks)
		}
		out.ticks = append(out.ticks, t)
	}

	plan := loadPlan{rate: d.wl.rate, leadIn: leadIn, window: window, atTick: atTick}
	lead, total := plan.arrivals()
	var ops []kvOp       // gw-kv: the operations, by arrival
	collect := func() {} // gw-kv: remember PUTs to replay in the check
	if d.http == nil {
		corpus := d.wl.object.corpus(seed, total)
		plan.issue = func(i int) func() error { return d.wire.submit(i, corpus[i]) }
	} else {
		rng := rand.New(rand.NewSource(int64(seed)))
		ops = make([]kvOp, total)
		prevs := make([]*int64, total)
		for i := range ops {
			ops[i] = kvOp{put: rng.Intn(2) == 1, key: rng.Intn(kvKeys), value: rng.Int63n(1 << 30)}
			if ops[i].put {
				ops[i].token = d.token(seed)
			}
		}
		plan.issue = func(i int) func() error {
			return func() error {
				rep, err := kvDo(d.http, d.c.gwURL, ops[i])
				prevs[i] = rep.Prev
				return err
			}
		}
		collect = func() {
			for i := len(ops) - 1; i >= 0 && len(out.replayable) < replayPuts; i-- {
				if s := &out.load.samples[i]; ops[i].put && s.done.Load() && s.ok {
					out.replayable = append(out.replayable, kvReplay{ops[i], prevs[i]})
				}
			}
		}
	}

	out.load = runLoad(plan)
	collect()
	if tickErr != nil {
		return nil, fmt.Errorf("sampling /proc: %w", tickErr)
	}
	out.stats = statsOf(out.load.measured)
	for i := range out.load.samples {
		if s := &out.load.samples[i]; s.done.Load() && !s.shed && s.ok {
			d.issued++
		}
	}
	if ops != nil {
		var get, put []float64
		for i := range out.load.samples {
			s := &out.load.samples[i]
			if i < lead || !s.done.Load() || !s.ok {
				continue
			}
			if ops[i].put {
				put = append(put, ms(s.reply-s.intent))
			} else {
				get = append(get, ms(s.reply-s.intent))
			}
		}
		out.getP50Ms, out.putP50Ms = percentile(get, 50), percentile(put, 50)
	}
	return out, nil
}

// check runs the correctness checks after a window; the returned error
// describes the first violated one.
func (d *driver) check(seed uint64, out *windowOutcome) error {
	if d.http != nil {
		if err := d.checkKV(seed, out); err != nil {
			return err
		}
	}
	// Every request that entered the order must be completed by every
	// replica of its group, with identical hashes per group. Replies
	// come from the fastest replica, so the others may need a moment.
	deadline := time.Now().Add(drainLimit)
	for {
		sts, err := d.c.statuses()
		if err == nil {
			err = d.converged(sts, out.stats.failed == 0)
		}
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w%s", err, statusTable(sts))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (d *driver) converged(sts []statusDoc, exact bool) error {
	total := 0
	for g := 0; g+clusterSize <= len(sts); g += clusterSize {
		for _, st := range sts[g : g+clusterSize] {
			if st.View != 0 {
				return fmt.Errorf("view changed (member %d is in view %d)", st.ID, st.View)
			}
			if st.Completed != sts[g].Completed || st.Hash != sts[g].Hash {
				return fmt.Errorf("replicas of group %q disagree", st.Shard)
			}
		}
		total += sts[g].Completed
	}
	if total < d.issued || (exact && total != d.issued) {
		return fmt.Errorf("replicas completed %d requests, %d entered the order", total, d.issued)
	}
	return nil
}

// checkKV replays tokenized PUTs of the window (each must return its
// ORIGINAL prev: exactly-once), reads back fresh PUTs, and compares the
// gateway's own count of requests and errors with the generator's.
func (d *driver) checkKV(seed uint64, out *windowOutcome) error {
	same := func(a, b *int64) bool { return (a == nil) == (b == nil) && (a == nil || *a == *b) }
	for _, r := range out.replayable {
		rep, err := kvDo(d.http, d.c.gwURL, r.op)
		if err != nil {
			return fmt.Errorf("replayed PUT: %w", err)
		}
		d.issued++
		if !same(rep.Prev, r.prev) {
			return fmt.Errorf("replayed PUT of key %d token %s returned a different prev (applied twice?)", r.op.key, r.op.token)
		}
	}
	rng := rand.New(rand.NewSource(int64(seed) + 1))
	for i := 0; i < readBacks; i++ {
		put := kvOp{put: true, key: rng.Intn(kvKeys), value: rng.Int63n(1 << 30), token: d.token(seed)}
		if _, err := kvDo(d.http, d.c.gwURL, put); err != nil {
			return fmt.Errorf("read-back PUT: %w", err)
		}
		rep, err := kvDo(d.http, d.c.gwURL, kvOp{key: put.key})
		if err != nil {
			return fmt.Errorf("read-back GET: %w", err)
		}
		d.issued += 2
		if rep.Value == nil || *rep.Value != put.value {
			return fmt.Errorf("key %d read back %v, wrote %d", put.key, rep.Value, put.value)
		}
	}
	mz, err := d.c.metricsz()
	if err != nil {
		return fmt.Errorf("gateway /metricsz: %w", err)
	}
	out.metricsz = mz
	if mz.Errors != 0 || (out.stats.failed == 0 && int(mz.Requests) != d.issued) {
		return fmt.Errorf("gateway counted %d requests and %d errors, the generator sent %d", mz.Requests, mz.Errors, d.issued)
	}
	return nil
}

// runRound boots a fresh cluster, warms it, measures one window, runs
// the correctness checks and stops the cluster.
func runRound(env *benchEnv, wl socketWorkload, seed uint64, window time.Duration, traced bool) (*windowOutcome, error) {
	d, setupS, err := setUp(env, wl, seed, traced)
	if err != nil {
		return nil, err
	}
	defer d.tearDown()
	out, err := d.measure(seed, window, traced)
	if err != nil {
		return nil, err
	}
	out.setupS, out.bootReadyMs = setupS, ms(d.c.bootReady)
	out.checkErr = d.check(seed, out)
	return out, nil
}

// refRequests sizes the reference sweeps every socket run makes before
// its first boot (sim.go:simEndToEnd says why): one per round, 16 clients
// x refRequests requests per scheduler each.
const refRequests = 20

// socketEndToEnd fills the end-to-end metrics measured at the sockets
// from the rounds of a run. Three things outside the change under test
// decide how a stretch of a run reads: where the followers' paced clocks
// happened to anchor at that boot (a different draw every round), whether
// the shared host froze the whole guest during it, and how fast the host
// runs the guest that minute. The windows are therefore cut into seconds
// (loadgen.go:slicesOf); a second during which the generator itself was
// frozen is set aside, the instrument having failed and not the system; and
// p50 and p99 are the interquartile mean over the remaining seconds of all
// rounds. A change that moves most seconds moves the metric, a bad boot or
// a freeze that was not caught moves nothing. Goodput counts every request
// of those seconds, attempted and failed every request of the run, and
// memory and set-up are the median round's. (What a
// request costs the servers in CPU is a per-layer metric: on a shared host
// it moves by a fifth between two runs of one binary.)
func socketEndToEnd(m metricSet, outs []*windowOutcome, window time.Duration) (st windowStats, lagP99Ms float64, stalled, seconds int) {
	var pooled []*sample
	var all, steady []sliceStat
	var lag, rss, setups []float64
	for _, o := range outs {
		pooled = append(pooled, o.load.measured...)
		for _, sl := range slicesOf(o.load.measured, window/time.Duration(len(outs))) {
			all = append(all, sl)
			if !sl.stalled {
				steady = append(steady, sl)
			}
		}
		lag = append(lag, o.stats.lagP99Ms)
		rss = append(rss, o.last().serverRSSMB())
		setups = append(setups, o.setupS)
	}
	if len(steady) == 0 {
		steady = all
	}
	p50, p99 := make([]float64, len(steady)), make([]float64, len(steady))
	var within int
	var length time.Duration
	for i, sl := range steady {
		p50[i], p99[i] = sl.p50Ms, sl.p99Ms
		within += sl.within
		length += sl.length
	}
	st = statsOf(pooled)
	m.set("latency_p50_ms", midmean(p50))
	m.set("latency_p99_ms", midmean(p99))
	m.set("goodput_rps", float64(within)/length.Seconds())
	m.set("rss_mb", median(rss))
	m.set("setup_s", median(setups))
	return st, median(lag), len(all) - len(steady), len(all)
}

// runSocket runs one socket workload.
func runSocket(env *benchEnv, wl socketWorkload, seed uint64, seconds int, traced bool) (*report, error) {
	rep := newReport()
	window := time.Duration(seconds) * time.Second

	// The reference sweeps, while the machine is otherwise idle.
	refs, err := simSweeps(seed, refRequests, traced)
	if err != nil {
		rep.fail(err)
		return rep, nil
	}

	if !traced {
		// A follower anchors its paced clock on the first horizon it sees,
		// so how early it answers is drawn anew at every boot: the window
		// is split over several fresh boots so that one draw does not
		// decide the run.
		var outs []*windowOutcome
		for r := 0; r < rounds; r++ {
			out, err := runRound(env, wl, roundSeed(seed, r), window/rounds, false)
			if err != nil {
				return nil, err
			}
			if out.checkErr != nil {
				rep.fail(out.checkErr)
			}
			fmt.Fprintf(os.Stderr, "bench: %s round %d: p50 %.3f ms, p99 %.3f ms, lag p99 %.3f ms, set-up %.3f s\n",
				wl.name, r, out.stats.p50Ms, out.stats.p99Ms, out.stats.lagP99Ms, out.setupS)
			outs = append(outs, out)
		}
		simEndToEnd(rep.endToEnd, refs)
		st, lag, stalled, seconds := socketEndToEnd(rep.endToEnd, outs, window)
		rep.attempted, rep.failed = st.attempted, st.failed
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d seconds set aside, the generator itself was frozen for more than %v in them\n",
			wl.name, stalled, seconds, stallLimit)
		if lag > lagLimitMs {
			rep.note("INVALID RUN: the generator ran %.2f ms late at p99 in its median round (limit %v ms)", lag, lagLimitMs)
		}
		if 2*stalled > seconds {
			rep.note("INVALID RUN: the generator was frozen in %d of %d seconds", stalled, seconds)
		}
		return rep, nil
	}

	// Traced: half the window on a plain cluster, half on one with
	// relays, spans and 1 Hz sampling; their difference is the tracing
	// overhead. End-to-end numbers never come from here.
	plain, err := runRound(env, wl, roundSeed(seed, 0), window/2, false)
	if err != nil {
		return nil, err
	}
	out, err := runRound(env, wl, roundSeed(seed, 1), window/2, true)
	if err != nil {
		return nil, err
	}
	for _, o := range []*windowOutcome{plain, out} {
		if o.checkErr != nil {
			rep.fail(o.checkErr)
		}
	}
	rep.attempted, rep.failed = out.stats.attempted, out.stats.failed
	spans := filepath.Join(env.runDir, "spans.jsonl")
	if err := out.load.writeSpans(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: span log written to %s\n", spans)

	l := rep.perLayer
	refs[len(refs)-1].layerMetrics(l)
	layerMetrics(l, wl, out, plain)
	if err := stageMetrics(l, wl.object, seed); err != nil {
		return nil, err
	}
	l.set("bench.build_s", env.buildS)
	return rep, nil
}

// roundSeed derives the seed of a run's r-th round.
func roundSeed(seed uint64, r int) uint64 { return seed*1000003 + uint64(r) }

// layerMetrics fills the per-layer metrics measured around a traced
// window.
func layerMetrics(l metricSet, wl socketWorkload, out, plain *windowOutcome) {
	st := out.stats
	n := float64(max(st.completed, 1))
	a, b := out.first(), out.last()
	cpu := func(i int) float64 { return b.procs[i].cpuMs() - a.procs[i].cpuMs() }

	// All server-side children: the median over the window's one-second
	// intervals, so that one noisy second on a shared host moves nothing.
	l.set("server.cpu_ms_per_req", median(out.cpuPerReqMs()))
	l.set("server.sequencer_cpu_ms_per_req", cpu(0)/n)
	l.set("server.follower_cpu_ms_per_req", (cpu(1)+cpu(2))/2/n)
	sys, user := b.procs[0].sysMs-a.procs[0].sysMs, b.procs[0].userMs-a.procs[0].userMs
	if sys+user > 0 {
		l.set("server.sequencer_sys_share", sys/(sys+user))
	}
	l.set("server.rss_growth_kb_per_kreq", (b.serverRSSMB()-a.serverRSSMB())*1024/(n/1000))
	l.set("server.boot_ready_ms", out.bootReadyMs)

	// Per group and tick: the followers' paced clocks against the
	// sequencer's, read together.
	var leads []float64
	for _, t := range out.ticks {
		for g := 0; g+clusterSize <= len(t.status); g += clusterSize {
			for _, f := range t.status[g+1 : g+clusterSize] {
				leads = append(leads, f.NowVirtMs-t.status[g].NowVirtMs)
			}
		}
	}
	l.set("vclock.follower_lead_ms", median(leads))

	// Counters of the status document, summed over members; class
	// counters are identical on every replica, so member 1's are read.
	type counters struct{ performed, retries, esc, stalls, par, ser uint64 }
	count := func(t tickSample) (c counters) {
		for _, s := range t.status {
			c.performed += s.Nested.Performed
			c.retries += s.Nested.Retries
			if s.Classes != nil && s.ID == 1 {
				c.esc += s.Classes.Escalations
				c.stalls += s.Classes.MergeStalls
				c.par += s.Classes.ParallelCommits
				c.ser += s.Classes.SerialCommits
			}
		}
		return c
	}
	ca, cb := count(a), count(b)
	var views uint64
	var nestedP99 float64
	for _, s := range b.status {
		views = max(views, s.View)
		nestedP99 = max(nestedP99, s.Nested.LatencyP99Ms)
	}
	l.set("gcs.view_changes", float64(views))
	l.set("replica.nested_performed_per_req", float64(cb.performed-ca.performed)/n)
	l.set("replica.nested_retries", float64(cb.retries-ca.retries))
	l.set("replica.nested_p99_ms", nestedP99)
	l.set("replica.submit_us", st.submitUs)
	if commits := float64(cb.par - ca.par + cb.ser - ca.ser); commits > 0 {
		l.set("core.parallel_commit_ratio", float64(cb.par-ca.par)/commits)
		l.set("core.merge_stalls_per_req", float64(cb.stalls-ca.stalls)/commits)
		l.set("core.escalations_per_req", float64(cb.esc-ca.esc)/commits)
	}

	client, peer := b.client.minus(a.client), b.peer.minus(a.peer)
	if !wl.spec.gateway {
		l.set("wire.client_bytes_per_req", float64(client.fwdBytes+client.revBytes)/n)
		l.set("wire.peer_bytes_per_req", float64(peer.fwdBytes+peer.revBytes)/n)
		l.set("wire.peer_chunks_per_req", float64(peer.fwdChunks)/n)
	} else {
		mz := out.metricsz
		l.set("kvapi.http_bytes_per_req", float64(client.fwdBytes+client.revBytes)/n)
		l.set("kvapi.gateway_p50_ms", mz.LatencyMs["p50"])
		l.set("kvapi.gateway_p99_ms", mz.LatencyMs["p99"])
		l.set("kvapi.http_hop_p50_ms", st.p50Ms-mz.LatencyMs["p50"])
		l.set("kvapi.get_p50_ms", out.getP50Ms)
		l.set("kvapi.put_p50_ms", out.putP50Ms)
		l.set("kvapi.gateway_cpu_ms_per_req", cpu(len(a.procs)-1)/n)
		l.set("kvapi.retries", float64(mz.Retries))
		l.set("shard.imbalance", mz.Imbalance)
	}

	l.set("bench.schedule_lag_p99_ms", st.lagP99Ms)
	l.set("bench.generator_cpu_ms_per_req", (b.self.cpuMs()-a.self.cpuMs())/n)
	if plain.stats.p50Ms > 0 {
		l.set("bench.trace_overhead_pct", 100*(st.p50Ms-plain.stats.p50Ms)/plain.stats.p50Ms)
	}
	l.set("bench.failed_share", float64(st.failed)/float64(max(st.attempted, 1)))
	l.set("bench.samples", float64(st.attempted))
}
