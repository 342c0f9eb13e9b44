package harness

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/kvapi"
	"detmt/internal/server"
	"detmt/internal/shard"
	"detmt/internal/workload"
)

// The throughput experiments E15 (offered-rate grid and ceiling),
// E16 (sharded aggregate ceiling) and E17 (HTTP facade against the wire
// protocol) are three tables over the same call: boot a deployment of real
// detmt-server processes with spawnCluster, drive it with server.Run or
// server.FindCeiling through one Invoker. In-process clusters would share
// the Go runtime with the generator, which flatters closed-loop latency by
// several milliseconds per hop.
//
// None is part of All(): real processes, real sockets, real seconds.

// OpenLoopOptions sizes the throughput experiments. The windows are
// deliberately short — every run pays warmup+duration+drain of wall time
// on a real cluster.
type OpenLoopOptions struct {
	// Duration is each run's measured window.
	Duration time.Duration
	// Warmup precedes each measured window.
	Warmup time.Duration
	// Rates is E15's offered-rate grid: about 2 %, 20 %, 60 % and 120 % of
	// the single-group ceiling. A request is sequenced on arrival at all of
	// them, so what p50 still does across the grid is not the sequencer's
	// queue (the grid prints that wait beside it).
	Rates []float64
}

// DefaultOpenLoopOptions returns the experiment defaults.
func DefaultOpenLoopOptions() OpenLoopOptions {
	return OpenLoopOptions{
		Duration: 1500 * time.Millisecond,
		Warmup:   300 * time.Millisecond,
		Rates:    []float64{50, 500, 1500, 3000},
	}
}

// run fills in what every open-loop run of the experiments shares.
func (o OpenLoopOptions) run(inv server.Invoker, gen workload.Gen) server.RunOptions {
	return server.RunOptions{
		Invoker:  inv,
		Duration: o.Duration,
		Warmup:   o.Warmup,
		Batch:    true,
		SLO:      100 * time.Millisecond,
		Seed:     7,
		Gen:      gen,
		Timeout:  60 * time.Second,
	}
}

// openLoopWorkload is the light request body used by the throughput
// experiments: the point is the sequencer hot path, not the
// interpreter. It must stay expressible through detmt-server's
// -iterations/-mutexes flags — the servers run as real processes.
func openLoopWorkload() workload.Fig1Config {
	wl := workload.DefaultFig1()
	wl.Iterations = 1
	wl.Mutexes = 16
	return wl
}

// E17's KV workload: both legs draw from the same distribution.
const (
	facadeKeys = 1024
	facadePGet = 0.5
)

// serverBinary builds detmt-server, once per detmt-bench run.
var serverBinary = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "detmt-openloop-")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "detmt-server")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/detmt-server").CombinedOutput(); err != nil {
		return "", fmt.Errorf("building detmt-server (run from the repo root): %v\n%s", err, out)
	}
	return bin, nil
})

// clusterSpec describes one deployment of detmt-server processes.
type clusterSpec struct {
	members int      // processes: the replicas of every group
	shards  int      // > 0: each process hosts this many groups (-shards), shard k on its base port + k
	flags   []string // further detmt-server flags
}

// cluster is a booted deployment together with its dialed client side.
type cluster struct {
	*server.ShardClients
	procs []*child
}

type child struct {
	cmd    *exec.Cmd
	exited chan struct{}
}

func (c *cluster) stop() {
	if c.ShardClients != nil {
		c.ShardClients.Close()
	}
	for _, p := range c.procs {
		p.cmd.Process.Kill()
		<-p.exited
	}
}

// spawnCluster boots the deployment the way bench/README.md documents:
// followers first, member 1 (the view-0 sequencer) once they listen, every
// member with -detect-timeout 3s so a slow boot deposes nobody; it is
// ready when every member of every group reports view 0, sequencer 1,
// caught_up. Which member a follower hears first decides how early it
// answers for the rest of the run, so boot order is part of the
// measurement. Any boot failure stops the children started so far; a child
// that exits during boot lost the bind-after-close port race, and the boot
// is retried on fresh ports.
func spawnCluster(spec clusterSpec) (*cluster, error) {
	bin, err := serverBinary()
	if err != nil {
		return nil, err
	}
	var c *cluster
	for attempt := 0; attempt < 3; attempt++ {
		var raced bool
		if c, raced, err = bootCluster(bin, spec); !raced {
			break
		}
	}
	return c, err
}

func bootCluster(bin string, spec clusterSpec) (c *cluster, raced bool, err error) {
	// Base ports are picked by the kernel and released before the server
	// binds them (shard k binds base + k): a small race, which ends in a
	// child that exits during boot.
	bases := make([]string, spec.members)
	for i := range bases {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, false, err
		}
		bases[i] = ln.Addr().String()
		ln.Close()
	}
	c = &cluster{}
	defer func() {
		if err != nil {
			c.stop()
			c = nil
		}
	}()
	start := func(id int) error {
		var peers []string
		for p := range bases {
			if p+1 != id {
				peers = append(peers, fmt.Sprintf("%d=%s", p+1, bases[p]))
			}
		}
		wl := openLoopWorkload()
		args := []string{
			"-id", strconv.Itoa(id), "-listen", bases[id-1], "-peers", strings.Join(peers, ","), "-detect-timeout", "3s",
			"-scheduler", "MAT", "-iterations", strconv.Itoa(wl.Iterations), "-mutexes", strconv.Itoa(wl.Mutexes),
		}
		if spec.shards > 0 {
			args = append(args, "-shards", strconv.Itoa(spec.shards))
		}
		p := &child{cmd: exec.Command(bin, append(args, spec.flags...)...), exited: make(chan struct{})}
		if err := p.cmd.Start(); err != nil {
			return err
		}
		go func() { p.cmd.Wait(); close(p.exited) }()
		c.procs = append(c.procs, p)
		// Listening: the base port accepts connections (readiness below
		// covers every shard's).
		for deadline := time.Now().Add(10 * time.Second); ; {
			conn, err := net.DialTimeout("tcp", bases[id-1], 250*time.Millisecond)
			if err == nil {
				conn.Close()
				return nil
			}
			select {
			case <-p.exited:
				raced = true
				return fmt.Errorf("member %d exited during boot", id)
			case <-time.After(10 * time.Millisecond):
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("member %d does not listen on %s", id, bases[id-1])
			}
		}
	}
	for id := spec.members; id >= 1; id-- {
		if err = start(id); err != nil {
			return c, raced, err
		}
	}

	if spec.shards > 0 {
		var ring shard.RingConfig
		if ring, err = server.FetchRing(bases, 10*time.Second, nil, nil); err == nil {
			c.ShardClients, err = server.DialShards(ring, server.ShardClientOptions{})
		}
	} else {
		servers := map[ids.ReplicaID]string{}
		for i, a := range bases {
			servers[ids.ReplicaID(i+1)] = a
		}
		c.ShardClients, err = server.DialGroup(servers, server.ShardClientOptions{})
	}
	if err != nil {
		return c, false, err
	}
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		ready := true
		for k := 0; k < c.Shards() && ready; k++ {
			sts, err := c.Statuses(k)
			ready = err == nil
			for _, st := range sts {
				ready = ready && st.View == 0 && st.Sequencer == 1 && st.Recovery == "caught_up"
			}
		}
		if ready {
			return c, false, nil
		}
		if time.Now().After(deadline) {
			return c, false, fmt.Errorf("cluster not ready (view=0 sequencer=1 caught_up) after 20s")
		}
	}
}

func msf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ladderRungs bounds a ceiling ladder (x1.25 a rung: 170 times the start
// rate at the top). A ladder is meant to end on a rung that fails — only
// then is its ceiling the system's and not its own top — so the bound is
// set where no deployment on one box gets to (16 rungs were not enough:
// E17's direct leg, which starts at 500 req/s, sustained all of them); a
// ladder that gets there anyway says so.
const ladderRungs = 24

// ladder boots spec, walks the rate ladder from startRate through what front
// puts before the cluster (nil: its own wire clients) until a rung is not
// sustained, and prints the step table.
func ladder(b *strings.Builder, o OpenLoopOptions, spec clusterSpec, gen workload.Gen, startRate float64,
	front func(*cluster) (server.Invoker, func(), error)) (*server.CeilingResult, error) {
	c, err := spawnCluster(spec)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	var inv server.Invoker = c
	if front != nil {
		var closeFront func()
		if inv, closeFront, err = front(c); err != nil {
			return nil, err
		}
		defer closeFront()
	}
	res, err := server.FindCeiling(o.run(inv, gen), startRate, 1.25, ladderRungs)
	if res == nil {
		return nil, err
	}
	fmt.Fprintf(b, "%10s %12s %10s %10s %10s\n", "offered", "achieved", "p50-ms", "p99-ms", "sustained")
	for _, st := range res.Steps {
		note := ""
		if st.Diverged {
			note = "  (replica hashes DIVERGED)"
		}
		fmt.Fprintf(b, "%10.0f %12.0f %10.2f %10.2f %10v%s\n",
			st.Offered, st.Achieved, msf(st.P50), msf(st.P99), st.Sustained, note)
	}
	if n := len(res.Steps); n == ladderRungs && res.Steps[n-1].Sustained {
		fmt.Fprintf(b, "ladder exhausted: all %d rungs sustained, the ceiling below is the ladder's top\n", n)
	}
	return res, err
}

// OpenLoop is experiment E15: the sequencer throughput ceiling. It
// first measures the closed-loop baseline (clients wait for replies, so
// concurrency — not the sequencer — bounds the rate), then walks an
// offered-rate grid under open-loop, coordinated-omission-corrected
// load. The sustained-rate search is the companion 'ceiling' experiment.
func OpenLoop(o OpenLoopOptions) Result {
	var b strings.Builder
	metricsOut := map[string]float64{}
	gen := workload.Fig1Gen(openLoopWorkload(), false)
	// Every run gets a fresh cluster: residual backlog from a saturating
	// rate would otherwise bleed into the next cell's warmup and delay its
	// convergence check.
	run := func(ro server.RunOptions) (*server.RunResult, error) {
		c, err := spawnCluster(clusterSpec{members: 3})
		if err != nil {
			return nil, err
		}
		defer c.stop()
		ro.Invoker = c
		return server.Run(ro)
	}

	// Closed-loop baselines. The pure closed loop is ONE client with one
	// outstanding request: its rate is 1/round-trip, so it measures
	// service latency, never capacity — the self-throttling that hides
	// the ceiling. A handful of lock-step clients (detmt-load's default
	// 4) is reported alongside for context; it is still concurrency-
	// bound, just with a larger numerator.
	for _, cl := range []struct {
		clients, requests int
		key, label        string
	}{
		{1, 400, "closedloop_rps", "Closed-loop baseline (1 client, one outstanding request)"},
		{4, 250, "closedloop4_rps", "Closed-loop, 4 lock-step clients"},
	} {
		res, err := run(server.RunOptions{
			Clients: cl.clients, RequestsPerClient: cl.requests,
			Seed: uint64(cl.clients), Gen: gen, Timeout: 120 * time.Second,
		})
		if err != nil {
			fmt.Fprintf(&b, "%s FAILED: %v\n", cl.label, err)
			continue
		}
		fmt.Fprintf(&b, "%s: %.0f req/s, p50 %.2f ms\n", cl.label, res.Achieved, msf(res.Service.Percentile(50)))
		metricsOut[cl.key] = res.Achieved
	}

	// The grid: offered vs achieved vs intent latency, and the sequencer
	// stage as the sequencer's own status reports it (fresh cluster per
	// rate, so the counters are that rate's): mean and largest drain, and
	// how long the oldest forward of a drain waited in the queue.
	fmt.Fprintf(&b, "\n%10s %12s %10s %10s %8s %8s %8s %12s %12s\n",
		"offered", "achieved", "p50-ms", "p99-ms", "shed", "batch", "max", "qwait-p50-ms", "qwait-p99-ms")
	for _, rate := range o.Rates {
		ro := o.run(nil, gen)
		ro.Rate, ro.SLO = rate, 0
		res, err := run(ro)
		if res == nil {
			fmt.Fprintf(&b, "%10.0f FAILED: %v\n", rate, err)
			continue
		}
		q := res.Intent.Quantiles(50, 99)
		note := ""
		if err != nil {
			note = "  (did not settle)"
		}
		var sq gcs.SequencerStats
		for _, sh := range res.PerShard {
			for _, st := range sh.Statuses {
				if st.ID == st.Sequencer {
					sq = st.Sequencing
				}
			}
		}
		batch := float64(sq.Sequenced) / max(1, float64(sq.Drains))
		fmt.Fprintf(&b, "%10.0f %12.0f %10.2f %10.2f %8d %8.2f %8d %12.3f %12.3f%s\n", rate, res.Achieved, msf(q[0]), msf(q[1]), res.Shed,
			batch, sq.MaxBatch, sq.QueueWaitP50Ms, sq.QueueWaitP99Ms, note)
		metricsOut[fmt.Sprintf("rate_%.0f_achieved_rps", rate)] = res.Achieved
		metricsOut[fmt.Sprintf("rate_%.0f_p50_ms", rate)] = msf(q[0])
		metricsOut[fmt.Sprintf("rate_%.0f_p99_ms", rate)] = msf(q[1])
		metricsOut[fmt.Sprintf("rate_%.0f_mean_batch", rate)] = batch
		metricsOut[fmt.Sprintf("rate_%.0f_queue_wait_p50_ms", rate)] = sq.QueueWaitP50Ms
		if rate == o.Rates[0] {
			metricsOut["lowrate_p50_ms"] = msf(q[0])
		}
	}

	b.WriteString("\nThe closed-loop baseline is concurrency-bound: each client waits a\nfull round-trip per request. Open-loop arrivals pipeline through the\nsequencing window, so the ceiling is set by sequencer drain + wire\ncost (see the 'ceiling' experiment for the sustained-rate search).\n")
	return Result{
		ID:      "openloop",
		Title:   "E15: open-loop sequencer throughput (offered-rate grid, real detmt-server processes)",
		Text:    b.String(),
		Metrics: metricsOut,
	}
}

// Ceiling runs only the ceiling search — the regression probe the bench
// gate compares against the committed baseline.
func Ceiling(o OpenLoopOptions) Result {
	var b strings.Builder
	metricsOut := map[string]float64{}
	b.WriteString("Ceiling search (SLO p99 <= 100ms):\n")
	res, err := ladder(&b, o, clusterSpec{members: 3},
		workload.Fig1Gen(openLoopWorkload(), false), 1000, nil)
	if res == nil {
		fmt.Fprintf(&b, "FAILED: %v\n", err)
	} else {
		fmt.Fprintf(&b, "sustained ceiling: %.0f req/s\n", res.Ceiling)
		if res.Ceiling > 0 {
			metricsOut["ceiling_rps"] = res.Ceiling
		}
	}
	return Result{
		ID:      "ceiling",
		Title:   "Sequencer throughput ceiling (real detmt-server processes)",
		Text:    b.String(),
		Metrics: metricsOut,
	}
}

// Sharded is experiment E16: the sharded scale-out ladder. Each rung
// spawns one multi-tenant detmt-server process hosting N single-replica
// groups (N = 1, 2, 4) behind the consistent-hash ring, then walks the
// AGGREGATE offered rate from 1000 req/s per shard until the deployment
// stops sustaining it at the same p99 SLO as the single-group ceiling
// search. The headline metric, aggregate_ceiling_rps, is the largest
// rung's ceiling — the acceptance bar is >= 3x the committed single-group
// ceiling_rps.
//
// The rungs use ONE replica per shard (the cheap soak configuration);
// cross-replica ConsistencyHash identity per shard is therefore proven
// separately by the multi-member sharded e2e tests, not here.
func Sharded(o OpenLoopOptions) Result {
	var b strings.Builder
	metricsOut := map[string]float64{}
	b.WriteString("Aggregate ceiling vs shard count (one process, one replica per\nshard, SLO p99 <= 100ms):\n\n")
	var last float64
	for _, n := range []int{1, 2, 4} {
		fmt.Fprintf(&b, "-- %d shard(s) --\n", n)
		res, err := ladder(&b, o, clusterSpec{members: 1, shards: n, flags: []string{"-ring-seed", "42"}},
			workload.Fig1Gen(openLoopWorkload(), true), 1000*float64(n), nil)
		if res == nil {
			fmt.Fprintf(&b, "FAILED: %v\n", err)
			continue
		}
		fmt.Fprintf(&b, "sustained aggregate ceiling: %.0f req/s (imbalance %.3f)\n\n", res.Ceiling, res.Imbalance)
		if res.Ceiling > 0 {
			metricsOut[fmt.Sprintf("aggregate_ceiling_rps_%d", n)] = res.Ceiling
			metricsOut[fmt.Sprintf("ceiling_imbalance_%d", n)] = res.Imbalance
			last = res.Ceiling
		}
	}
	if last > 0 {
		metricsOut["aggregate_ceiling_rps"] = last
	}
	b.WriteString("Shards are independent sequencer groups: no cross-shard ordering,\nso the aggregate ceiling grows with the shard count until the box\nitself (cores, loopback) saturates. One replica per shard keeps the\nsoak cheap; per-shard cross-replica hash identity is covered by the\nmulti-member sharded e2e tests.\n")
	return Result{
		ID:      "sharded_ceiling",
		Title:   "E16: sharded aggregate throughput ceiling (multi-tenant detmt-server process)",
		Text:    b.String(),
		Metrics: metricsOut,
	}
}

// KVFacade is experiment E17: what does fronting the replicated KV
// object with the stateless HTTP gateway cost? Two rate-ceiling
// searches from 500 req/s against identical fresh 2-shard clusters
// (detmt-server -kv), drawing the same KV gets and tokenized puts:
//
//   - direct: the engine speaks the wire protocol straight to the shards.
//   - gateway: an in-process kvapi.Gateway serves real HTTP on a
//     loopback socket and the engine walks the same ladder through it.
//
// The headline metric is gateway_overhead_pct — the ceiling the facade
// gives up to HTTP framing, JSON bodies, and the extra hop. The
// acceptance bar is <= 30%.
func KVFacade(o OpenLoopOptions) Result {
	var b strings.Builder
	metricsOut := map[string]float64{}
	fmt.Fprintf(&b, "HTTP facade overhead, 2 shards, one replica per shard, KV object\n(%.0f%% reads over %d keys), SLO p99 <= 100ms:\n\n",
		facadePGet*100, facadeKeys)
	spec := clusterSpec{members: 1, shards: 2, flags: []string{"-kv", "-ring-seed", "42"}}
	gateway := func(c *cluster) (server.Invoker, func(), error) {
		gw, err := kvapi.New(kvapi.Options{Ring: c.Ring(), Clients: 32})
		if err != nil {
			return nil, nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			gw.Close()
			return nil, nil, err
		}
		hs := &http.Server{Handler: gw}
		go hs.Serve(ln)
		inv := kvapi.DialHTTP("http://"+ln.Addr().String(), 0)
		return inv, func() { inv.Close(); hs.Close(); gw.Close() }, nil
	}
	// Each leg runs twice and keeps the better ceiling: on a small box a
	// single ~100ms scheduling or GC stall inside one 1.5s window fails
	// that step's p99 SLO and truncates the whole search, and one stall
	// in four minutes is noise, not a ceiling.
	best := func(name, label string, front func(*cluster) (server.Invoker, func(), error)) float64 {
		var top float64
		for attempt := 0; attempt < 2; attempt++ {
			fmt.Fprintf(&b, "-- %s (%s) --\n", name, label)
			res, err := ladder(&b, o, spec, workload.KVGen(facadeKeys, facadePGet), 500, front)
			if res == nil {
				fmt.Fprintf(&b, "%s leg attempt %d FAILED: %v\n", name, attempt, err)
				continue
			}
			fmt.Fprintf(&b, "sustained %s ceiling: %.0f req/s\n\n", name, res.Ceiling)
			top = max(top, res.Ceiling)
		}
		return top
	}
	dc := best("direct", "wire protocol", nil)
	gc := best("gateway", "HTTP facade", gateway)
	if dc > 0 {
		metricsOut["direct_ceiling_rps"] = dc
	}
	if gc > 0 {
		metricsOut["gateway_ceiling_rps"] = gc
	}
	if dc > 0 && gc > 0 {
		overhead := (dc - gc) / dc * 100
		metricsOut["gateway_overhead_pct"] = overhead
		fmt.Fprintf(&b, "facade overhead: %.1f%% of the direct ceiling (bar: <= 30%%)\n", overhead)
	}
	b.WriteString("\nThe gateway is stateless: every request still routes through the\nsame ring and pays the same sequencing cost, so the gap is purely\nHTTP framing, JSON, and one extra loopback hop per request.\n")
	return Result{
		ID:      "kv_facade",
		Title:   "E17: HTTP/KV facade ceiling vs direct wire protocol",
		Text:    b.String(),
		Metrics: metricsOut,
	}
}
