// Command detmt-load is the load generator for a running detmt-server
// cluster: the paper's Fig. 1 measurement protocol over real sockets. N
// closed-loop clients issue requests, wait for the first replica reply
// and report the client-perceived latency distribution; with -rate the
// arrivals follow an open-loop schedule instead. -shards routes every
// request through the cluster's consistent-hash ring, -http drives a
// detmt-gateway facade, -kv draws KV gets and puts instead of Fig. 1. It
// exits non-zero if the replicas' schedule consistency hashes diverge.
//
// Usage:
//
//	detmt-load -servers 1=127.0.0.1:7101,2=127.0.0.1:7102,3=127.0.0.1:7103 \
//	    -clients 4 -requests 8 -seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"detmt/internal/chaos"
	"detmt/internal/ids"
	"detmt/internal/kvapi"
	"detmt/internal/metrics"
	"detmt/internal/server"
	"detmt/internal/workload"
)

func main() {
	servers := flag.String("servers", "", "cluster members as id=addr,id=addr,... (all of them)")
	clients := flag.Int("clients", 4, "number of concurrent closed-loop clients; with -rate, the size of the submit pool")
	requests := flag.Int("requests", 8, "requests per client")
	seed := flag.Uint64("seed", 1, "client-side decision seed")
	pipelined := flag.Bool("pipelined", false, "submit each client's requests as one atomic batch")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall run timeout")
	rate := flag.Float64("rate", 0,
		"open-loop mode: offered arrival rate in req/s decoupled from responses (0: closed loop)")
	duration := flag.Duration("duration", 5*time.Second, "open loop: measured window")
	warmup := flag.Duration("warmup", time.Second, "open loop: warmup before the measured window (completions discarded)")
	poisson := flag.Bool("poisson", false, "open loop: Poisson (exponential) inter-arrival times instead of fixed")
	slo := flag.Duration("slo", 0, "open loop: p99 intent-latency budget for the SLO verdict (0: none)")
	batchSubmit := flag.Bool("batch-submit", false, "open loop: coalesce due arrivals into one atomic wire frame per pump wakeup")
	maxInFlight := flag.Int("max-inflight", 0, "open loop: outstanding-request cap; arrivals beyond it are shed (0: 4096)")
	iterations := flag.Int("iterations", 10, "Fig. 1 loop iterations per request (must match the servers)")
	mutexes := flag.Int("mutexes", 100, "Fig. 1 mutex set size (must match the servers)")
	families := flag.Int("families", 0,
		"drive the family-partitioned workload with this many families (0: Fig. 1; must match the servers' -families)")
	conflict := flag.Float64("conflict", 0, "family workload: cross-family request probability (must match the servers)")
	hotSkew := flag.Float64("hot-skew", 0, "family workload: hot-key skew (must match the servers)")
	clientBase := flag.Int("client-base", 0,
		"client id offset (ids are base+1..base+clients); rerunning against the SAME cluster needs a disjoint range")
	shardsOn := flag.Bool("shards", false,
		"sharded mode: fetch the ring from -servers (any tenant port of each member), route every request by key, and report per-shard counts and the imbalance ratio")
	httpURL := flag.String("http", "",
		"drive a detmt-gateway facade at this base URL (e.g. http://127.0.0.1:8080) instead of the TCP protocol; implies -kv")
	kvOn := flag.Bool("kv", false,
		"sharded mode: drive the replicated KV object (servers started with -kv) instead of Fig. 1")
	keys := flag.Int("keys", 1024, "KV key-space size (-http and -kv modes)")
	pGet := flag.Float64("pget", 0.5, "KV read fraction (-http and -kv modes)")
	jsonOut := flag.Bool("json", false, "emit the result as JSON instead of text")
	verbose := flag.Bool("v", false, "log transport diagnostics")
	chaosOn := flag.Bool("chaos", false, "run a seeded fault-injection plan against this generator's own connections")
	chaosSeed := flag.Uint64("chaos-seed", 1, "chaos plan seed (reproducible fault schedule)")
	flag.Parse()

	usage := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "detmt-load: "+format+"\n", args...)
		os.Exit(2)
	}
	fatal := func(err error) {
		fmt.Fprintf(os.Stderr, "detmt-load: %v\n", err)
		os.Exit(1)
	}
	var logf func(string, ...interface{})
	if *verbose {
		logf = log.Printf
	}

	// What to send.
	wl := workload.DefaultFig1()
	wl.Iterations, wl.Mutexes = *iterations, *mutexes
	gen := workload.Fig1Gen(wl, *shardsOn)
	switch {
	case *kvOn || *httpURL != "":
		if *httpURL == "" && !*shardsOn {
			usage("-kv requires -shards (or use -http against a gateway)")
		}
		gen = workload.KVGen(*keys, *pGet)
	case *families > 0:
		if *shardsOn {
			usage("-families is not supported in sharded mode")
		}
		fam := workload.DefaultFamilies()
		fam.Families, fam.PGlobal, fam.HotSkew = *families, *conflict, *hotSkew
		gen = workload.FamilyGen(fam)
	}

	// Whom to send it through.
	var inv server.Invoker
	var inj *chaos.Injector
	if *httpURL != "" {
		h := kvapi.DialHTTP(*httpURL, 0)
		defer h.Close()
		inv = h
	} else {
		serverMap, err := ids.ParseReplicaAddrs(*servers)
		if err == nil && len(serverMap) == 0 {
			err = fmt.Errorf("empty server list")
		}
		if err != nil {
			usage("bad -servers: %v", err)
		}
		addrs := make([]string, 0, len(serverMap))
		for _, a := range serverMap {
			addrs = append(addrs, a)
		}
		d := server.ShardClientOptions{Clients: *clients, ClientBase: *clientBase, Logf: logf}
		if *chaosOn {
			inj = chaos.New()
			d.Dial = inj.Dial(nil)
			stop := make(chan struct{})
			defer close(stop)
			go inj.Run(chaos.Plan{
				Seed: *chaosSeed, Step: 100 * time.Millisecond, Addrs: addrs,
				PSever: 0.1, PPartition: 0.05, PartitionFor: 500 * time.Millisecond,
				PDelay: 0.2, DelayBy: 5 * time.Millisecond,
			}, stop)
		}
		var sc *server.ShardClients
		if *shardsOn {
			ring, err := server.FetchRing(addrs, 10*time.Second, d.Dial, logf)
			if err != nil {
				fatal(err)
			}
			ringHash, _ := ring.Hash()
			log.Printf("detmt-load: ring %016x with %d shard(s), verified across %d member(s)",
				ringHash, len(ring.Groups), len(addrs))
			sc, err = server.DialShards(ring, d)
			if err != nil {
				fatal(err)
			}
		} else if sc, err = server.DialGroup(serverMap, d); err != nil {
			fatal(err)
		}
		defer sc.Close()
		inv = sc
	}

	o := server.RunOptions{
		Invoker:           inv,
		Clients:           *clients,
		RequestsPerClient: *requests,
		Rate:              *rate,
		Duration:          *duration,
		Warmup:            *warmup,
		Poisson:           *poisson,
		MaxInFlight:       *maxInFlight,
		Batch:             *pipelined || *batchSubmit,
		SLO:               *slo,
		Seed:              *seed,
		Gen:               gen,
		Timeout:           *timeout,
		Logf:              logf,
	}
	res, err := server.Run(o)
	if inj != nil {
		sev, blocked := inj.Stats()
		log.Printf("detmt-load: chaos totals: severed=%d dials-blocked=%d", sev, blocked)
	}
	if res == nil {
		fatal(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if eerr := enc.Encode(summarize(res)); eerr != nil {
			fatal(eerr)
		}
	} else {
		printText(res, o)
	}
	// A missed SLO alone does not fail the run — the ceiling search treads
	// over the SLO on purpose; divergence and a run error do. Behind a
	// facade there are no replicas to compare, so failed requests do.
	switch {
	case err != nil:
		fatal(err)
	case !res.Converged:
		fatal(fmt.Errorf("DIVERGED — replica consistency hashes differ"))
	case inv.Shards() == 0 && res.Errors > 0:
		os.Exit(1)
	}
}

// summary is the -json document. latency_ms is send-to-reply (what a
// closed-loop client perceives), intent_ms is measured from the scheduled
// arrival (coordinated-omission corrected; it differs in the open loop).
type summary struct {
	OfferedRPS  float64            `json:"offered_rps"`
	AchievedRPS float64            `json:"achieved_rps"`
	Sent        int                `json:"sent"`
	Measured    int                `json:"measured"`
	Shed        int                `json:"shed"`
	Timeouts    int                `json:"timeouts"`
	NoSequencer int                `json:"no_sequencer"`
	Errors      int                `json:"errors"`
	ElapsedMs   float64            `json:"elapsed_ms"`
	LatencyMs   map[string]float64 `json:"latency_ms"`
	IntentMs    map[string]float64 `json:"intent_ms"`
	SLOMet      bool               `json:"slo_met"`
	Imbalance   float64            `json:"imbalance"`
	Converged   bool               `json:"converged"`
	// PerShard has one entry per replica group: one for an unsharded
	// cluster, none behind a facade.
	PerShard []shardLine `json:"per_shard"`
}

type shardLine struct {
	Shard       int             `json:"shard"`
	Routed      uint64          `json:"routed"`
	AchievedRPS float64         `json:"achieved_rps"`
	Converged   bool            `json:"converged"`
	Hashes      []uint64        `json:"hashes"`
	Statuses    []server.Status `json:"statuses"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func quantilesMs(h *metrics.Histogram) map[string]float64 {
	q := h.Quantiles(50, 95, 99, 99.9)
	return map[string]float64{
		"mean": ms(h.Mean()), "p50": ms(q[0]), "p95": ms(q[1]), "p99": ms(q[2]), "p999": ms(q[3]), "max": ms(h.Max()),
	}
}

func summarize(res *server.RunResult) summary {
	s := summary{
		OfferedRPS: res.Offered, AchievedRPS: res.Achieved,
		Sent: res.Sent, Measured: res.Measured, Shed: res.Shed, Timeouts: res.Timeouts,
		NoSequencer: res.NoSequencer, Errors: res.Errors, ElapsedMs: ms(res.Elapsed),
		LatencyMs: quantilesMs(res.Service), IntentMs: quantilesMs(res.Intent),
		SLOMet: res.SLOMet, Imbalance: res.Imbalance, Converged: res.Converged,
	}
	for _, p := range res.PerShard {
		s.PerShard = append(s.PerShard, shardLine{p.Shard, p.Routed, p.Achieved, p.Converged, p.Hashes, p.Statuses})
	}
	return s
}

func printText(res *server.RunResult, o server.RunOptions) {
	lq := res.Service.Quantiles(50, 95, 99)
	fmt.Printf("requests  %d sent, %d answered in %s wall\n", res.Sent, res.Measured, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("errors    shed %d, timeouts %d, no-sequencer %d, other %d\n",
		res.Shed, res.Timeouts, res.NoSequencer, res.Errors)
	if o.Rate > 0 {
		iq := res.Intent.Quantiles(50, 99, 99.9)
		fmt.Printf("offered   %.0f req/s  achieved %.0f req/s\n", res.Offered, res.Achieved)
		fmt.Printf("intent    p50 %s ms  p99 %s ms  p99.9 %s ms  max %s ms  (coordinated-omission corrected)\n",
			metrics.Ms(iq[0]), metrics.Ms(iq[1]), metrics.Ms(iq[2]), metrics.Ms(res.Intent.Max()))
	}
	fmt.Printf("latency   mean %s ms  p50 %s ms  p95 %s ms  p99 %s ms  max %s ms\n",
		metrics.Ms(res.Service.Mean()), metrics.Ms(lq[0]), metrics.Ms(lq[1]), metrics.Ms(lq[2]), metrics.Ms(res.Service.Max()))
	if o.SLO > 0 {
		verdict := "MET"
		if !res.SLOMet {
			verdict = "MISSED"
		}
		fmt.Printf("slo       p99 budget %v: %s\n", o.SLO, verdict)
	}
	for _, p := range res.PerShard {
		fmt.Printf("shard %d   routed %d  achieved %.0f req/s  converged=%v\n", p.Shard, p.Routed, p.Achieved, p.Converged)
		for _, st := range p.Statuses {
			fmt.Printf("  replica %v  scheduler=%s completed=%d state=%d hash=%016x\n",
				st.ID, st.Scheduler, st.Completed, st.State, st.Hash)
		}
	}
	if len(res.PerShard) > 1 {
		fmt.Printf("imbalance %.3f (max/mean routed per shard; 1.000 = perfectly even)\n", res.Imbalance)
	}
}
