// Command detmt-server hosts one detmt replica over real TCP — the
// deployment mode that takes the system out of the simulator. Start one
// process per member with the boot membership; the lowest replica id
// starts as the sequencer and runs the stamped sequencing loop that
// keeps every member's virtual schedule identical. If the
// sequencer dies, the survivors elect the lowest live id into the next
// sequencing view; a killed replica — sequencer included — rejoins with
// -recover. The membership itself can change at runtime: -join grows a
// live cluster by one member (catch up as a learner, flip to voter at
// an agreed slot), and `detmt-chaos -member "remove <id>"` (or
// add/replace) reconfigures it from outside.
//
// Usage (3-replica loopback cluster):
//
//	detmt-server -id 1 -listen 127.0.0.1:7101 -peers 2=127.0.0.1:7102,3=127.0.0.1:7103 &
//	detmt-server -id 2 -listen 127.0.0.1:7102 -peers 1=127.0.0.1:7101,3=127.0.0.1:7103 &
//	detmt-server -id 3 -listen 127.0.0.1:7103 -peers 1=127.0.0.1:7101,2=127.0.0.1:7102 &
//	detmt-load -servers 1=127.0.0.1:7101,2=127.0.0.1:7102,3=127.0.0.1:7103 -clients 4 -requests 8
//
// Sharded mode (-shards N) hosts one tenant replica per shard in this
// process: -listen becomes the BASE address (shard k listens at base
// port + k), every member derives the same consistent-hash ring from
// the base addresses, and -xshard additionally routes nested calls into
// the next shard through per-shard gateways (hosted by the lowest
// member at base port + N + k). A single process is a whole sharded
// cluster:
//
//	detmt-server -shards 4 -xshard -listen 127.0.0.1:7200 &
//	detmt-load -shards -servers 1=127.0.0.1:7200 -clients 4 -requests 8
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"detmt/internal/chaos"
	"detmt/internal/ids"
	"detmt/internal/member"
	"detmt/internal/replica"
	"detmt/internal/server"
	"detmt/internal/workload"
)

// cli is what the command line configures: Options for the flags that map
// one-to-one onto a field, plus what main has to interpret first.
type cli struct {
	opts                   server.Options
	id, families, shards   int
	peers, join, pprofAddr string
	conflict, hotSkew      float64
	ringSeed               uint64
	kv, xshard, chaos, v   bool
}

// flags registers every detmt-server flag on fs. The rule for what is a
// flag: a test, script, README/DESIGN/EXPERIMENTS walkthrough, harness
// experiment or bench/ passes it (flags_test.go audits both directions);
// -tick and -budget are the two link-dependent sequencing parameters
// everything else on the sequencing path is derived from.
func flags(fs *flag.FlagSet) *cli {
	c := &cli{opts: server.Options{Workload: workload.DefaultFig1()}}
	o := &c.opts
	fs.IntVar(&c.id, "id", 1, "this replica's id (must appear in the membership)")
	fs.StringVar(&o.Listen, "listen", "127.0.0.1:7101", "TCP address to accept peer and client connections on")
	fs.StringVar(&c.peers, "peers", "", "other members as id=addr,id=addr,... (static membership)")
	fs.StringVar((*string)(&o.Scheduler), "scheduler", "MAT", "scheduler kind: SEQ, SAT, LSA, PDS, MAT, MAT+LLA, or PMAT")
	fs.DurationVar(&o.NestedLatency, "nested", 12*time.Millisecond, "virtual duration of the nested external call")
	fs.StringVar(&o.Backend, "backend", "", "address of a detmt-backend process serving nested invocations (empty: in-process echo)")
	fs.DurationVar(&o.NestedTimeout, "nested-timeout", 0, "per-attempt deadline against the backend (0: 2s)")
	fs.IntVar(&o.BreakerThreshold, "breaker-threshold", 0, "consecutive backend failures that trip the circuit breaker (0: 5, negative: never)")
	fs.DurationVar(&o.BreakerCooldown, "breaker-cooldown", 0, "open-breaker cooldown before probing the backend again (0: 2s)")
	fs.BoolVar(&o.Workload.CatchNested, "catch-nested", false, "workload catches failed nested calls (iserr) instead of aborting the request")
	fs.DurationVar(&o.Tick, "tick", 2*time.Millisecond,
		"idle heartbeat base interval (virtual = wall): a request is sequenced when it arrives; with none arriving the sequencer multicasts a heartbeat every tick, stretching to 4*tick")
	fs.DurationVar(&o.Budget, "budget", 5*time.Millisecond, "delivery-deadline budget per sequenced message")
	fs.IntVar(&o.CheckpointEvery, "checkpoint-every", 0, "take a local deterministic checkpoint at the first quiescent point after every N completed requests (0: never)")
	fs.IntVar(&o.Workload.Iterations, "iterations", 10, "Fig. 1 loop iterations per request")
	fs.IntVar(&o.Workload.Mutexes, "mutexes", 100, "Fig. 1 mutex set size")
	fs.BoolVar(&o.EarlySched, "early-sched", false,
		"conflict-class early scheduling: sequencer stamps conflict classes, replica runs class-parallel lanes (MAT, MAT+LLA or PDS)")
	fs.IntVar(&o.Lanes, "lanes", 4, "early-scheduling classifier lane count")
	fs.IntVar(&c.families, "families", 0,
		"host the family-partitioned low-conflict workload with this many disjoint families instead of Fig. 1 (0: Fig. 1; all members and detmt-load must agree)")
	fs.BoolVar(&c.kv, "kv", false,
		"host the replicated key-value object instead of Fig. 1 (serve it with detmt-gateway; excludes -families and -xshard)")
	fs.Float64Var(&c.conflict, "conflict", 0,
		"family workload: probability a request crosses all families (escalates to the global class)")
	fs.Float64Var(&c.hotSkew, "hot-skew", 0,
		"family workload: hot-key skew towards each family's first monitor (0: uniform)")
	fs.IntVar(&o.TraceRetention, "trace-retention", 0,
		"max trace events kept in memory (0: default bound, negative: unlimited); hashes stay exact over full history")
	fs.StringVar(&o.DataDir, "data", "", "directory for checkpoints and the restart-epoch counter (empty: in-memory only)")
	fs.BoolVar(&o.Recover, "recover", false, "rejoin the running cluster via checkpoint + tail transfer (any role, including a deposed sequencer)")
	fs.StringVar(&c.join, "join", "",
		"join a LIVE cluster as a NEW member: fetch the membership from this address, start as a catch-up learner, and propose our own AddReplica through the total order (excludes -peers and -shards)")
	fs.DurationVar(&o.DetectTimeout, "detect-timeout", 0,
		"sequencer-silence window of the failure detector (0: default 50ms); raise on flaky links so short partitions never depose a live sequencer")
	fs.IntVar(&c.shards, "shards", 0,
		"host one tenant replica per shard in this process (-listen is the BASE address: shard k listens at base port + k; 0: single-group mode)")
	fs.BoolVar(&c.xshard, "xshard", false,
		"route nested calls into the NEXT shard through per-shard gateways on the lowest member (requires -shards; excludes -backend)")
	fs.Uint64Var(&c.ringSeed, "ring-seed", 0, "consistent-hash ring seed (must agree across members)")
	fs.BoolVar(&c.chaos, "chaos", false, "expose the chaos fault-injection control channel (see detmt-chaos)")
	fs.StringVar(&c.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty: off)")
	fs.BoolVar(&c.v, "v", false, "log transport diagnostics")
	return c
}

func main() {
	c := flags(flag.CommandLine)
	flag.Parse() // an unregistered (or retired) flag is a usage error: exit 2
	opts := c.opts

	if c.pprofAddr != "" {
		go func() {
			// DefaultServeMux carries the /debug/pprof handlers via the
			// net/http/pprof import.
			if err := http.ListenAndServe(c.pprofAddr, nil); err != nil {
				log.Printf("detmt-server: pprof server: %v", err)
			}
		}()
	}

	peerMap, err := ids.ParseReplicaAddrs(c.peers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detmt-server: bad -peers: %v\n", err)
		os.Exit(2)
	}
	if c.join != "" {
		if c.peers != "" || c.shards > 0 {
			fmt.Fprintln(os.Stderr, "detmt-server: -join excludes -peers and -shards (the live cluster IS the membership)")
			os.Exit(2)
		}
		// Discover the current voters from the live cluster; they become
		// this learner's boot peer set.
		snap, err := server.FetchMembership(c.join, 5*time.Second, nil, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "detmt-server: -join %s: %v\n", c.join, err)
			os.Exit(1)
		}
		for _, m := range snap.Voters {
			if m.ID == ids.ReplicaID(c.id) {
				fmt.Fprintf(os.Stderr, "detmt-server: -join: id %d is already a voter at %s (use -recover to rejoin)\n", c.id, c.join)
				os.Exit(2)
			}
			peerMap[m.ID] = m.Addr
		}
	}
	known := false
	for _, k := range replica.AllKinds() {
		if k == opts.Scheduler {
			known = true
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "detmt-server: unknown scheduler %q (want one of %v)\n", opts.Scheduler, replica.AllKinds())
		os.Exit(2)
	}
	if c.families > 0 {
		f := workload.DefaultFamilies()
		f.Families = c.families
		f.PGlobal = c.conflict
		f.HotSkew = c.hotSkew
		opts.Families = &f
	}
	if c.kv {
		k := workload.DefaultKV()
		opts.KV = &k
	}
	opts.ID = ids.ReplicaID(c.id)
	opts.Peers = peerMap
	opts.Learner = c.join != ""
	opts.Logf = func(string, ...interface{}) {}
	if c.v {
		opts.Logf = log.Printf
	}
	var inj *chaos.Injector
	if c.chaos {
		inj = chaos.New()
		opts.Dial = inj.Dial(nil)
		opts.OnChaos = func(cmd string) []byte { return chaos.Handle(inj, cmd) }
	}
	mode := "fresh"
	if opts.Recover {
		mode = "recovering"
	}

	// Sharded mode: one tenant replica per shard in this process, ports
	// derived from the base address (see server.MultiOptions).
	if c.shards > 0 {
		multi, err := server.NewMulti(server.MultiOptions{
			Template: opts,
			Shards:   c.shards,
			RingSeed: c.ringSeed,
			XShard:   c.xshard,
			EpochDir: opts.DataDir,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "detmt-server: %v\n", err)
			os.Exit(1)
		}
		ringHash, _ := multi.Ring().Hash()
		log.Printf("detmt-server: member %d (%s, %s) hosting %d shard(s) from base %s, ring %016x, xshard=%v",
			c.id, opts.Scheduler, mode, multi.Tenants(), opts.Listen, ringHash, c.xshard)

		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		<-sigc
		for _, st := range multi.Status().Shards {
			log.Printf("detmt-server: shard %s shutting down: completed=%d hash=%x state=%d view=%d seq=%v",
				st.Shard, st.Completed, st.Hash, st.State, st.View, st.Sequencer)
			if m := st.Membership; m != nil {
				log.Printf("detmt-server: shard %s membership: epoch=%d config=%s voters=%d learners=%d pending=%d",
					st.Shard, m.Epoch, m.Hash, len(m.Voters), len(m.Learners), len(m.Pending))
			}
			if q := st.Sequencing; q.Drains > 0 {
				log.Printf("detmt-server: shard %s sequencer totals: %v", st.Shard, q)
			}
		}
		for k := 0; k < multi.Tenants(); k++ {
			if gw := multi.Gateway(k); gw != nil {
				stats := gw.Backend().Stats()
				log.Printf("detmt-server: gateway %s totals: applies=%v replays=%v by-prefix=%v",
					"g"+strconv.Itoa(k), stats["applies"], stats["replays"], stats["applies_by_prefix"])
			}
		}
		multi.Close()
		return
	}
	if c.xshard {
		fmt.Fprintln(os.Stderr, "detmt-server: -xshard requires -shards")
		os.Exit(2)
	}

	srv, err := server.New(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detmt-server: %v\n", err)
		os.Exit(1)
	}
	if c.join != "" {
		mode = "joining"
		// Propose our own AddReplica through a live member: it rides the
		// total order, every voter starts fanning out to us as a learner,
		// and we flip to voter at the activation slot. A rejected proposal
		// (e.g. a restart racing its own earlier Add) is not fatal —
		// recovery adopts whatever membership the cluster agreed on.
		ch := member.Change{Kind: member.Add, ID: ids.ReplicaID(c.id), Addr: srv.Addr()}
		if err := server.ProposeChangeAt(c.join, ch, 10*time.Second, nil, nil); err != nil {
			log.Printf("detmt-server: join proposal: %v (continuing as learner)", err)
		}
	}
	log.Printf("detmt-server: replica %d (%s, %s) listening on %s, %d peer(s)",
		c.id, opts.Scheduler, mode, srv.Addr(), len(peerMap))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	<-sigc
	st := srv.Status()
	log.Printf("detmt-server: shutting down: completed=%d hash=%x state=%d recovery=%s last-ckpt=%d view=%d seq=%v",
		st.Completed, st.Hash, st.State, st.Recovery, st.LastCheckpointSeq, st.View, st.Sequencer)
	if m := st.Membership; m != nil {
		log.Printf("detmt-server: membership: epoch=%d config=%s voters=%d learners=%d pending=%d",
			m.Epoch, m.Hash, len(m.Voters), len(m.Learners), len(m.Pending))
	}
	if q := st.Sequencing; q.Drains > 0 {
		log.Printf("detmt-server: sequencer totals: %v", q)
	}
	if c := st.Classes; c != nil {
		log.Printf("detmt-server: earlysched totals: active_classes=%d escalations=%d merge_stalls=%d parallel=%d serial=%d parallel_ratio=%.2f",
			c.ActiveClasses, c.Escalations, c.MergeStalls, c.ParallelCommits, c.SerialCommits, c.ParallelRatio)
	}
	if opts.Backend != "" {
		n := st.Nested
		log.Printf("detmt-server: backend totals: performed=%d retries=%d app-errors=%d timeouts=%d fast-fails=%d re-performed=%d breaker=%s trips=%d",
			n.Performed, n.Retries, n.AppErrors, n.Timeouts, n.FastFails, n.RePerformed, n.BreakerState, n.BreakerTrips)
	}
	if inj != nil {
		sev, blocked := inj.Stats()
		log.Printf("detmt-server: chaos totals: severed=%d dials-blocked=%d", sev, blocked)
	}
	srv.Close()
}
