// Command detmt-server hosts one detmt replica over real TCP — the
// deployment mode that takes the system out of the simulator. Start one
// process per member with the boot membership; the lowest replica id
// starts as the sequencer and runs the stamped sequencing tick loop
// that keeps every member's virtual schedule identical. If the
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

func main() {
	id := flag.Int("id", 1, "this replica's id (must appear in the membership)")
	listen := flag.String("listen", "127.0.0.1:7101", "TCP address to accept peer and client connections on")
	peers := flag.String("peers", "", "other members as id=addr,id=addr,... (static membership)")
	scheduler := flag.String("scheduler", "MAT", "scheduler kind: SEQ, SAT, LSA, PDS, MAT, MAT+LLA, or PMAT")
	nested := flag.Duration("nested", 12*time.Millisecond, "virtual duration of the nested external call")
	backendAddr := flag.String("backend", "", "address of a detmt-backend process serving nested invocations (empty: in-process echo)")
	nestedTimeout := flag.Duration("nested-timeout", 0, "per-attempt deadline against the backend (0: 2s)")
	nestedRetries := flag.Int("nested-retries", 0, "backend retries after a failed attempt (0: 2, negative: none)")
	nestedBackoff := flag.Duration("nested-backoff", 0, "initial retry backoff, doubling capped at 500ms (0: 25ms)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive backend failures that trip the circuit breaker (0: 5, negative: never)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before probing the backend again (0: 2s)")
	catchNested := flag.Bool("catch-nested", false, "workload catches failed nested calls (iserr) instead of aborting the request")
	tick := flag.Duration("tick", 2*time.Millisecond, "sequencing tick interval (virtual = wall)")
	budget := flag.Duration("budget", 5*time.Millisecond, "delivery-deadline budget per sequenced message")
	adaptiveTick := flag.Bool("adaptive-tick", false,
		"load-responsive tick sizing: drain early when the forward queue crosses -batch-threshold, stretch toward -max-tick when idle")
	minTick := flag.Duration("min-tick", 0, "adaptive tick floor (0: tick/4)")
	maxTick := flag.Duration("max-tick", 0, "adaptive idle-tick ceiling (0: 4*tick)")
	batchThreshold := flag.Int("batch-threshold", 0, "queued forwards that trigger an early adaptive drain (0: 64)")
	noGroupCommit := flag.Bool("no-group-commit", false,
		"disable group commit: one wire frame per sequenced envelope instead of one per tick (measurement baseline)")
	pipelineDepth := flag.Int("pipeline-depth", 0,
		"per-sender decode pipeline depth decoupling frame decode from apply (0: default 512, negative: inline decode)")
	pdsWindow := flag.Int("pds-window", 4, "PDS pool size")
	pdsRelaxed := flag.Bool("pds-relaxed", false, "relax the PDS full-pool barrier")
	checkpointEvery := flag.Int("checkpoint-every", 0, "broadcast a state checkpoint every N requests (0: never)")
	iterations := flag.Int("iterations", 10, "Fig. 1 loop iterations per request")
	mutexes := flag.Int("mutexes", 100, "Fig. 1 mutex set size")
	earlySched := flag.Bool("early-sched", false,
		"conflict-class early scheduling: sequencer stamps conflict classes, replica runs class-parallel lanes (MAT, MAT+LLA or PDS)")
	lanes := flag.Int("lanes", 4, "early-scheduling classifier lane count")
	families := flag.Int("families", 0,
		"host the family-partitioned low-conflict workload with this many disjoint families instead of Fig. 1 (0: Fig. 1; all members and detmt-load must agree)")
	kvFlag := flag.Bool("kv", false,
		"host the replicated key-value object instead of Fig. 1 (serve it with detmt-gateway; excludes -families and -xshard)")
	kvBuckets := flag.Int("kv-buckets", 0, "KV lock-bucket count (0: default; all members must agree)")
	conflict := flag.Float64("conflict", 0,
		"family workload: probability a request crosses all families (escalates to the global class)")
	hotSkew := flag.Float64("hot-skew", 0,
		"family workload: hot-key skew towards each family's first monitor (0: uniform)")
	traceRetention := flag.Int("trace-retention", 0,
		"max trace events kept in memory (0: default bound, negative: unlimited); hashes stay exact over full history")
	dataDir := flag.String("data", "", "directory for checkpoints and the restart-epoch counter (empty: in-memory only)")
	recoverFlag := flag.Bool("recover", false, "rejoin the running cluster via checkpoint + tail transfer (any role, including a deposed sequencer)")
	join := flag.String("join", "",
		"join a LIVE cluster as a NEW member: fetch the membership from this address, start as a catch-up learner, and propose our own AddReplica through the total order (excludes -peers and -shards)")
	epoch := flag.Uint64("epoch", 0, "restart epoch override (0: derive from -data, or legacy epoch-less mode without it)")
	seqRetention := flag.Int("seq-retention", 0,
		"sequenced envelopes retained to serve rejoiners (0: default, negative: unlimited)")
	gossip := flag.Duration("gossip", 0, "divergence-gossip interval (0: default 250ms, negative: disabled)")
	detectTimeout := flag.Duration("detect-timeout", 0,
		"sequencer-silence window of the failure detector (0: default 50ms); raise on flaky links so short partitions never depose a live sequencer")
	shards := flag.Int("shards", 0,
		"host one tenant replica per shard in this process (-listen is the BASE address: shard k listens at base port + k; 0: single-group mode)")
	xshard := flag.Bool("xshard", false,
		"route nested calls into the NEXT shard through per-shard gateways on the lowest member (requires -shards; excludes -backend)")
	ringSeed := flag.Uint64("ring-seed", 0, "consistent-hash ring seed (must agree across members)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per shard on the ring (0: default)")
	chaosOn := flag.Bool("chaos", false, "expose the chaos fault-injection control channel (see detmt-chaos)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty: off)")
	verbose := flag.Bool("v", false, "log transport diagnostics")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			// DefaultServeMux carries the /debug/pprof handlers via the
			// net/http/pprof import.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("detmt-server: pprof server: %v", err)
			}
		}()
	}

	peerMap, err := ids.ParseReplicaAddrs(*peers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detmt-server: bad -peers: %v\n", err)
		os.Exit(2)
	}
	if *join != "" {
		if *peers != "" || *shards > 0 {
			fmt.Fprintln(os.Stderr, "detmt-server: -join excludes -peers and -shards (the live cluster IS the membership)")
			os.Exit(2)
		}
		// Discover the current voters from the live cluster; they become
		// this learner's boot peer set.
		snap, err := server.FetchMembership(*join, 5*time.Second, nil, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "detmt-server: -join %s: %v\n", *join, err)
			os.Exit(1)
		}
		for _, m := range snap.Voters {
			if m.ID == ids.ReplicaID(*id) {
				fmt.Fprintf(os.Stderr, "detmt-server: -join: id %d is already a voter at %s (use -recover to rejoin)\n", *id, *join)
				os.Exit(2)
			}
			peerMap[m.ID] = m.Addr
		}
	}
	kind := replica.SchedulerKind(*scheduler)
	known := false
	for _, k := range replica.AllKinds() {
		if k == kind {
			known = true
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "detmt-server: unknown scheduler %q (want one of %v)\n", *scheduler, replica.AllKinds())
		os.Exit(2)
	}
	wl := workload.DefaultFig1()
	wl.Iterations = *iterations
	wl.Mutexes = *mutexes
	wl.CatchNested = *catchNested
	var fam *workload.FamilyConfig
	if *families > 0 {
		f := workload.DefaultFamilies()
		f.Families = *families
		f.PGlobal = *conflict
		f.HotSkew = *hotSkew
		fam = &f
	}
	var kv *workload.KVConfig
	if *kvFlag {
		k := workload.DefaultKV()
		if *kvBuckets > 0 {
			k.Buckets = *kvBuckets
		}
		kv = &k
	}

	logf := func(string, ...interface{}) {}
	if *verbose {
		logf = log.Printf
	}
	var inj *chaos.Injector
	opts := server.Options{
		ID:               ids.ReplicaID(*id),
		Listen:           *listen,
		Peers:            peerMap,
		Scheduler:        kind,
		Workload:         wl,
		NestedLatency:    *nested,
		Backend:          *backendAddr,
		NestedTimeout:    *nestedTimeout,
		NestedRetries:    *nestedRetries,
		NestedBackoff:    *nestedBackoff,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		Tick:             *tick,
		Budget:           *budget,
		AdaptiveTick:     *adaptiveTick,
		MinTick:          *minTick,
		MaxTick:          *maxTick,
		BatchThreshold:   *batchThreshold,
		NoGroupCommit:    *noGroupCommit,
		PipelineDepth:    *pipelineDepth,
		PDSWindow:        *pdsWindow,
		PDSRelaxed:       *pdsRelaxed,
		CheckpointEvery:  *checkpointEvery,
		Families:         fam,
		KV:               kv,
		EarlySched:       *earlySched,
		Lanes:            *lanes,
		TraceRetention:   *traceRetention,
		DataDir:          *dataDir,
		Recover:          *recoverFlag,
		Learner:          *join != "",
		Epoch:            *epoch,
		SeqRetention:     *seqRetention,
		DetectTimeout:    *detectTimeout,
		GossipInterval:   *gossip,
		Logf:             logf,
	}
	if *chaosOn {
		inj = chaos.New()
		opts.Dial = inj.Dial(nil)
		opts.OnChaos = func(cmd string) []byte { return chaos.Handle(inj, cmd) }
	}
	mode := "fresh"
	if *recoverFlag {
		mode = "recovering"
	}

	// Sharded mode: one tenant replica per shard in this process, ports
	// derived from the base address (see server.MultiOptions).
	if *shards > 0 {
		multi, err := server.NewMulti(server.MultiOptions{
			Template: opts,
			Shards:   *shards,
			RingSeed: *ringSeed,
			VNodes:   *vnodes,
			XShard:   *xshard,
			EpochDir: *dataDir,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "detmt-server: %v\n", err)
			os.Exit(1)
		}
		ringHash, _ := multi.Ring().Hash()
		log.Printf("detmt-server: member %d (%s, %s) hosting %d shard(s) from base %s, ring %016x, xshard=%v",
			*id, *scheduler, mode, multi.Tenants(), *listen, ringHash, *xshard)

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
	if *xshard {
		fmt.Fprintln(os.Stderr, "detmt-server: -xshard requires -shards")
		os.Exit(2)
	}

	srv, err := server.New(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detmt-server: %v\n", err)
		os.Exit(1)
	}
	if *join != "" {
		mode = "joining"
		// Propose our own AddReplica through a live member: it rides the
		// total order, every voter starts fanning out to us as a learner,
		// and we flip to voter at the activation slot. A rejected proposal
		// (e.g. a restart racing its own earlier Add) is not fatal —
		// recovery adopts whatever membership the cluster agreed on.
		ch := member.Change{Kind: member.Add, ID: ids.ReplicaID(*id), Addr: srv.Addr()}
		if err := server.ProposeChangeAt(*join, ch, 10*time.Second, nil, nil); err != nil {
			log.Printf("detmt-server: join proposal: %v (continuing as learner)", err)
		}
	}
	log.Printf("detmt-server: replica %d (%s, %s) listening on %s, %d peer(s)",
		*id, *scheduler, mode, srv.Addr(), len(peerMap))

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
	if c := st.Classes; c != nil {
		log.Printf("detmt-server: earlysched totals: active_classes=%d escalations=%d merge_stalls=%d parallel=%d serial=%d parallel_ratio=%.2f",
			c.ActiveClasses, c.Escalations, c.MergeStalls, c.ParallelCommits, c.SerialCommits, c.ParallelRatio)
	}
	if *backendAddr != "" {
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
