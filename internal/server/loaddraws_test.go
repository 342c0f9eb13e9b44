package server

import (
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/replica"
	"detmt/internal/shard"
	"detmt/internal/workload"
)

// This file characterises the load drivers' random draws: which
// (client, method, args) a seed produces, in which order, and which
// arrival schedule the open-loop pump walks. A seeded pipelined run
// reaches the replicas' deterministic schedule through exactly these
// draws, so the reconnect-determinism, group-commit-transparency and
// transport-equivalence tests keep their hashes only while the table
// holds. The goldens were recorded at commit 76c8ed4, before the nine
// load drivers became one engine, and are never regenerated:
// TestLoadDrawGoldens checks the generator side without sockets,
// TestLoadDrawsOnTheWire reads the same draws back from the sequenced log
// of a real server after a real run.

// draw is one generated request.
type draw struct {
	client int // 1-based generator client
	method string
	args   []lang.Value
}

func digestDraws(ds []draw) uint64 {
	h := fnv.New64a()
	for _, d := range ds {
		fmt.Fprintf(h, "%d %s %v\n", d.client, d.method, d.args)
	}
	return h.Sum64()
}

func digestIntents(its []time.Duration) uint64 {
	h := fnv.New64a()
	for _, it := range its {
		fmt.Fprintf(h, "%d\n", int64(it))
	}
	return h.Sum64()
}

const (
	drawClients   = 4 // closed loop: 4 clients x 8 requests = the first 32 draws
	drawPerClient = 8
	drawN         = drawClients * drawPerClient
	drawRate      = 1000.0 // open loop: first 32 arrivals at 1000 req/s
)

var drawSeeds = []uint64{1, 7}

// drawGen is one request generator: routing key, method, arguments.
type drawGen = workload.Gen

func drawFamilies() workload.FamilyConfig { return testFamilies(0.25) }

const drawKVKeys, drawKVPGet = 64, 0.5

// drawGens are the generators the drivers ship: Fig. 1 (single group: no
// routing-key draw), the family workload, Fig. 1 behind a ring (the key is
// drawn BEFORE the arguments) and the KV facade's gets and tokenized puts.
func drawGens() map[string]drawGen {
	wl, fam := testWorkload(), drawFamilies()
	return map[string]drawGen{
		"fig1": func(r *ids.RNG) (uint64, string, []lang.Value) {
			return 0, workload.MethodName, workload.Fig1Args(wl, r)
		},
		// As the drivers drew it at 76c8ed4: one Fig. 1 argument list was
		// drawn and dropped before every family request (load.go:223-226).
		"families": func(r *ids.RNG) (uint64, string, []lang.Value) {
			workload.Fig1Args(wl, r)
			m, a := workload.FamilyArgs(fam, r)
			return 0, m, a
		},
		"fig1-keyed": func(r *ids.RNG) (uint64, string, []lang.Value) {
			return r.Uint64(), workload.MethodName, workload.Fig1Args(wl, r)
		},
		"kv": func(r *ids.RNG) (uint64, string, []lang.Value) {
			return workload.KVRequest(r, drawKVKeys, drawKVPGet)
		},
	}
}

// drawGoldens are FNV-1a digests of the draws above, recorded at 76c8ed4.
var drawGoldens = map[string]uint64{
	"closed/fig1/1":          0x3c2bb55cd13cada7,
	"closed/fig1/7":          0xebbc55cb573c32c1,
	"closed/families/1":      0x61d7d97da65d01e4,
	"closed/families/7":      0x0213a4215c832997,
	"closed/fig1-keyed/1":    0x96f979c052c47727,
	"closed/fig1-keyed/7":    0xe96c1f179d2b8ab8,
	"closed/kv/1":            0xf771d669b508baa7,
	"closed/kv/7":            0x1d980df2d88aa469,
	"closed/pipelined/1":     0xe2926b067ab7d088,
	"closed/pipelined/7":     0x87fc69d995e56851,
	"open/fixed/calls/1":     0xe91ecfa82107cb0d,
	"open/fixed/calls/7":     0x8f63e6254e86f677,
	"open/fixed/intents/1":   0x321b6d51a83baf89,
	"open/fixed/intents/7":   0x321b6d51a83baf89,
	"open/poisson/calls/1":   0xe91ecfa82107cb0d,
	"open/poisson/calls/7":   0x8f63e6254e86f677,
	"open/poisson/intents/1": 0x80fc64eb2536777c,
	"open/poisson/intents/7": 0x2023d3e1dfd0d0d4,
}

func checkGolden(t *testing.T, key string, got uint64) {
	t.Helper()
	want, ok := drawGoldens[key]
	if !ok {
		t.Errorf("no golden for %q (got %#016x)", key, got)
	} else if got != want {
		t.Errorf("%s: digest %#016x, golden %#016x — the seeded request stream changed", key, got, want)
	}
}

// TestLoadDrawGoldens pins the generator side, without sockets.
func TestLoadDrawGoldens(t *testing.T) {
	gens := drawGens()
	for _, seed := range drawSeeds {
		for name, gen := range gens {
			checkGolden(t, fmt.Sprintf("closed/%s/%d", name, seed),
				digestDraws(closedDraws(t, seed, drawClients, drawPerClient, false, gen)))
		}
		// One client submitting everything as one batch: the seeded-hash path.
		checkGolden(t, fmt.Sprintf("closed/pipelined/%d", seed),
			digestDraws(closedDraws(t, seed, 1, drawN, true, gens["fig1"])))
		for _, poisson := range []bool{false, true} {
			kind := map[bool]string{false: "fixed", true: "poisson"}[poisson]
			intents, calls := openDraws(t, seed, poisson, gens["fig1"])
			checkGolden(t, fmt.Sprintf("open/%s/intents/%d", kind, seed), digestIntents(intents))
			checkGolden(t, fmt.Sprintf("open/%s/calls/%d", kind, seed), digestDraws(calls))
		}
	}
	// The first draws in the clear, so a digest mismatch can be read.
	first := closedDraws(t, 1, drawClients, drawPerClient, false, gens["fig1"])[0]
	if got := fmt.Sprint(first); got != "{1 work [2 20 29 17]}" {
		t.Errorf("seed 1, client 1, first Fig. 1 draw: %s", got)
	}
}

// sequencedDraws reads the requests of clients base+1.. back from the
// server's sequenced log, ordered by client and per-client sequence
// number — the order each client drew them in.
func sequencedDraws(t *testing.T, s *Server, base, clients int) []draw {
	t.Helper()
	envs, _, ok := s.group.Node(s.o.ID).SequencedTail(1, 0)
	if !ok {
		t.Fatal("sequenced log not retained")
	}
	var reqs []replica.Request
	for _, e := range envs {
		if r, isReq := e.Payload.(replica.Request); isReq {
			if c := int(r.Req.Client()) - base; c >= 1 && c <= clients {
				reqs = append(reqs, r)
			}
		}
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].Req < reqs[j].Req })
	out := make([]draw, len(reqs))
	for i, r := range reqs {
		out[i] = draw{int(r.Req.Client()) - base, r.Method, r.Args}
	}
	return out
}

// startTagged boots one group-tagged replica (a one-shard deployment) and
// returns it with the ring that routes everything to it.
func startTagged(t *testing.T, mod func(*Options)) (*Server, shard.RingConfig) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{
		ID: 1, Listener: ln, Group: "g0", Scheduler: replica.KindMAT,
		Workload: testWorkload(), NestedLatency: 2 * time.Millisecond,
		Tick: 2 * time.Millisecond,
	}
	if mod != nil {
		mod(&o)
	}
	srv, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, shard.RingConfig{Version: 1, Seed: 1, Groups: []shard.GroupConfig{
		{ID: 0, Members: map[ids.ReplicaID]string{1: ln.Addr().String()}},
	}}
}

// TestLoadDrawsOnTheWire runs the real drivers against one-replica servers
// and reads what they submitted back from the sequenced log: the same
// goldens as TestLoadDrawGoldens, observed after the sockets.
func TestLoadDrawsOnTheWire(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	fam := drawFamilies()
	kv := workload.DefaultKV()
	plain, plainAddrs := startCluster(t, 1, replica.KindMAT)
	early, earlyAddrs := startEarlyCluster(t, 1, replica.KindMAT, fam)
	keyed, keyedRing := startTagged(t, nil)
	kvSrv, kvRing := startTagged(t, func(o *Options) { o.KV = &kv })
	open, openAddrs := startCluster(t, 1, replica.KindMAT)

	gens := drawGens()
	for _, seed := range drawSeeds {
		base := int(seed) * 100 // disjoint client ids: both seeds share the servers
		closed := func(name string, srv *Server, sc *ShardClients, err error, o RunOptions) {
			t.Helper()
			if err == nil {
				defer sc.Close()
				o.Invoker, o.Seed, o.Timeout = sc, seed, 60*time.Second
				_, err = Run(o)
			}
			if err != nil {
				t.Fatalf("closed/%s/%d: %v", name, seed, err)
			}
			got := sequencedDraws(t, srv, base, drawClients)
			if name == "pipelined" {
				got = sequencedDraws(t, srv, base+50, 1)
			}
			if len(got) != drawN {
				t.Fatalf("closed/%s/%d: %d requests in the log, want %d", name, seed, len(got), drawN)
			}
			checkGolden(t, fmt.Sprintf("closed/%s/%d", name, seed), digestDraws(got))
		}
		d := ShardClientOptions{Clients: drawClients, ClientBase: base, EpochDir: t.TempDir()}
		o := RunOptions{Clients: drawClients, RequestsPerClient: drawPerClient}
		for name, c := range map[string]struct {
			srv   *Server
			addrs map[ids.ReplicaID]string
		}{"fig1": {plain[0], plainAddrs}, "families": {early[0], earlyAddrs}} {
			sc, err := DialGroup(c.addrs, d)
			o.Gen = gens[name]
			closed(name, c.srv, sc, err, o)
		}
		for name, c := range map[string]struct {
			srv  *Server
			ring shard.RingConfig
		}{"fig1-keyed": {keyed, keyedRing}, "kv": {kvSrv, kvRing}} {
			sc, err := DialShards(c.ring, d)
			o.Gen = gens[name]
			closed(name, c.srv, sc, err, o)
		}
		sc, err := DialGroup(plainAddrs, ShardClientOptions{Clients: 1, ClientBase: base + 50, EpochDir: t.TempDir()})
		closed("pipelined", plain[0], sc, err, RunOptions{
			Clients: 1, RequestsPerClient: drawN, Batch: true, Gen: gens["fig1"],
		})

		// Open loop, one pooled client: its sequence numbers are the
		// arrival order, so the log's first drawN requests are the pump's
		// first drawN calls.
		for i, poisson := range []bool{false, true} {
			kind := map[bool]string{false: "fixed", true: "poisson"}[poisson]
			obase := base + 10*(i+1)
			_, err := loadGroup(openAddrs, ShardClientOptions{Clients: 1, ClientBase: obase, EpochDir: t.TempDir()},
				RunOptions{
					Rate: drawRate, Duration: 60 * time.Millisecond, Warmup: -1,
					Poisson: poisson, Seed: seed,
				})
			if err != nil {
				t.Fatalf("open/%s/%d: %v", kind, seed, err)
			}
			got := sequencedDraws(t, open[0], obase, 1)
			if len(got) < drawN {
				t.Fatalf("open/%s/%d: only %d requests in the log", kind, seed, len(got))
			}
			checkGolden(t, fmt.Sprintf("open/%s/calls/%d", kind, seed), digestDraws(got[:drawN]))
		}
	}
}
