package main

// surface.go is the ONLY file of the benchmark that imports the
// program's packages. Everything the benchmark compiles against is
// named here (and listed in README.md, "Frozen surface"): later PRs
// cannot edit bench/, so they must keep these symbols — and the flags
// and JSON fields cluster.go relies on — working.

import (
	"fmt"
	"time"

	"detmt/internal/analysis"
	"detmt/internal/earlysched"
	"detmt/internal/gcs"
	"detmt/internal/harness"
	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/replica"
	"detmt/internal/shard"
	"detmt/internal/trace"
	"detmt/internal/vclock"
	"detmt/internal/wire"
	"detmt/internal/workload"
)

// ---- request corpora -------------------------------------------------

// call is one generated invocation: the program receives only these.
type call struct {
	method string
	args   []lang.Value
}

// objectSpec names the replicated object a workload hosts and how its
// requests are drawn.
type objectSpec struct {
	source string
	draw   func(rng *ids.RNG) call
}

// e15Body is the light request body of the repo's throughput
// experiments (detmt-server -iterations 1), over lightMutexes mutexes and
// WITHOUT nested calls: at the seed commit a nested outcome can make one
// follower's hash differ (README.md, "Known defect"), and a benchmark runs
// only workloads on which nothing fails. 50 runs without nested calls: no
// divergence; 92 runs with them: five.
func e15Body() workload.Fig1Config {
	wl := workload.DefaultFig1()
	wl.Iterations = 1
	wl.Mutexes = lightMutexes
	wl.PNested = 0
	return wl
}

// paperObject is the paper's Fig. 1 object with its published
// parameters (10 iterations over 100 mutexes).
func paperObject() objectSpec { return fig1Object(workload.DefaultFig1()) }

func fig1Object(cfg workload.Fig1Config) objectSpec {
	return objectSpec{
		source: workload.Fig1Source(cfg),
		draw: func(rng *ids.RNG) call {
			return call{workload.MethodName, workload.Fig1Args(cfg, rng)}
		},
	}
}

func familiesObject(families int, conflict float64) objectSpec {
	cfg := workload.DefaultFamilies()
	cfg.Families = families
	cfg.PGlobal = conflict
	return objectSpec{
		source: workload.FamiliesSource(cfg),
		draw: func(rng *ids.RNG) call {
			m, a := workload.FamilyArgs(cfg, rng)
			return call{m, a}
		},
	}
}

func kvObject(keys int) objectSpec {
	return objectSpec{
		source: workload.KVSource(workload.DefaultKV()),
		draw: func(rng *ids.RNG) call {
			_, m, a := workload.KVRequest(rng, keys, 0.5)
			return call{m, a}
		},
	}
}

// corpus draws n requests from the seed.
func (o objectSpec) corpus(seed uint64, n int) []call {
	rng := ids.NewRNG(seed)
	out := make([]call, n)
	for i := range out {
		out[i] = o.draw(rng)
	}
	return out
}

// ---- wire client -----------------------------------------------------

// wireClient is one client transport (one TCP connection per member)
// with a pool of client identities multiplexed on it.
type wireClient struct {
	tr    *wire.TCP
	group *gcs.Group
	pool  []*replica.Client
}

// dialWire opens the transport toward servers (replica id -> address).
// groupTag is "" for a single-group cluster, "g<k>" for shard k.
func dialWire(name, groupTag string, servers map[int]string, clients int) (*wireClient, error) {
	peers := make(map[ids.ReplicaID]string, len(servers))
	members := make([]ids.ReplicaID, 0, len(servers))
	c := &wireClient{}
	for id, addr := range servers {
		peers[ids.ReplicaID(id)] = addr
		members = append(members, ids.ReplicaID(id))
	}
	tr, err := wire.NewTCP(wire.Options{Name: name, Group: groupTag, Epoch: 1, Peers: peers})
	if err != nil {
		return nil, err
	}
	clock := vclock.NewReal()
	c.tr = tr
	c.group = gcs.NewGroup(gcs.Config{
		Clock:     clock,
		Group:     groupTag,
		Members:   members,
		Transport: tr,
		Local:     []ids.ReplicaID{},
	})
	c.pool = make([]*replica.Client, clients)
	for i := range c.pool {
		c.pool[i] = replica.NewClient(clock, c.group, ids.ClientID(i+1))
	}
	return c, nil
}

// submit broadcasts one request on pool identity slot and returns a
// function that blocks until its first reply.
func (c *wireClient) submit(slot int, ca call) func() error {
	p := c.pool[slot%len(c.pool)].InvokeBatch([]replica.Call{{Method: ca.method, Args: ca.args}})[0]
	return func() error {
		_, _, err := p.Wait()
		return err
	}
}

// control sends an out-of-band query ("status", "shards") to a member.
func (c *wireClient) control(member int, req string, timeout time.Duration) ([]byte, error) {
	return c.tr.Control(ids.ReplicaID(member), []byte(req), timeout)
}

func (c *wireClient) close() { c.group.Close() }

// ---- simulator -------------------------------------------------------

// simKinds are the sweep's schedulers in the paper's order; lower-case
// names are the metric suffixes.
var simKinds = []struct {
	name string
	kind replica.SchedulerKind
}{
	{"seq", replica.KindSEQ}, {"sat", replica.KindSAT}, {"lsa", replica.KindLSA},
	{"pds", replica.KindPDS}, {"mat", replica.KindMAT}, {"pmat", replica.KindPMAT},
}

// simCell is the outcome of one (scheduler, client count) cell.
type simCell struct {
	requests    int
	meanMs      float64       // mean client-perceived virtual latency
	p50Ms       float64       // its nearest-rank median
	p99Ms       float64       // and 99th percentile
	makespan    time.Duration // virtual
	transfers   int
	broadcasts  int
	bookkeeping int
	traceEvents int
	hashes      []uint64
	wall        time.Duration
	tr          *trace.Trace
}

func (c simCell) wallUsPerReq() float64 {
	return float64(c.wall) / float64(time.Microsecond) / float64(c.requests)
}

// runSimCell runs one Fig. 1 cell with the E1 settings of the repo's
// bench_test.go:simFor (3 replicas, 500µs LAN, 12ms nested calls; PDS
// with a 2ms dummy pump and a pool of min(clients, 8)).
func runSimCell(kind replica.SchedulerKind, clients, requestsPerClient int, seed uint64) simCell {
	o := harness.DefaultSim()
	o.Kind = kind
	o.Clients = clients
	o.RequestsPerClient = requestsPerClient
	o.Seed = seed
	if kind == replica.KindPDS {
		o.DummyInterval = 2 * time.Millisecond
		o.PDSWindow = clients
		if o.PDSWindow > 8 {
			o.PDSWindow = 8
		}
	}
	t0 := time.Now()
	r := harness.RunSim(o)
	wall := time.Since(t0)
	qs := r.Latency.Quantiles(50, 99)
	return simCell{
		requests:    r.Requests,
		meanMs:      ms(r.Latency.Mean()),
		p50Ms:       ms(qs[0]),
		p99Ms:       ms(qs[1]),
		makespan:    r.Makespan,
		transfers:   r.Transfers,
		broadcasts:  r.Broadcasts,
		bookkeeping: r.BookkeepingEvents,
		traceEvents: r.Trace.Len(),
		hashes:      r.Hashes,
		wall:        wall,
		tr:          r.Trace,
	}
}

// laneBreakdown is the mean virtual time a request thread spent in each
// state on replica 1, from trace.Lanes.
type laneBreakdown struct{ queuedMs, blockedMs, nestedMs, runMs float64 }

func decomposeLanes(tr *trace.Trace) laneBreakdown {
	lanes, _ := trace.Lanes(tr)
	var queued, blocked, nested, waited, total time.Duration
	n := 0
	for _, ln := range lanes {
		var from, to time.Duration
		seen := false
		for _, sp := range ln.Spans {
			d := sp.To - sp.From
			switch sp.Class {
			case trace.SpanQueued: // admit .. exit
				from, to, seen = sp.From, sp.To, true
			case trace.SpanRun: // start .. exit
				queued += sp.From - from
			case trace.SpanBlocked:
				blocked += d
			case trace.SpanWait:
				waited += d
			case trace.SpanNested:
				nested += d
			}
		}
		if seen {
			total += to - from
			n++
		}
	}
	if n == 0 {
		return laneBreakdown{}
	}
	per := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(n) }
	return laneBreakdown{
		queuedMs:  per(queued),
		blockedMs: per(blocked),
		nestedMs:  per(nested),
		runMs:     per(total - queued - blocked - nested - waited),
	}
}

// ---- timed exported-function stages ----------------------------------

// stage is a single-threaded micro-measurement over exported functions.
// run performs the whole corpus once and returns how many operations
// that was.
type stage struct {
	name string
	run  func() int
}

// stageSet builds the stages for a workload's object and request corpus,
// plus the constant facts they expose.
type stageFacts struct {
	envelopeBytes float64
	globalShare   float64
}

func buildStages(obj objectSpec, reqs []call) ([]stage, stageFacts, error) {
	var facts stageFacts
	parsed, err := lang.Parse(obj.source)
	if err != nil {
		return nil, facts, fmt.Errorf("parse hosted object: %w", err)
	}
	res, err := analysis.Analyze(parsed)
	if err != nil {
		return nil, facts, fmt.Errorf("analyze hosted object: %w", err)
	}

	envs := make([]gcs.Envelope, len(reqs))
	encoded := make([][]byte, len(reqs))
	total := 0
	for i, ca := range reqs {
		envs[i] = gcs.Envelope{
			Seq:    uint64(i + 1),
			Origin: gcs.Origin{Client: ids.ClientID(i%16 + 1), IsClient: true},
			UID:    uint64(i + 1),
			Stamp:  time.Duration(i) * time.Millisecond,
			Payload: replica.Request{
				Req:    ids.MakeRequestID(ids.ClientID(i%16+1), uint32(i+1)),
				Method: ca.method,
				Args:   ca.args,
			},
		}
		b, err := wire.AppendEnvelope(nil, envs[i])
		if err != nil {
			return nil, facts, fmt.Errorf("encode request corpus: %w", err)
		}
		encoded[i] = b
		total += len(b)
	}
	facts.envelopeBytes = float64(total) / float64(len(reqs))

	cls := earlysched.New(res, 4)
	global := 0
	for _, ca := range reqs {
		if cls.Classify(ca.method, ca.args) == 0 {
			global++
		}
	}
	facts.globalShare = float64(global) / float64(len(reqs))

	bases := map[ids.ReplicaID]string{1: "127.0.0.1:7001", 2: "127.0.0.1:7011", 3: "127.0.0.1:7021"}
	ringCfg, err := shard.SymmetricConfig(1, 0, 0, 2, bases, false)
	if err != nil {
		return nil, facts, fmt.Errorf("ring config: %w", err)
	}
	ring, err := shard.NewRing(ringCfg)
	if err != nil {
		return nil, facts, fmt.Errorf("ring: %w", err)
	}

	var buf []byte
	stages := []stage{
		{"wire.encode_ns", func() int {
			for _, e := range envs {
				buf, _ = wire.AppendEnvelope(buf[:0], e)
			}
			return len(envs)
		}},
		{"wire.decode_ns", func() int {
			for _, b := range encoded {
				_, n, _ := wire.DecodeEnvelope(b)
				sink += n
			}
			return len(encoded)
		}},
		{"earlysched.classify_ns", func() int {
			for _, ca := range reqs {
				sink += int(cls.Classify(ca.method, ca.args))
			}
			return len(reqs)
		}},
		{"shard.route_ns", func() int {
			for i := range reqs {
				sink += ring.Route(workload.KVRouteKey(int64(i)))
			}
			return len(reqs)
		}},
		{"analysis.analyze_ms", func() int {
			if analyzeObject(obj.source) == nil {
				sink++
			}
			return 1
		}},
		{"trace.record_ns", func() int {
			tr := trace.New()
			for i := range reqs {
				tr.Record(trace.Event{
					At: time.Duration(i), Thread: ids.ThreadID(i%16 + 1), Kind: trace.KindLockAcq,
					Sync: ids.NoSync, Mutex: ids.MutexID(i % 16),
				})
			}
			sink += tr.Len()
			return len(reqs)
		}},
	}
	return stages, facts, nil
}

// sink keeps the timed calls' results alive, so the compiler cannot drop
// the calls.
var sink int

// analyzeObject is the set-up work a server does for its hosted object.
func analyzeObject(source string) error {
	p, err := lang.Parse(source)
	if err != nil {
		return err
	}
	_, err = analysis.Analyze(p)
	return err
}
