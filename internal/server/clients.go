package server

import (
	"fmt"
	"net"
	"time"

	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/replica"
	"detmt/internal/shard"
	"detmt/internal/vclock"
	"detmt/internal/wire"
)

// ShardClientOptions configures DialShards and DialGroup.
type ShardClientOptions struct {
	// Clients is the per-shard client-pool size (default 16). Callers
	// multiplex onto the pool by slot; a slot maps to the same client
	// identity for the process's lifetime.
	Clients int
	// ClientBase offsets the generated client ids: the pool is
	// ClientBase+1 .. ClientBase+Clients. Distinct dialers against the
	// SAME cluster must use disjoint ranges — request identity (client id
	// + per-client counter) reaches the deterministic schedule and the
	// replicas' duplicate suppression, so a new generator incarnation is a
	// new set of clients, not a resumption of the old ones. Runs against
	// different clusters that should produce comparable hashes must use
	// the SAME base (default 0).
	ClientBase int
	// EpochDir persists the wire-epoch counters. Dialers with the same
	// ClientBase share a transport name per group, so each one must present
	// a strictly higher restart epoch than the one before it — a wall-clock
	// epoch alone lets two dialers started within the same clock tick
	// collide (one gets swallowed as a stale incarnation). "" uses a
	// shared directory under the OS temp dir.
	EpochDir string
	// Dial overrides the transport dialer (nil: plain TCP). The chaos
	// injector hooks in here to fault the client's own connections.
	Dial func(addr string) (net.Conn, error)
	Logf func(format string, args ...interface{})
}

// Call is one keyed invocation: the ring routes Key to a shard, whose
// pooled client carries Method(Args...).
type Call struct {
	Key    uint64
	Method string
	Args   []lang.Value
}

// Waiter blocks until an invocation's first reply arrives and returns the
// reply value and the send-to-reply latency (*replica.Pending is one).
type Waiter interface {
	Wait() (lang.Value, time.Duration, error)
}

// Pending is one submitted Call: the shard it was routed to and the
// handle that waits for its reply.
type Pending struct {
	Shard int
	Waiter
}

// ShardClients is the long-lived client side of a deployment: one
// group-tagged transport, client-only group, view poller, and client
// pool per shard, plus the consistent-hash router. A single group is a
// one-shard deployment with an empty tag (DialGroup). It is what a
// serving front end (the HTTP gateway) holds open between requests and
// what the load engine submits through. Safe for concurrent use.
type ShardClients struct {
	ring    shard.RingConfig
	router  *shard.Router
	stacks  []*shardStack
	clients int
	logf    func(string, ...interface{})
}

// DialShards dials every shard of the ring and builds the pools.
func DialShards(ring shard.RingConfig, o ShardClientOptions) (*ShardClients, error) {
	return dial(ring, true, o)
}

// DialGroup dials one unsharded cluster: servers maps every member's
// replica id to its address. Requests go to the sequencer, replies come
// back from every replica (first reply wins).
func DialGroup(servers map[ids.ReplicaID]string, o ShardClientOptions) (*ShardClients, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("dial: no servers given")
	}
	return dial(shard.RingConfig{Groups: []shard.GroupConfig{{Members: servers}}}, false, o)
}

func dial(ring shard.RingConfig, tagged bool, o ShardClientOptions) (*ShardClients, error) {
	r, err := shard.NewRing(ring)
	if err != nil {
		return nil, err
	}
	if o.Clients <= 0 {
		o.Clients = 16
	}
	cfg := r.Config()
	sc := &ShardClients{
		ring:    cfg,
		router:  shard.NewRouter(r),
		stacks:  make([]*shardStack, len(cfg.Groups)),
		clients: o.Clients,
		logf:    o.Logf,
	}
	// The transport name is the dialer's identity toward the servers (a
	// later session under the same name supersedes the earlier one), so it
	// follows the client-id base: dialers with disjoint pools — a gateway
	// and a load generator — coexist on one cluster.
	base := "load"
	if o.ClientBase != 0 {
		base = fmt.Sprintf("load+%d", o.ClientBase)
	}
	for k, g := range cfg.Groups {
		name, tag := base, ""
		if tagged {
			tag = fmt.Sprintf("g%d", g.ID)
			name += "-" + tag
		}
		st, err := newShardStack(name, tag, g.Members, o)
		if err != nil {
			sc.Close()
			return nil, err
		}
		sc.stacks[k] = st
	}
	return sc, nil
}

// shardStack is one shard's client-side stack: a group-tagged
// transport, a client-only gcs group with a view poller, and a client
// pool.
type shardStack struct {
	servers  map[ids.ReplicaID]string
	tr       *wire.TCP
	group    *gcs.Group
	pool     []*replica.Client
	stopPoll func()
}

func (st *shardStack) close() error {
	st.stopPoll()
	return st.group.Close()
}

// newShardStack dials the group tagged tag ("" for an unsharded cluster)
// under the transport name `name` and builds its client pool.
func newShardStack(name, tag string, servers map[ids.ReplicaID]string, o ShardClientOptions) (*shardStack, error) {
	tr, err := wire.NewTCP(wire.Options{
		Name:  name,
		Group: tag,
		Epoch: nextLoadEpoch(o.EpochDir, name),
		Peers: servers,
		Dial:  o.Dial,
		Logf:  o.Logf,
	})
	if err != nil {
		return nil, err
	}
	members := make([]ids.ReplicaID, 0, len(servers))
	for id := range servers {
		members = append(members, id)
	}
	clock := vclock.NewReal()
	grp := gcs.NewGroup(gcs.Config{
		Clock:     clock,
		Group:     tag,
		Members:   members,
		Transport: tr,
		Local:     []ids.ReplicaID{}, // client-only process: no replicas here
		Logf:      o.Logf,
	})
	st := &shardStack{servers: servers, tr: tr, group: grp}
	// A process hosting no replicas receives no stamped heartbeats and
	// cannot detect a sequencer takeover on its own: poll the members'
	// status instead and install any newer view — AdoptView re-routes and
	// retransmits every pending request to the new sequencer, so in-flight
	// invocations survive the failover.
	st.stopPoll = startViewPoller(tr, grp, servers, o.Logf)
	st.pool = make([]*replica.Client, o.Clients)
	for i := range st.pool {
		st.pool[i] = replica.NewClient(clock, grp, ids.ClientID(o.ClientBase+i+1))
	}
	return st, nil
}

// Ring returns the verified topology.
func (sc *ShardClients) Ring() shard.RingConfig { return sc.ring }

// Shards returns the number of shards.
func (sc *ShardClients) Shards() int { return len(sc.stacks) }

// Counts returns how many routing decisions landed on each shard.
func (sc *ShardClients) Counts() []uint64 { return sc.router.Counts() }

// Invoke routes key to its shard and performs one invocation on the
// slot-th pooled client (slot wraps modulo the pool size), retrying
// fast-fail no-sequencer windows until deadline — a view change
// mid-request costs a backoff, not an error.
func (sc *ShardClients) Invoke(slot int, key uint64, deadline time.Time,
	method string, args []lang.Value) (lang.Value, time.Duration, int, error) {
	cl := sc.stacks[sc.router.Route(key)].pool[slot%sc.clients]
	return invokeWithRetry(cl, sc.logf, deadline, method, args)
}

// Submit routes every call by its key and broadcasts each shard's share
// as ONE atomic wire frame on that shard's slot-th pooled client, without
// waiting for replies. It returns one Pending per call, in call order.
func (sc *ShardClients) Submit(slot int, calls []Call) []Pending {
	out := make([]Pending, len(calls))
	byShard := make([][]int, len(sc.stacks))
	for i, c := range calls {
		k := sc.router.Route(c.Key)
		out[i].Shard = k
		byShard[k] = append(byShard[k], i)
	}
	for k, idx := range byShard {
		if len(idx) == 0 {
			continue
		}
		batch := make([]replica.Call, len(idx))
		for j, i := range idx {
			batch[j] = replica.Call{Method: calls[i].Method, Args: calls[i].Args}
		}
		for j, p := range sc.stacks[k].pool[slot%sc.clients].InvokeBatch(batch) {
			out[idx[j]].Waiter = p
		}
	}
	return out
}

// Statuses polls shard k's replicas' control endpoints (ascending id).
func (sc *ShardClients) Statuses(k int) ([]Status, error) {
	st := sc.stacks[k]
	return pollStatuses(st.tr, st.servers)
}

// Close tears every shard's client stack down.
func (sc *ShardClients) Close() {
	for _, st := range sc.stacks {
		if st != nil {
			st.close()
		}
	}
}
