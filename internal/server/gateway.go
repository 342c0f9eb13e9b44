package server

import (
	"fmt"
	"hash/fnv"
	"net"
	"time"

	"detmt/internal/backend"
	"detmt/internal/chaos"
	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/workload"
)

// GatewayClientBase is the client-id base of gateway loopback clients:
// far above any realistic load-generator range, so gateway-submitted
// requests can never collide with a client's (client, seq) identity in
// the target shard's duplicate suppression.
const GatewayClientBase = 1 << 20

// GatewayOptions configures one cross-shard gateway: a backend.Server
// that fronts a target shard as an external service.
type GatewayOptions struct {
	// Group is the target shard's group tag ("g2"). The gateway's wire
	// transport carries it, so a misconfigured gateway cannot splice
	// into the wrong shard.
	Group string
	// Listen/Listener bind the backend-protocol endpoint that source
	// shards' performers dial.
	Listen   string
	Listener net.Listener
	// Members maps the target shard's member ids to their (per-shard)
	// addresses.
	Members map[ids.ReplicaID]string
	// Workload parameterises the requests the gateway submits into the
	// target shard. PNested is forced to zero: a gateway-submitted
	// request must not itself fan out another cross-shard call, or a
	// cycle in the shard graph would recurse without bound.
	Workload workload.Fig1Config
	// ClientID is the loopback client identity (0: GatewayClientBase +
	// the target group's numeric suffix, when parseable, else
	// GatewayClientBase).
	ClientID ids.ClientID
	// CacheSize bounds the idempotency cache (see backend.ServerOptions).
	CacheSize int
	// Faults optionally wires chaos injection into the gateway.
	Faults *chaos.Faults
	// EpochDir persists the gateway's wire-epoch counter (see
	// ShardClientOptions.EpochDir).
	EpochDir string
	// RetryDeadline bounds the handler's ErrNoSequencer retry loop while
	// the target shard elects a sequencer (default 30s).
	RetryDeadline time.Duration
	// Dial overrides the transport dialer (chaos).
	Dial func(addr string) (net.Conn, error)

	Logf func(format string, args ...interface{})
}

// ShardGateway fronts one shard as an external service. Source shards
// configure its address as their nested-call Backend, so cross-shard
// nested invocations inherit the whole external-service contract —
// retry policy, circuit breaker, and exactly-once via the idempotency
// cache — without any new protocol. The handler translates each unique
// idempotency key into exactly one request submitted into the target
// shard through a loopback client; replayed keys (performer retries,
// failover re-performs in the SOURCE shard) are answered from the cache
// and never reach the target shard twice.
//
// All of a source shard's potential performers must dial the SAME
// gateway (the ring config pins one address per target shard): the
// cache is what de-duplicates a re-perform after a performer kill, and
// it only can if the new performer hits the same cache. A gateway-host
// death therefore degrades cross-shard calls to deterministic
// NestedTimeout outcomes — deterministic, but unavailable — until the
// host returns.
type ShardGateway struct {
	o  GatewayOptions
	bs *backend.Server
	st *shardStack // the loopback client stack into the target shard
}

// NewShardGateway builds the loopback client into the target shard and
// starts the backend-protocol listener.
func NewShardGateway(o GatewayOptions) (*ShardGateway, error) {
	if len(o.Members) == 0 {
		return nil, fmt.Errorf("gateway: no target members")
	}
	if o.Group == "" {
		return nil, fmt.Errorf("gateway: target group tag required")
	}
	if o.Workload.Iterations == 0 {
		o.Workload = workload.DefaultFig1()
	}
	o.Workload.PNested = 0 // bound cross-shard depth at 1
	if o.RetryDeadline <= 0 {
		o.RetryDeadline = 30 * time.Second
	}
	if o.ClientID == 0 {
		o.ClientID = GatewayClientBase
		var suffix int
		if _, err := fmt.Sscanf(o.Group, "g%d", &suffix); err == nil {
			o.ClientID += ids.ClientID(suffix)
		}
	}

	// Like any client-only process, the gateway sees no stamped
	// heartbeats: the stack's view poller keeps in-flight cross-shard calls
	// alive across a target-shard sequencer failover.
	st, err := newShardStack("xsg-"+o.Group, o.Group, o.Members, ShardClientOptions{
		Clients: 1, ClientBase: int(o.ClientID) - 1, EpochDir: o.EpochDir, Dial: o.Dial, Logf: o.Logf,
	})
	if err != nil {
		return nil, err
	}
	gw := &ShardGateway{o: o, st: st}

	bs, err := backend.NewServer(backend.ServerOptions{
		Listen:    o.Listen,
		Listener:  o.Listener,
		Handler:   gw.handle,
		Faults:    o.Faults,
		CacheSize: o.CacheSize,
		Logf:      o.Logf,
	})
	if err != nil {
		st.close()
		return nil, err
	}
	gw.bs = bs
	return gw, nil
}

// handle is the backend handler: one unique idempotency key becomes
// exactly one request into the target shard. The request's arguments
// are a deterministic function of the key (and the caller's argument),
// so a re-run after a gateway restart — the one case the cache cannot
// cover — would at least submit identical work.
func (gw *ShardGateway) handle(key string, arg lang.Value) (lang.Value, error) {
	seed := fnv.New64a()
	seed.Write([]byte(key))
	if n, ok := arg.(int64); ok {
		var b [8]byte
		for i := 0; i < 8; i++ {
			b[i] = byte(uint64(n) >> (8 * i))
		}
		seed.Write(b[:])
	}
	rng := ids.NewRNG(seed.Sum64())
	args := workload.Fig1Args(gw.o.Workload, rng)

	v, _, _, err := invokeWithRetry(gw.st.pool[0], gw.o.Logf, time.Now().Add(gw.o.RetryDeadline), workload.MethodName, args)
	if err != nil {
		return nil, fmt.Errorf("gateway %s: %v", gw.o.Group, err)
	}
	if v == nil {
		v = arg // the fig1 method returns nothing; echo, like the stub backend
	}
	return v, nil
}

// Addr is the backend-protocol address source shards dial.
func (gw *ShardGateway) Addr() string { return gw.bs.Addr() }

// Backend exposes the underlying backend server (tests assert Applies
// for exactly-once).
func (gw *ShardGateway) Backend() *backend.Server { return gw.bs }

// Close stops the listener and the loopback client.
func (gw *ShardGateway) Close() error {
	err := gw.bs.Close()
	if cerr := gw.st.close(); err == nil {
		err = cerr
	}
	return err
}
