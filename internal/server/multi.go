package server

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"detmt/internal/ids"
	"detmt/internal/shard"
)

// MultiOptions configures a multi-tenant server process: one tenant
// replica per shard, all hosted in this OS process. The layout is
// symmetric (shard.SymmetricConfig): every member process derives
// identical per-shard addresses from the base addresses alone, so the
// processes — and every router — agree on the ring without exchanging
// it.
type MultiOptions struct {
	// Template is the per-tenant configuration. ID is this process's
	// member id; Listen is its BASE address (shard k listens at base
	// port + k) and Peers maps the other members to their base
	// addresses. Listener overrides are not supported — the symmetric
	// layout needs derivable ports. DataDir, when set, gets a per-shard
	// subdirectory. Backend/Group/RingBlob/OnShards/IdemPrefix are
	// owned by the multi-server and must be left zero.
	Template Options
	// Shards is the number of independent sequencer groups (>= 1).
	Shards int
	// RingSeed drives virtual-node placement (must agree across
	// members; 0 is a valid seed).
	RingSeed uint64
	// RingVersion is the config generation (0: 1).
	RingVersion uint64
	// XShard wires cross-shard nested invocations: the lowest member
	// hosts one gateway per shard (at base port + Shards + k), each
	// tenant's nested-call backend becomes the NEXT shard's gateway,
	// and idempotency keys are namespaced "shard:g<k>:...". Off, nested
	// calls keep the template's Backend (or the in-process echo).
	XShard bool
	// EpochDir persists the gateways' wire-epoch counters ("": the
	// shared temp-dir default).
	EpochDir string
}

// MultiStatus is the "shards" control reply: every tenant's status in
// one JSON document, ascending shard id.
type MultiStatus struct {
	Shards []Status `json:"shards"`
}

// MultiServer hosts one replica per shard (plus, on the lowest member,
// the cross-shard gateways) in a single OS process.
type MultiServer struct {
	ring shard.RingConfig
	blob []byte

	mu       sync.Mutex      // guards tenants during startup: a "shards" query can race construction
	tenants  []*Server       // index = shard id
	gateways []*ShardGateway // nil entries when not hosted here
}

// NewMulti derives the symmetric ring config, starts one tenant Server
// per shard, and — when XShard is on and this process is the lowest
// member — the per-shard gateways.
func NewMulti(o MultiOptions) (*MultiServer, error) {
	if o.Shards < 1 {
		return nil, fmt.Errorf("multi: need at least one shard")
	}
	t := o.Template
	if t.Listener != nil {
		return nil, fmt.Errorf("multi: Listener overrides are not supported (ports must be derivable)")
	}
	if t.Group != "" || t.RingBlob != nil || t.OnShards != nil || t.IdemPrefix != "" {
		return nil, fmt.Errorf("multi: Template.Group/RingBlob/OnShards/IdemPrefix are owned by the multi-server")
	}
	if o.XShard && t.Backend != "" {
		return nil, fmt.Errorf("multi: XShard replaces Template.Backend; set one or the other")
	}
	if o.XShard && t.KV != nil {
		// The cross-shard gateways drive the Fig. 1 method into their
		// target shard; the KV object does not host it.
		return nil, fmt.Errorf("multi: XShard gateways drive the Fig. 1 workload; incompatible with KV")
	}
	version := o.RingVersion
	if version == 0 {
		version = 1
	}

	bases := map[ids.ReplicaID]string{t.ID: t.Listen}
	for id, addr := range t.Peers {
		bases[id] = addr
	}
	cfg, err := shard.SymmetricConfig(version, o.RingSeed, 0, o.Shards, bases, o.XShard)
	if err != nil {
		return nil, err
	}
	blob, err := shard.Encode(cfg)
	if err != nil {
		return nil, err
	}
	members := make([]ids.ReplicaID, 0, len(bases))
	for id := range bases {
		members = append(members, id)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	lowest := members[0]

	m := &MultiServer{ring: cfg, blob: blob}
	fail := func(err error) (*MultiServer, error) {
		m.Close()
		return nil, err
	}

	// Gateways first: a tenant whose workload makes nested calls may
	// start performing as soon as load arrives, and its backend client
	// redials with backoff — starting the gateways early just shortens
	// the first call. Only the lowest member hosts them: every source
	// shard's performers must share ONE idempotency cache per target
	// shard, or a failover re-perform landing on a different cache
	// would double-apply.
	m.gateways = make([]*ShardGateway, o.Shards)
	if o.XShard && t.ID == lowest {
		for k := 0; k < o.Shards; k++ {
			g := cfg.Groups[k]
			gw, err := NewShardGateway(GatewayOptions{
				Group:    groupTag(k),
				Listen:   g.Backend,
				Members:  g.Members,
				Workload: t.Workload,
				EpochDir: o.EpochDir,
				Dial:     t.Dial,
				Logf:     t.Logf,
			})
			if err != nil {
				return fail(fmt.Errorf("multi: gateway for shard %d: %w", k, err))
			}
			m.gateways[k] = gw
		}
	}

	for k := 0; k < o.Shards; k++ {
		to := t
		to.Group = groupTag(k)
		to.RingBlob = blob
		to.OnShards = m.shardsJSON
		to.Listen = cfg.Groups[k].Members[t.ID]
		to.Peers = make(map[ids.ReplicaID]string, len(t.Peers))
		for id := range t.Peers {
			to.Peers[id] = cfg.Groups[k].Members[id]
		}
		if t.DataDir != "" {
			to.DataDir = filepath.Join(t.DataDir, "shard"+strconv.Itoa(k))
		}
		if o.XShard {
			// Cross-shard topology: shard k's nested calls go INTO the
			// next shard around the ring — every shard is both a caller
			// and a callee, so one soak exercises the whole mesh.
			to.Backend = cfg.Groups[(k+1)%o.Shards].Backend
			to.IdemPrefix = "shard:" + groupTag(k)
		}
		srv, err := New(to)
		if err != nil {
			return fail(fmt.Errorf("multi: shard %d: %w", k, err))
		}
		m.mu.Lock()
		m.tenants = append(m.tenants, srv)
		m.mu.Unlock()
	}
	return m, nil
}

// groupTag names shard k's group ("g0", "g1", ...).
func groupTag(k int) string { return "g" + strconv.Itoa(k) }

// Ring returns the derived ring config.
func (m *MultiServer) Ring() shard.RingConfig { return m.ring }

// RingBlob returns the serialized ring config every tenant serves.
func (m *MultiServer) RingBlob() []byte { return append([]byte(nil), m.blob...) }

// Tenant returns the shard-k replica Server.
func (m *MultiServer) Tenant(k int) *Server { return m.tenants[k] }

// Tenants returns the number of hosted shards.
func (m *MultiServer) Tenants() int { return len(m.tenants) }

// Gateway returns the gateway fronting shard k (nil when this process
// does not host it).
func (m *MultiServer) Gateway(k int) *ShardGateway { return m.gateways[k] }

// Status snapshots every tenant, ascending shard id.
func (m *MultiServer) Status() MultiStatus {
	m.mu.Lock()
	tenants := append([]*Server(nil), m.tenants...)
	m.mu.Unlock()
	st := MultiStatus{Shards: make([]Status, 0, len(tenants))}
	for _, s := range tenants {
		st.Shards = append(st.Shards, s.Status())
	}
	return st
}

// shardsJSON serves the "shards" control query on every tenant's port.
func (m *MultiServer) shardsJSON() []byte {
	return marshalControl(m.Status())
}

// Close shuts the process down in dependency order, returning the first
// error. Cross-shard traffic must stop BEFORE any target shard tears
// down, or in-flight nested calls during shutdown would count spurious
// breaker trips and timeouts into the shutdown totals: first detach
// every tenant's backend client (new performs fail fast with
// backend.ErrClosed), then drain the gateways (their backend servers
// wait out in-flight handlers, whose target shards are all still alive),
// and only then close the tenants.
func (m *MultiServer) Close() error {
	var first error
	for _, s := range m.tenants {
		s.DetachBackend()
	}
	for _, gw := range m.gateways {
		if gw == nil {
			continue
		}
		if err := gw.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, s := range m.tenants {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
