// Package server hosts one detmt replica behind the TCP transport — the
// deployment mode that takes the system out of the simulator. Each
// process runs its replica inside a *paced* virtual clock: the sequencer
// process sequences forwarded requests as they arrive, stamps
// every sequenced message with a virtual delivery deadline, and all
// members inject messages at exactly their stamped instants. Replicas
// therefore execute identical virtual schedules — the determinism the
// paper's strategies need — while virtual time itself is paced against
// the wall clock, so a cluster of real processes makes real-time
// progress.
package server

import (
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"detmt/internal/analysis"
	"detmt/internal/backend"
	"detmt/internal/earlysched"
	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/member"
	"detmt/internal/recovery"
	"detmt/internal/replica"
	"detmt/internal/vclock"
	"detmt/internal/wire"
	"detmt/internal/workload"
)

// Options configures one replica server process.
type Options struct {
	// ID is this process's replica id (must appear in the membership).
	ID ids.ReplicaID
	// Group tags this replica with its shard ("g0", "g1", ...) in a
	// sharded deployment. The tag travels in every wire hello — peers
	// and clients of a different group are rejected at handshake — and
	// shows up in Status and log prefixes. "" for single-group clusters.
	Group string
	// RingBlob is the serialized shard-ring config (shard.Encode) this
	// process serves to "ring" control queries, so routers can fetch the
	// topology from any member and verify every member agrees. nil for
	// single-group clusters.
	RingBlob []byte
	// OnShards, when set, serves "shards" control queries with a
	// combined multi-tenant status document (the MultiServer installs
	// it on every hosted tenant, so any shard's port answers for the
	// whole process).
	OnShards func() []byte
	// IdemPrefix namespaces the idempotency keys of nested calls
	// presented to the backend (see replica.Config.IdemPrefix; "" means
	// "nested"). Sharded deployments use "shard:<group>" so one gateway
	// cache serves many source shards without key collisions.
	IdemPrefix string
	// Listen is the TCP address to accept peer and client connections on.
	// Listener, if non-nil, overrides it (tests bind port 0 up front).
	Listen   string
	Listener net.Listener
	// Peers maps every OTHER member's replica id to its address. The
	// boot membership is sorted(keys(Peers) + ID); the lowest member is
	// the initial sequencer (and LSA leader) and its process runs the
	// stamped sequencing tick loop. At runtime the membership can
	// change: AddReplica/RemoveReplica/ReplaceReplica changes proposed
	// through any member ride the total order and activate on every
	// replica at the same slot (see internal/member).
	Peers map[ids.ReplicaID]string
	// Learner starts this process as a catch-up learner joining a live
	// cluster: its own id is NOT part of the voter set (Peers lists the
	// current voters), it bootstraps through the recovery path (implies
	// Recover), receives the sequenced fan-out once its AddReplica
	// change is delivered, and is promoted to voter at that change's
	// activation slot. cmd/detmt-server's -join flag sets this up.
	Learner bool
	// Scheduler selects the deterministic multithreading strategy.
	Scheduler replica.SchedulerKind
	// Workload parameterises the Fig. 1 benchmark object every server
	// hosts. All members must agree on it.
	Workload workload.Fig1Config
	// NestedLatency is the virtual duration of the external service call
	// (performed by the lowest live member only).
	NestedLatency time.Duration
	// Backend is the address of a detmt-backend process serving nested
	// invocations over TCP. "" keeps the in-process echo backend. Only
	// the performer dials it; its failures surface as deterministic
	// nested-call outcomes, never as divergence.
	Backend string
	// NestedTimeout/NestedRetries tune the per-call deadline and retry
	// budget against the backend (zero values apply the replica defaults:
	// 2s, 2 retries).
	NestedTimeout time.Duration
	NestedRetries int
	// BreakerThreshold/BreakerCooldown tune the nested-call circuit
	// breaker (defaults: 5 consecutive transport failures, 2s cooldown).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Tick and Budget configure stamped sequencing (see gcs.Config).
	Tick   time.Duration
	Budget time.Duration

	// PDSWindow is the PDS pool size (0: the replica default, 4) and
	// PDSRelaxed drops PDS's full-pool barrier requirement; both only
	// matter under scheduler PDS (see replica.Config).
	PDSWindow  int
	PDSRelaxed bool
	// CheckpointEvery takes a local deterministic checkpoint at the first
	// quiescent point after every N completed requests (0: never). Every
	// member takes it at the same slot; it is kept (with DataDir, also
	// persisted) and served to rejoiners. Nothing is broadcast: the server
	// sets the replica's CheckpointSink, which replaces passive
	// replication's StateUpdate.
	CheckpointEvery int

	// Families switches the hosted object to the family-partitioned
	// low-conflict workload (workload.FamiliesSource) instead of Fig. 1.
	// All members and the load generator must agree on it.
	Families *workload.FamilyConfig
	// KV switches the hosted object to the bucketed key/value store that
	// backs the HTTP facade (workload.KVSource). Mutually exclusive with
	// Families; all members and every front end must agree on it.
	KV *workload.KVConfig
	// EarlySched enables conflict-class early scheduling: the sequencing
	// process stamps every request's conflict class into the envelope
	// (wire v5) and the replica admits distinct classes through
	// concurrent scheduler lanes. Only MAT, MAT+LLA and PDS support it.
	EarlySched bool
	// Lanes is the classifier's lane count (0: 4).
	Lanes int

	// TraceRetention bounds the number of scheduler trace events kept in
	// memory; older events are dropped (the decision/consistency hashes
	// remain exact over the full history — they are maintained
	// incrementally at record time). 0 applies DefaultTraceRetention;
	// negative keeps the trace unbounded. Retention does not affect the
	// schedule itself, only how much history a status/replay query can
	// see, so members need not agree on it.
	TraceRetention int

	// DetectTimeout is the sequencer-silence window of the failure
	// detector (0 applies the gcs default, 50ms). Deployments on flaky
	// links raise it: a partition shorter than this window never deposes
	// a live sequencer, and a follower partitioned for less than it
	// rejoins the stream without a view change.
	DetectTimeout time.Duration

	// DataDir persists checkpoints and the restart-epoch counter for
	// crash recovery. "" keeps checkpoints in memory only (the process
	// can still act as a catch-up donor, but cannot bump its own epoch
	// across restarts — pass Epoch explicitly then).
	DataDir string
	// Epoch is this incarnation's restart epoch for the transport
	// handshake. 0 with a DataDir derives the next epoch from the
	// persisted counter; 0 without one disables epoch semantics.
	Epoch uint64
	// Recover starts the server in recovery mode: live traffic is
	// buffered while the latest checkpoint and the sequenced tail are
	// fetched from a peer, replayed at their original virtual stamps,
	// and only then does the replica go live — with a trace hash
	// bit-identical to the survivors'. Requires a running peer.
	Recover bool
	// GossipInterval is the period of the consistency-hash gossip used
	// for divergence detection (0 applies DefaultGossipInterval).
	GossipInterval time.Duration

	// OriginIdleExpiry bounds how long the transport retains the
	// reply-replay ring of a disconnected client origin (see
	// wire.Options.OriginIdleExpiry). 0 applies DefaultOriginIdleExpiry.
	OriginIdleExpiry time.Duration

	// Dial overrides the transport dialer (chaos fault injection).
	Dial func(addr string) (net.Conn, error)
	// OnChaos, if set, serves "chaos <cmd>" control requests (the fault
	// injection hooks wired up by cmd/detmt-server).
	OnChaos func(cmd string) []byte

	// Logf, if set, receives transport diagnostics.
	Logf func(format string, args ...interface{})
}

// DefaultGossipInterval is the divergence-gossip period applied when
// Options leaves GossipInterval at zero.
const DefaultGossipInterval = 250 * time.Millisecond

// DefaultOriginIdleExpiry is the reply-replay retention for
// disconnected client origins applied when Options leaves
// OriginIdleExpiry at zero: long enough for any realistic client
// reconnect, short enough that churning one-shot load generators do not
// grow the server's memory without bound.
const DefaultOriginIdleExpiry = 10 * time.Minute

// DefaultTraceRetention is the trace bound applied when Options leaves
// TraceRetention at zero: enough history for post-mortem timelines while
// keeping a long-running server's memory flat (~64k events, rounded up
// to whole trace chunks).
const DefaultTraceRetention = 1 << 16

// Status is the control-protocol snapshot served to "status" queries.
type Status struct {
	ID        ids.ReplicaID `json:"id"`
	Scheduler string        `json:"scheduler"`
	// Shard is the replica's group tag in a sharded deployment (empty
	// for single-group clusters).
	Shard string `json:"shard,omitempty"`
	// View/Sequencer identify the sequencing view this member is in and
	// which replica sequences it (the view number increments at every
	// takeover).
	View      uint64        `json:"view"`
	Sequencer ids.ReplicaID `json:"sequencer"`
	Completed int           `json:"completed"`
	Hash      uint64        `json:"hash"`
	State     int64         `json:"state"`
	NowVirtMs float64       `json:"now_virt_ms"`
	// TraceRetained/TraceDropped report the bounded trace window: how
	// many events are in memory and how many older ones were discarded.
	// Hash stays exact over the full history either way.
	TraceRetained int    `json:"trace_retained"`
	TraceDropped  uint64 `json:"trace_dropped"`
	// Recovery is the crash-recovery state: "recovering" while the
	// replica is installing a checkpoint and replaying the sequenced
	// tail, "caught_up" once live, "halted" after divergence detection
	// froze it.
	Recovery string `json:"recovery"`
	// LastCheckpointSeq/CheckpointAgeMs describe the latest local
	// deterministic checkpoint (0 / negative age when none was taken).
	LastCheckpointSeq uint64  `json:"last_checkpoint_seq"`
	CheckpointAgeMs   float64 `json:"checkpoint_age_ms"`
	// GossipLagSeqs is the largest slot distance between this replica's
	// divergence-point ring and any peer's, as of the last gossip round.
	GossipLagSeqs uint64 `json:"gossip_lag_seqs"`
	// ReplayedTail counts the sequenced envelopes replayed during
	// recovery (0 unless the server was started with Recover).
	ReplayedTail int `json:"replayed_tail"`
	// Nested reports the external-service boundary: performed outcomes,
	// retries, error/timeout/fast-fail counts, re-performs after a
	// takeover, circuit-breaker state, and call latency.
	Nested replica.NestedMetrics `json:"nested"`
	// Membership is the slot-indexed configuration this member considers
	// active: epoch, config hash, voters, learners and pending changes.
	Membership *member.Snapshot `json:"membership,omitempty"`
	// Classes reports the class-aware admission counters (nil unless the
	// server runs with EarlySched).
	Classes *ClassStatus `json:"classes,omitempty"`
	// Sequencing reports what this process's sequencing loop did while it
	// hosted the sequencer (all zero on a process that never did).
	Sequencing gcs.SequencerStats `json:"sequencing"`
	// Diagnostic carries the divergence diff after a halt.
	Diagnostic string `json:"diagnostic,omitempty"`
}

// ClassStatus is the early-scheduling slice of Status: how the
// class-aware admission split the request stream across lanes.
type ClassStatus struct {
	// ActiveClasses counts the distinct conflict classes currently live.
	ActiveClasses int `json:"active_classes"`
	// Escalations counts requests stamped with the conservative global
	// class (serialised against everything via the merge barrier).
	Escalations uint64 `json:"escalations"`
	// MergeStalls counts grants deferred by the merge barrier.
	MergeStalls uint64 `json:"merge_stalls"`
	// ParallelCommits/SerialCommits split completed requests by whether
	// they ran in a non-global lane; ParallelRatio is their ratio.
	ParallelCommits uint64  `json:"parallel_commits"`
	SerialCommits   uint64  `json:"serial_commits"`
	ParallelRatio   float64 `json:"parallel_commit_ratio"`
}

// Server is one running replica process.
type Server struct {
	o       Options
	clock   *vclock.Virtual
	tr      *wire.TCP
	group   *gcs.Group
	rep     *replica.Replica
	mgr     *recovery.Manager
	memb    *member.Tracker
	backend backend.ExternalBackend // non-nil when Options.Backend is set

	stop     chan struct{}
	stopOnce sync.Once
	beats    atomic.Uint64 // sequencer heartbeats received (counted while Recover; see beatTap)

	stateMu    sync.Mutex
	ready      bool // group/replica fully constructed (callback guard)
	recState   string
	wasMember  bool // self was in the last active config (removal = member→non-member)
	replayed   int
	gossipLag  uint64
	diagnostic string
}

// New builds and starts the server: transport first (so the membership
// can connect), then the group and replica on a paced virtual clock.
func New(o Options) (*Server, error) {
	if o.Scheduler == "" {
		o.Scheduler = replica.KindMAT
	}
	if o.Workload.Iterations == 0 {
		o.Workload = workload.DefaultFig1()
	}
	if o.EarlySched {
		switch o.Scheduler {
		case replica.KindMAT, replica.KindMATLLA, replica.KindPDS:
		default:
			return nil, fmt.Errorf("server: early scheduling needs MAT, MAT+LLA or PDS, not %s", o.Scheduler)
		}
	}
	if o.Families != nil && o.KV != nil {
		return nil, fmt.Errorf("server: Families and KV workloads are mutually exclusive")
	}
	src := workload.Fig1Source(o.Workload)
	switch {
	case o.Families != nil:
		src = workload.FamiliesSource(*o.Families)
	case o.KV != nil:
		src = workload.KVSource(*o.KV)
	}
	res := analysis.MustAnalyze(lang.MustParse(src))
	if o.NestedLatency == 0 {
		o.NestedLatency = 12 * time.Millisecond
	}
	if o.Learner {
		// A learner can only materialise by catching up with the live
		// stream it missed; there is no fresh-start learner.
		o.Recover = true
	}
	var members []ids.ReplicaID
	if !o.Learner {
		members = append(members, o.ID)
	}
	for id := range o.Peers {
		if id == o.ID {
			return nil, fmt.Errorf("server: peer map contains own id %v", o.ID)
		}
		members = append(members, id)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("server: a learner needs at least one voter peer")
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })

	if o.Epoch == 0 && o.DataDir != "" {
		epoch, err := recovery.NextEpoch(o.DataDir)
		if err != nil {
			return nil, fmt.Errorf("server: epoch counter: %v", err)
		}
		o.Epoch = epoch
	}

	s := &Server{
		o:        o,
		clock:    vclock.NewVirtual(),
		mgr:      recovery.NewManager(o.DataDir),
		stop:     make(chan struct{}),
		recState: "caught_up",
	}
	if o.Recover {
		s.recState = "recovering"
	}
	// The boot membership config (epoch 0, slot 0). A joiner's tracker
	// is reseeded from a donor snapshot during recovery; everyone else's
	// evolves only through ordered ConfigChange deliveries, so all
	// trackers agree at every slot.
	selfAddr := o.Listen
	if o.Listener != nil {
		selfAddr = o.Listener.Addr().String()
	}
	mm := make([]member.Member, 0, len(members))
	for _, id := range members {
		addr := o.Peers[id]
		if id == o.ID {
			addr = selfAddr
		}
		mm = append(mm, member.Member{ID: id, Addr: addr})
	}
	s.memb = member.NewTracker(member.Config{Members: mm}, 0)
	s.wasMember = !o.Learner // a learner's boot config excludes itself
	// The sequencer process leads the virtual timeline (unbounded
	// horizon); followers advance only up to the stamps and heartbeats
	// it publishes. Pacing must be on before the group starts its tick
	// loop, or virtual time would sprint ahead of the wall clock. A
	// recovering process always starts as a paced follower — even the
	// cluster's original sequencer rejoins under whoever sequences the
	// current view (PromoteLeader reopens the horizon if a later
	// takeover elects this process).
	s.clock.EnablePacing(o.ID == members[0] && !o.Recover)

	idByName := make(map[string]ids.ReplicaID, len(o.Peers))
	for id := range o.Peers {
		idByName[id.String()] = id
	}
	expiry := o.OriginIdleExpiry
	if expiry <= 0 {
		expiry = DefaultOriginIdleExpiry
	}
	tr, err := wire.NewTCP(wire.Options{
		Name:      o.ID.String(),
		Group:     o.Group,
		Listen:    o.Listen,
		Listener:  o.Listener,
		Peers:     o.Peers,
		Epoch:     o.Epoch,
		OnControl: s.handleControl,
		OnPeerUp: func(name string) {
			id, ok := idByName[name]
			if !ok {
				// Dynamically added peers are not in the boot map; their
				// wire names are canonical ("R<id>").
				if !strings.HasPrefix(name, "R") {
					return
				}
				n, err := strconv.Atoi(strings.TrimPrefix(name, "R"))
				if err != nil || n <= 0 {
					return
				}
				id = ids.ReplicaID(n)
			}
			s.stateMu.Lock()
			ready := s.ready
			s.stateMu.Unlock()
			if ready {
				s.group.Revive(id)
			}
		},
		OriginIdleExpiry: expiry,
		Dial:             o.Dial,
		Logf:             o.Logf,
	})
	if err != nil {
		return nil, err
	}
	s.tr = tr

	var learners []ids.ReplicaID
	if o.Learner {
		// This process rides outside the voter set until its AddReplica
		// change activates; the group still builds it a local node so it
		// can consume the sequenced fan-out.
		learners = []ids.ReplicaID{o.ID}
	}
	var transport gcs.Transport = tr
	if o.Recover {
		transport = beatTap{tr, &s.beats}
	}
	gcfg := gcs.Config{
		Clock:         s.clock,
		Group:         o.Group,
		Members:       members,
		Transport:     transport,
		Local:         []ids.ReplicaID{o.ID},
		Tick:          o.Tick,
		Budget:        o.Budget,
		Recovering:    o.Recover,
		DetectTimeout: o.DetectTimeout,
		Learners:      learners,
		Logf:          o.Logf,
		FetchGap: func(donor ids.ReplicaID, from uint64, max int) []gcs.Envelope {
			envs, _, _, err := fetchTail(tr, donor, from, max, fetchTimeout)
			if err != nil {
				return nil
			}
			return envs
		},
	}
	if o.EarlySched {
		lanes := o.Lanes
		if lanes <= 0 {
			lanes = 4
		}
		// Classify is pure and built from the shared workload source, so
		// whichever member sequences the current view stamps identical
		// classes.
		cls := earlysched.New(res, lanes)
		gcfg.Classify = func(p gcs.Payload) uint32 {
			switch x := p.(type) {
			case replica.Request:
				return cls.Classify(x.Method, x.Args)
			case replica.Dummy:
				return cls.DummyClass()
			}
			return 0
		}
		if o.Logf != nil {
			o.Logf("earlysched: %s", cls.Describe())
		}
	}
	s.group = gcs.NewGroup(gcfg)
	if o.Backend != "" {
		s.backend = backend.NewClient(backend.ClientOptions{
			Addr: o.Backend,
			Dial: o.Dial, // chaos injection can sever the backend link too
			Logf: o.Logf,
		})
	}
	s.rep = replica.New(replica.Config{
		ID:               o.ID,
		Clock:            s.clock,
		Group:            s.group,
		Analysis:         res,
		Kind:             o.Scheduler,
		PDSWindow:        o.PDSWindow,
		PDSRelaxed:       o.PDSRelaxed,
		EarlySched:       o.EarlySched,
		NestedLatency:    o.NestedLatency,
		Backend:          s.backend, // nil keeps the in-process echo
		NestedTimeout:    o.NestedTimeout,
		NestedRetries:    o.NestedRetries,
		BreakerThreshold: o.BreakerThreshold,
		BreakerCooldown:  o.BreakerCooldown,
		Logf:             o.Logf,
		LeaderID:         members[0],
		CheckpointEvery:  o.CheckpointEvery,
		CheckpointSink:   s.captureCheckpoint,
		IdemPrefix:       o.IdemPrefix,
		OnSlot:           s.onSlot,
		OnConfigChange:   s.onConfigChange,
	})
	switch {
	case o.Families != nil:
		for f := 0; f < o.Families.Families; f++ {
			s.rep.Instance().SetField(fmt.Sprintf("state%d", f), int64(0))
		}
		s.rep.Instance().SetField("gstate", int64(0))
	case o.KV != nil:
		// KVSource declares only `state`; NewInstance zeroed it already
		// and map entries materialise on first write.
		s.rep.Instance().SetField("state", int64(0))
	default:
		s.rep.Instance().SetField("state", int64(0))
		if o.Workload.CatchNested {
			s.rep.Instance().SetField("faults", int64(0))
		}
	}
	retention := o.TraceRetention
	if retention == 0 {
		retention = DefaultTraceRetention
	}
	if retention > 0 {
		s.rep.Runtime().Trace().SetRetention(retention)
	}
	s.stateMu.Lock()
	s.ready = true
	s.stateMu.Unlock()

	if o.Recover {
		go s.runRecovery()
	}
	gossip := o.GossipInterval
	if gossip <= 0 {
		gossip = DefaultGossipInterval
	}
	if len(o.Peers) > 0 {
		go s.runGossip(gossip)
	}
	return s, nil
}

// beatTap is the transport a recovering server's group binds through: the
// TCP endpoint, counting the sequencer heartbeats it delivers. The group
// buffers them unseen until ResumeLive; closeTail needs to know that one
// arrived (recovery.go).
type beatTap struct {
	*wire.TCP
	beats *atomic.Uint64
}

func (t beatTap) Bind(at gcs.Origin, deliver func(...gcs.Envelope)) {
	t.TCP.Bind(at, func(envs ...gcs.Envelope) {
		// A drain's heartbeat rides last in its frame (gcs multicast).
		if n := len(envs); n > 0 && envs[n-1].Kind == gcs.EnvHorizon {
			t.beats.Add(1)
		}
		deliver(envs...)
	})
}

// Addr returns the transport's listen address.
func (s *Server) Addr() string { return s.tr.Addr() }

// Replica exposes the hosted replica (tests).
func (s *Server) Replica() *replica.Replica { return s.rep }

// Transport exposes the TCP endpoint (tests use DropPeer for fault
// injection).
func (s *Server) Transport() *wire.TCP { return s.tr }

// Status snapshots the server's progress.
func (s *Server) Status() Status {
	tr := s.rep.Runtime().Trace()
	s.stateMu.Lock()
	st := Status{
		ID:            s.o.ID,
		Scheduler:     string(s.o.Scheduler),
		Shard:         s.o.Group,
		Completed:     s.rep.Completed(),
		Hash:          tr.ConsistencyHash(),
		NowVirtMs:     float64(s.clock.Now()) / float64(time.Millisecond),
		TraceRetained: tr.Len(),
		TraceDropped:  tr.Dropped(),
		Recovery:      s.recState,
		GossipLagSeqs: s.gossipLag,
		ReplayedTail:  s.replayed,
		Diagnostic:    s.diagnostic,
		Nested:        s.rep.NestedMetrics(),
	}
	s.stateMu.Unlock()
	st.View, st.Sequencer = s.group.CurrentView()
	st.Sequencing = s.group.SequencerStats()
	if c := s.mgr.LatestCheckpoint(); c != nil {
		st.LastCheckpointSeq = c.Seq
		st.CheckpointAgeMs = float64(time.Since(s.mgr.TakenAt())) / float64(time.Millisecond)
	} else {
		st.CheckpointAgeMs = -1
	}
	if s.o.Families != nil {
		for f := 0; f < s.o.Families.Families; f++ {
			if v, ok := s.rep.Instance().GetField(fmt.Sprintf("state%d", f)).(int64); ok {
				st.State += v
			}
		}
		if v, ok := s.rep.Instance().GetField("gstate").(int64); ok {
			st.State += v
		}
	} else if v, ok := s.rep.Instance().GetField("state").(int64); ok {
		st.State = v
	}
	st.Classes = s.classStatus()
	snap := s.memb.Snapshot()
	st.Membership = &snap
	return st
}

// classStatus snapshots the per-class admission counters (nil when the
// replica does not honour stamped classes).
func (s *Server) classStatus() *ClassStatus {
	cs, ok := s.rep.ClassMetrics()
	if !ok {
		return nil
	}
	return &ClassStatus{
		ActiveClasses:   cs.ActiveClasses,
		Escalations:     cs.Escalations,
		MergeStalls:     cs.MergeStalls,
		ParallelCommits: cs.ParallelCommits,
		SerialCommits:   cs.SerialCommits,
		ParallelRatio:   cs.ParallelRatio(),
	}
}

// hashRing is the "hashes" control reply: the replica's divergence-point
// ring (ascending slots).
type hashRing struct {
	ID     ids.ReplicaID      `json:"id"`
	Points []recovery.SeqHash `json:"points"`
}

// errorReply renders err in the control protocol's error shape.
func errorReply(err error) []byte {
	return []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
}

// marshalControl renders a JSON control reply, folding a marshal failure
// into the error shape.
func marshalControl(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return errorReply(err)
	}
	return b
}

// handleControl serves the control protocol, the one request/reply the
// transport offers (DESIGN §3 tabulates the commands): "hashes" returns
// the divergence-point ring, "ring" the shard-ring config blob, "shards"
// the combined multi-tenant status, "members" the membership snapshot,
// "memberchange <json>" proposes a change, "chaos <cmd>" routes to the
// fault injector, "ckpt", "tail <from> <max>" and "decisions <from> <max>"
// are a rejoiner's state transfer (fetch.go), and anything else
// (canonically "status") gets the JSON status snapshot. Nothing is
// served before the group and replica exist.
func (s *Server) handleControl(req []byte) []byte {
	s.stateMu.Lock()
	ready := s.ready
	s.stateMu.Unlock()
	if !ready {
		return []byte(`{"error":"starting"}`)
	}
	cmd := string(req)
	switch {
	case cmd == "hashes":
		return marshalControl(hashRing{ID: s.o.ID, Points: s.mgr.Points()})
	case cmd == "ring":
		if len(s.o.RingBlob) == 0 {
			return []byte(`{"error":"not sharded"}`)
		}
		// Raw blob, not JSON: the shard codec's own header carries the
		// format version and agreement hash.
		return append([]byte(nil), s.o.RingBlob...)
	case cmd == "shards":
		if s.o.OnShards == nil {
			return []byte(`{"error":"not sharded"}`)
		}
		return s.o.OnShards()
	case cmd == "members":
		return marshalControl(s.memb.Snapshot())
	case strings.HasPrefix(cmd, "memberchange "):
		var ch member.Change
		if err := json.Unmarshal([]byte(strings.TrimPrefix(cmd, "memberchange ")), &ch); err != nil {
			return errorReply(err)
		}
		if err := s.ProposeChange(ch); err != nil {
			return errorReply(err)
		}
		return []byte(`{"proposed":true}`)
	case cmd == "ckpt":
		return s.serveCheckpoint()
	case strings.HasPrefix(cmd, "tail "), strings.HasPrefix(cmd, "decisions "):
		var verb string
		var from uint64
		var max int
		if _, err := fmt.Sscanf(cmd, "%s %d %d", &verb, &from, &max); err != nil {
			return errorReply(fmt.Errorf("%q: want <from> <max>: %v", cmd, err))
		}
		if verb == "tail" {
			return s.serveTail(from, max)
		}
		return s.serveDecisions(from, max)
	case strings.HasPrefix(cmd, "chaos "):
		if s.o.OnChaos == nil {
			return []byte(`{"error":"chaos not enabled"}`)
		}
		return s.o.OnChaos(strings.TrimPrefix(cmd, "chaos "))
	default:
		return marshalControl(s.Status())
	}
}

// Checkpoints exposes the recovery manager (tests, bench harness).
func (s *Server) Checkpoints() *recovery.Manager { return s.mgr }

// DetachBackend closes this server's nested-call backend link ahead of
// the rest of the shutdown sequence. Any nested call still in flight (or
// performed after the detach) fails with backend.ErrClosed, which the
// replica accounts as a shutdown artefact — no breaker trips, no timeout
// counts. Multi-tenant shutdown uses this to quiesce all cross-shard
// traffic BEFORE any target shard tears down. Safe to call more than
// once and concurrently with Close (the backend client is idempotent).
func (s *Server) DetachBackend() {
	if s.backend != nil {
		s.backend.Close()
	}
}

// Close shuts the backend link, the group, and the transport down — in
// that order, so in-flight nested calls fail fast with backend.ErrClosed
// instead of burning real-time timeouts against a vanishing peer. A
// server running class-aware admission logs its lane counters on the way
// out, so a shutdown transcript records how much of the stream ran
// parallel.
func (s *Server) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	if s.o.Logf != nil {
		ms := s.memb.Snapshot()
		s.o.Logf("member: shutdown: epoch=%d config=%s voters=%d learners=%d pending=%d",
			ms.Epoch, ms.Hash, len(ms.Voters), len(ms.Learners), len(ms.Pending))
		if cs := s.classStatus(); cs != nil {
			s.o.Logf("earlysched: shutdown: active_classes=%d escalations=%d merge_stalls=%d parallel=%d serial=%d parallel_ratio=%.2f",
				cs.ActiveClasses, cs.Escalations, cs.MergeStalls, cs.ParallelCommits, cs.SerialCommits, cs.ParallelRatio)
		}
	}
	s.DetachBackend()
	return s.group.Close()
}
