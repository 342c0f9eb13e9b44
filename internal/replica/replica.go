package replica

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"detmt/internal/analysis"
	"detmt/internal/backend"
	"detmt/internal/core"
	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/member"
	"detmt/internal/metrics"
	"detmt/internal/ring"
	"detmt/internal/vclock"
)

// SchedulerKind selects the deterministic multithreading strategy.
type SchedulerKind string

// The strategies surveyed and proposed by the paper.
const (
	KindSEQ    SchedulerKind = "SEQ"
	KindSAT    SchedulerKind = "SAT"
	KindLSA    SchedulerKind = "LSA"
	KindPDS    SchedulerKind = "PDS"
	KindMAT    SchedulerKind = "MAT"
	KindMATLLA SchedulerKind = "MAT+LLA"
	KindPMAT   SchedulerKind = "PMAT"
)

// AllKinds lists every scheduler kind in presentation order.
func AllKinds() []SchedulerKind {
	return []SchedulerKind{KindSEQ, KindSAT, KindLSA, KindPDS, KindMAT, KindMATLLA, KindPMAT}
}

// Role distinguishes active replicas from passive backups.
type Role int

const (
	// RoleActive executes every request (active replication).
	RoleActive Role = iota
	// RoleBackup only logs the totally ordered messages; it executes
	// nothing until a failover replays the log (passive replication).
	RoleBackup
)

// Config parameterises one replica.
type Config struct {
	ID ids.ReplicaID
	// Clock is the replica's virtual clock, paced against wall time in a
	// deployment.
	Clock *vclock.Virtual
	Group *gcs.Group
	// Analysis is the shared static-analysis result (transformed object
	// plus bookkeeping tables); all replicas must use the same one.
	Analysis *analysis.Result
	Kind     SchedulerKind
	Role     Role
	// PDSWindow is the PDS pool size (defaults to 4).
	PDSWindow int
	// PDSRelaxed disables the full-pool barrier requirement (the
	// published algorithm waits for W requests and needs dummy traffic;
	// relaxed mode lets a round open with whatever the pool holds).
	PDSRelaxed bool
	// EarlySched makes the replica honour the conflict class the
	// sequencer stamped on each message (gcs.Message.Class): requests
	// dispatch into the scheduler's per-class lanes (conflict-class early
	// scheduling). Without it every request is admitted to the global
	// class 0 — the same scheduler, one serial lane. Supported for MAT,
	// MAT+LLA and PDS (PDS lanes run relaxed); other kinds panic in New.
	// The group's Config.Classify must be wired to an
	// earlysched.Classifier, or every request is stamped global anyway.
	EarlySched bool
	// NestedLatency is the simulated duration of the external service
	// called by nested invocations (simulator backends only; a blocking
	// backend's latency is whatever the wire delivers).
	NestedLatency time.Duration
	// Backend performs nested invocations on the performing replica.
	// Defaults to an in-process echo (backend.Echo). Only the performer
	// ever invokes it; every other replica learns the outcome from the
	// total order.
	Backend backend.ExternalBackend
	// NestedTimeout bounds one backend attempt (0: 2s).
	NestedTimeout time.Duration
	// NestedRetries is how many retries follow a failed attempt
	// (0: 2; negative disables retries).
	NestedRetries int
	// BreakerThreshold is how many consecutive transport failures trip
	// the nested-call circuit breaker (0: 5; negative: never trips).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker refuses calls before
	// probing the backend again (0: 2s).
	BreakerCooldown time.Duration
	// Logf receives operational diagnostics (nil discards them).
	Logf func(format string, args ...interface{})
	// LeaderID is the LSA leader (defaults to the lowest member).
	LeaderID ids.ReplicaID
	// CheckpointEvery makes an active primary broadcast a StateUpdate
	// checkpoint after every N completed requests, at the next quiescent
	// point (passive replication; 0 disables checkpoints).
	CheckpointEvery int
	// CheckpointSink, when set, replaces the StateUpdate broadcast: at
	// each checkpoint-eligible quiescent point (no request or dummy
	// threads in flight) it is called with the last applied total-order
	// slot. The crash-recovery subsystem uses it to capture local
	// deterministic checkpoints — every replica calls the sink at the
	// same slots with the same quiescent state.
	CheckpointSink func(seq uint64)
	// IdemPrefix namespaces the idempotency keys presented to the
	// backend ("" means "nested", the single-group default). A sharded
	// deployment sets it to "shard:<group>" so one gateway's memoisation
	// cache can serve several source shards without key collisions:
	// request ids are only unique within a group's total order.
	IdemPrefix string
	// OnSlot, when set, is called with every delivered total-order slot
	// before the payload is handled. It runs on the deterministic
	// delivery path (live and replayed alike), which is what lets the
	// membership tracker activate configuration changes at the same
	// slot on every replica.
	OnSlot func(seq uint64)
	// OnConfigChange, when set, receives membership changes delivered
	// through the total order (wire v7 ConfigChange payloads) together
	// with their delivery slot. Like OnSlot it runs on the
	// deterministic delivery path.
	OnConfigChange func(seq uint64, ch member.Change)
}

// Replica is one member of a replicated object group.
type Replica struct {
	cfg   Config
	rt    *core.Runtime
	in    *lang.Instance
	node  *gcs.Node
	sched core.Scheduler

	// seenReqs is the duplicate suppression of the paper's Sect. 2: per
	// client, the request numbers already applied — a client numbers its
	// requests consecutively, so its set is one run. The delivered tail a
	// passive backup fails over from (and E8 replays) is the node's
	// sequenced log after checkpoint.UpToSeq (Log, FailoverData).
	mu          sync.Mutex
	seenReqs    map[ids.ClientID]*ids.Runs
	inFlight    int // request and dummy threads submitted and not yet done
	nestedCount map[ids.ThreadID]int
	waitingNest map[nestedKey]*core.Thread
	nestArgs    map[nestedKey]lang.Value
	stashedNest map[nestedKey]lang.Value
	completed   int
	lastSeq     uint64
	sinceCkpt   int
	checkpoint  *StateUpdate

	follower *core.LSAFollower // non-nil on LSA followers

	// External-service boundary (performer side).
	breaker   *backend.Breaker
	policy    backend.Policy
	nestedLat metrics.SyncSample // wall latency of performed calls
	performed atomic.Uint64      // outcomes this replica broadcast
	retries   atomic.Uint64      // extra backend attempts beyond the first
	appErrs   atomic.Uint64      // NestedErr outcomes
	timeouts  atomic.Uint64      // NestedTimeout outcomes (budget exhausted)
	fastFails atomic.Uint64      // calls refused by the open breaker
	rePerform atomic.Uint64      // calls re-run after performer takeover

	// LSA decision bookkeeping. The leader numbers every emitted decision
	// and retains a bounded log so a rejoining follower can fetch the
	// range it missed; followers track the watermark of the last decision
	// fed to their scheduler and stash out-of-order arrivals.
	decMu    sync.Mutex
	decIndex uint64                   // leader: last emitted index
	decSeen  uint64                   // follower: last index fed
	decStash map[uint64]core.LSAEvent // follower: arrived ahead of the watermark
	// leader: retained tail, indexed by LSADecision.Index
	decLog *ring.Buffer[LSADecision]

	dummyStop chan struct{}
}

type nestedKey struct {
	req ids.RequestID
	n   int
}

// LogEntry is one totally ordered message with its delivery instant,
// recorded for passive-replication replay (E8).
type LogEntry = gcs.Delivery

// New wires a replica to its group node and builds its scheduler.
func New(cfg Config) *Replica {
	if cfg.Analysis == nil {
		panic("replica: Config.Analysis is required")
	}
	if cfg.PDSWindow <= 0 {
		cfg.PDSWindow = 4
	}
	if cfg.EarlySched && cfg.Kind != KindMAT && cfg.Kind != KindMATLLA && cfg.Kind != KindPDS {
		panic(fmt.Sprintf("replica: early scheduling is not supported for %q (use MAT, MAT+LLA or PDS)", cfg.Kind))
	}
	if cfg.Backend == nil {
		cfg.Backend = backend.Echo()
	}
	if cfg.LeaderID == 0 && cfg.Group != nil {
		cfg.LeaderID = cfg.Group.Members()[0]
	}
	r := &Replica{
		cfg:         cfg,
		seenReqs:    map[ids.ClientID]*ids.Runs{},
		nestedCount: map[ids.ThreadID]int{},
		decLog:      ring.New[LSADecision](decLogRetention),
		waitingNest: map[nestedKey]*core.Thread{},
		nestArgs:    map[nestedKey]lang.Value{},
		stashedNest: map[nestedKey]lang.Value{},
		decStash:    map[uint64]core.LSAEvent{},
	}
	threshold := cfg.BreakerThreshold
	if threshold == 0 {
		threshold = 5
	}
	r.breaker = backend.NewBreaker(threshold, cfg.BreakerCooldown)
	r.policy = backend.Policy{
		Timeout: cfg.NestedTimeout,
		Retries: cfg.NestedRetries,
	}
	sched := r.buildScheduler()
	r.sched = sched
	r.rt = core.NewRuntime(core.Options{
		Clock:     cfg.Clock,
		Scheduler: sched,
		Static:    cfg.Analysis.Static,
		Nested:    r.onNested,
	})
	r.in = lang.NewInstance(cfg.Analysis.Object, 0)
	if cfg.Group != nil {
		r.node = cfg.Group.Node(cfg.ID)
		r.node.SetDeliver(r.onDeliver)
		r.node.SetDirect(r.onDirect)
		// Every deployment mode fails the performer role over: the
		// distributed cluster moves it with the sequencer, and the
		// simulator's lowest-live-member rule moves it when a crash is
		// detected — either way the promoted replica must re-perform
		// the nested calls the dead performer left pending.
		cfg.Group.SetOnViewChange(r.onViewChange)
	}
	return r
}

func (r *Replica) buildScheduler() core.Scheduler {
	switch r.cfg.Kind {
	case KindSEQ:
		return core.NewSEQ()
	case KindSAT:
		return core.NewSAT()
	case KindPDS:
		// With classes honoured a lane sees only its own class's requests,
		// so a full pool per lane would starve: lanes run relaxed.
		return core.NewPDS(r.cfg.PDSWindow, !r.cfg.PDSRelaxed && !r.cfg.EarlySched)
	case KindMAT:
		return core.NewMAT(false)
	case KindMATLLA:
		return core.NewMAT(true)
	case KindPMAT:
		return core.NewPMAT()
	case KindLSA:
		if r.cfg.ID == r.cfg.LeaderID {
			return core.NewLSALeader(func(e core.LSAEvent) {
				r.decMu.Lock()
				r.decIndex++
				d := LSADecision{Index: r.decIndex, Event: e}
				if r.decLog.Len() == 0 {
					r.decLog.Reset(d.Index)
				}
				r.decLog.Push(d)
				r.decMu.Unlock()
				r.node.SendDirectToPeers(d)
			})
		}
		r.follower = core.NewLSAFollower()
		return r.follower
	default:
		panic(fmt.Sprintf("replica: unknown scheduler kind %q", r.cfg.Kind))
	}
}

// Runtime exposes the scheduler runtime (for traces and assertions).
func (r *Replica) Runtime() *core.Runtime { return r.rt }

// Instance exposes the object instance (for state assertions).
func (r *Replica) Instance() *lang.Instance { return r.in }

// ID returns the replica id.
func (r *Replica) ID() ids.ReplicaID { return r.cfg.ID }

// IsLSALeader reports whether this replica leads an LSA group.
func (r *Replica) IsLSALeader() bool {
	return r.cfg.Kind == KindLSA && r.cfg.ID == r.cfg.LeaderID
}

// Completed returns how many request threads have finished.
func (r *Replica) Completed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.completed
}

// SetRecovered seeds the replica's progress counters from an installed
// checkpoint, before any replayed traffic is delivered: lastSeq is the
// checkpoint's slot and completed the request count it covered. The
// checkpoint cadence restarts from the checkpoint slot so the rejoiner
// checkpoints at the same future slots as the survivors.
func (r *Replica) SetRecovered(lastSeq uint64, completed int) {
	r.mu.Lock()
	r.lastSeq = lastSeq
	r.completed = completed
	r.sinceCkpt = 0
	r.mu.Unlock()
}

// LastSeq returns the slot of the most recently delivered message.
func (r *Replica) LastSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastSeq
}

// Log returns the retained tail of the totally ordered message log: every
// delivered message since the latest StateUpdate checkpoint that the
// node's sequenced log still holds (the group's SeqRetention).
func (r *Replica) Log() []LogEntry {
	_, log := r.sinceCheckpoint()
	return log
}

// onDeliver handles one totally ordered message.
func (r *Replica) onDeliver(m gcs.Message) {
	r.mu.Lock()
	r.lastSeq = m.Seq
	r.mu.Unlock()
	if r.cfg.OnSlot != nil {
		r.cfg.OnSlot(m.Seq)
	}
	if ch, ok := m.Payload.(member.Change); ok {
		// Membership changes are meta-traffic: they never reach the
		// scheduler or the object, so they perturb neither the thread
		// interleaving nor the consistency hash.
		if r.cfg.OnConfigChange != nil && ch.Kind != member.Pad {
			r.cfg.OnConfigChange(m.Seq, ch)
		}
		return
	}
	if su, ok := m.Payload.(StateUpdate); ok {
		r.applyCheckpoint(su)
		return
	}
	if r.cfg.Role == RoleBackup {
		return // passive backup: log only
	}
	r.apply(m)
}

// applyCheckpoint records (and, on backups, installs) a primary
// checkpoint.
func (r *Replica) applyCheckpoint(su StateUpdate) {
	r.mu.Lock()
	r.checkpoint = &su
	r.mu.Unlock()
	if r.cfg.Role == RoleBackup {
		for k, v := range su.Snapshot {
			r.in.SetField(k, v)
		}
	}
}

// FailoverData returns what a backup needs to take over: the latest
// checkpoint snapshot (nil if none arrived) and the log tail not covered
// by it.
func (r *Replica) FailoverData() (snapshot map[string]lang.Value, tail []LogEntry) {
	ckpt, tail := r.sinceCheckpoint()
	if ckpt != nil {
		snapshot = maps.Clone(ckpt.Snapshot)
	}
	return snapshot, slices.DeleteFunc(tail, func(e LogEntry) bool {
		_, isCkpt := e.Msg.Payload.(StateUpdate)
		return isCkpt
	})
}

// sinceCheckpoint returns the latest checkpoint (nil if none arrived) and
// the node's sequenced log after its slot (a detached replay has none).
func (r *Replica) sinceCheckpoint() (*StateUpdate, []LogEntry) {
	r.mu.Lock()
	ckpt := r.checkpoint // replaced by the next checkpoint, never written
	r.mu.Unlock()
	if r.node == nil {
		return ckpt, nil
	}
	var from uint64
	if ckpt != nil {
		from = ckpt.UpToSeq
	}
	return ckpt, r.node.Delivered(from)
}

// apply executes one totally ordered message (shared with replay). This
// is where the replica decides whether stamped classes are honoured:
// without EarlySched every request and dummy is admitted to the global
// class 0, so a class-stamped log still runs through one serial lane.
func (r *Replica) apply(m gcs.Message) {
	class := m.Class
	if !r.cfg.EarlySched {
		class = 0
	}
	switch p := m.Payload.(type) {
	case Request:
		r.applyRequest(p, class)
	case NestedOutcome:
		r.applyNestedOutcome(p)
	case Dummy:
		r.applyDummy(p, class)
	}
}

func (r *Replica) applyRequest(req Request, class uint32) {
	r.mu.Lock()
	seen := r.seenReqs[req.Req.Client()]
	if seen == nil {
		seen = new(ids.Runs)
		r.seenReqs[req.Req.Client()] = seen
	}
	fresh := seen.Add(uint64(req.Req.Seq()))
	r.mu.Unlock()
	if !fresh {
		return // duplicate suppression (paper Sect. 2)
	}

	method := r.cfg.Analysis.Object.Lookup(req.Method)
	if method == nil {
		r.reply(req, nil, fmt.Sprintf("unknown method %q", req.Method))
		return
	}
	tid := ids.ThreadID(req.Req)
	r.submitted()
	submitThread(r.rt, tid, method.ID, class, func(th *core.Thread) {
		v, err := r.in.Exec(th, req.Method, req.Args)
		errStr := ""
		if err != nil {
			errStr = err.Error()
		}
		r.reply(req, v, errStr)
	}, func() {
		r.mu.Lock()
		r.completed++
		r.sinceCkpt++
		r.inFlight--
		delete(r.nestedCount, tid)
		ckpt := r.cfg.CheckpointEvery > 0 && r.cfg.Role == RoleActive &&
			r.sinceCkpt >= r.cfg.CheckpointEvery && r.inFlight == 0
		var upTo uint64
		if ckpt {
			r.sinceCkpt = 0
			upTo = r.lastSeq
		}
		r.mu.Unlock()
		if ckpt {
			// Quiescent point: no request or dummy threads in flight, so
			// the snapshot covers every delivered message.
			if r.cfg.CheckpointSink != nil {
				r.cfg.CheckpointSink(upTo)
			} else if r.node != nil {
				r.node.Broadcast(StateUpdate{Snapshot: r.in.Snapshot(), UpToSeq: upTo})
			}
		}
	})
}

// submitted counts one more thread in flight. It runs before the thread is
// handed to the runtime: a body that computes nothing can exit, and run its
// done callback, before SubmitClassed returns, and a count raised after
// that would never come down again — the quiescence guard of the periodic
// checkpoint would then be false for good.
func (r *Replica) submitted() {
	r.mu.Lock()
	r.inFlight++
	r.mu.Unlock()
}

// submitThread hands a request or dummy thread to the runtime. It is a
// variable so that TestCheckpointsKeepComing can make a body finish, and
// run its done callback, before the call returns: the interleaving
// submitted guards against, certain instead of left to the goroutine
// scheduler.
var submitThread = (*core.Runtime).SubmitClassed

func (r *Replica) reply(req Request, v lang.Value, errStr string) {
	if r.node == nil {
		return // detached replay: no clients to answer
	}
	r.node.SendToClient(req.Req.Client(), Reply{Req: req.Req, Value: v, Err: errStr})
}

// applyNestedOutcome resumes the thread suspended on a nested call with
// the performer's verdict — a value, an application error, or a timeout;
// the last two resume as a first-class ErrValue the program can catch.
// Duplicate outcomes (a deposed performer's broadcast racing the new
// performer's re-perform) land under a key that is never reused, so the
// stash entry is inert.
func (r *Replica) applyNestedOutcome(no NestedOutcome) {
	key := nestedKey{no.Req, no.N}
	v := no.ResumeValue()
	r.mu.Lock()
	if th, ok := r.waitingNest[key]; ok {
		delete(r.waitingNest, key)
		delete(r.nestArgs, key)
		r.mu.Unlock()
		r.rt.ScheduleNestedResume(th, v)
		return
	}
	// The outcome arrived before this replica's thread reached the call
	// (replicas progress at different speeds): stash it.
	r.stashedNest[key] = v
	r.mu.Unlock()
}

func (r *Replica) applyDummy(d Dummy, class uint32) {
	tid := ids.ThreadID(dummyThreadBase | d.Seq)
	// Dummies count toward the quiescence check: a checkpoint taken while
	// a dummy's lock events were mid-flight would split those events
	// across the snapshot boundary and diverge a rejoiner's trace hash.
	r.submitted()
	submitThread(r.rt, tid, 0, class, func(th *core.Thread) {
		// The standard dummy profile: one lock acquisition on a reserved
		// mutex, so PDS barriers complete.
		th.Lock(ids.NoSync, DummyMutex)
		th.Unlock(ids.NoSync, DummyMutex)
	}, func() {
		r.mu.Lock()
		r.inFlight--
		r.mu.Unlock()
	})
}

// decLogRetention bounds the leader's retained decision tail; a
// follower whose watermark fell further behind cannot rejoin by
// decision replay (it would need a newer checkpoint).
const decLogRetention = 65536

// onDirect handles point-to-point messages (LSA decision stream). The
// index watermark makes the stream idempotent: duplicates (a fetched
// range overlapping the live stream during rejoin) are dropped, and
// arrivals ahead of the watermark are stashed until the gap fills.
func (r *Replica) onDirect(from gcs.Origin, p gcs.Payload) {
	d, ok := p.(LSADecision)
	if !ok || r.follower == nil {
		return
	}
	r.feedDecision(d)
}

func (r *Replica) feedDecision(d LSADecision) {
	r.decMu.Lock()
	if d.Index <= r.decSeen {
		r.decMu.Unlock()
		return // already fed (duplicate from a fetch/stream overlap)
	}
	if d.Index != r.decSeen+1 {
		r.decStash[d.Index] = d.Event
		r.decMu.Unlock()
		return
	}
	events := []core.LSAEvent{d.Event}
	r.decSeen = d.Index
	for {
		e, ok := r.decStash[r.decSeen+1]
		if !ok {
			break
		}
		delete(r.decStash, r.decSeen+1)
		r.decSeen++
		events = append(events, e)
	}
	r.decMu.Unlock()
	r.rt.External(func() {
		for _, e := range events {
			r.follower.Feed(e)
		}
	})
}

// LSAFed returns the replica's decision watermark: on a follower the
// index of the last decision fed to its scheduler, on the leader the
// last emitted index. At a checkpoint-eligible quiescent point every
// emitted decision has been consumed, so all members report the same
// value — which keeps checkpoints byte-identical across the group.
func (r *Replica) LSAFed() uint64 {
	r.decMu.Lock()
	defer r.decMu.Unlock()
	if r.follower != nil {
		return r.decSeen
	}
	return r.decIndex
}

// SeedDecisions installs a rejoining follower's checkpointed watermark
// and feeds it the decisions fetched from the leader. Call after the
// checkpoint is installed and before live traffic resumes.
func (r *Replica) SeedDecisions(fed uint64, decs []LSADecision) {
	r.decMu.Lock()
	r.decSeen = fed
	r.decIndex = fed
	r.decMu.Unlock()
	if r.follower == nil {
		return
	}
	for _, d := range decs {
		r.feedDecision(d)
	}
}

// DecisionTail returns the retained leader decisions with Index >=
// fromIdx (at most max), whether more remain past them, and whether
// fromIdx is still inside the retained window. Donors serve rejoining
// followers with it.
func (r *Replica) DecisionTail(fromIdx uint64, max int) (decs []LSADecision, more, ok bool) {
	r.decMu.Lock()
	defer r.decMu.Unlock()
	if fromIdx > r.decIndex {
		return nil, false, true // caller is already caught up
	}
	if r.decLog.Len() == 0 || fromIdx < r.decLog.First() {
		return nil, false, false // aged out of the retained window
	}
	end := r.decLog.End()
	if max > 0 && fromIdx+uint64(max) < end {
		end = fromIdx + uint64(max)
	}
	return r.decLog.Slice(fromIdx, end), end < r.decLog.End(), true
}

// onNested is the core NestedHandler: it implements the paper's
// one-replica-performs rule. The designated performer (lowest live
// member) runs the external call and broadcasts the outcome through the
// total order; everyone resumes on delivery.
func (r *Replica) onNested(rt *core.Runtime, th *core.Thread, arg interface{}) {
	tid := th.ID
	var value lang.Value
	if v, ok := arg.(lang.Value); ok {
		value = v
	}
	r.mu.Lock()
	r.nestedCount[tid]++
	n := r.nestedCount[tid]
	key := nestedKey{ids.RequestID(tid), n}
	if v, ok := r.stashedNest[key]; ok {
		delete(r.stashedNest, key)
		r.mu.Unlock()
		rt.ScheduleNestedResume(th, v)
		return
	}
	r.waitingNest[key] = th
	// Remember the argument so a survivor promoted to performer by a
	// view change can re-run the call if the original performer died
	// before broadcasting the outcome.
	r.nestArgs[key] = value
	r.mu.Unlock()

	if r.isPerformer() {
		r.perform(key, value, true)
	}
}

// idemKey is a nested call's idempotency key. It is derived solely from
// the request id and the per-thread call counter — never from the
// performing replica — so a new performer re-running the call after a
// failover presents the same key, and a memoising backend answers with
// the original outcome instead of applying the side effects twice. The
// prefix defaults to "nested"; sharded deployments override it per
// source group (Config.IdemPrefix) so keys stay unique across shards
// sharing one gateway cache.
func (r *Replica) idemKey(key nestedKey) string {
	prefix := r.cfg.IdemPrefix
	if prefix == "" {
		prefix = "nested"
	}
	return fmt.Sprintf("%s:%d:%d", prefix, uint64(key.req), key.n)
}

// perform runs one external call against the configured backend and
// broadcasts the outcome. managed marks the caller as a
// scheduler-managed goroutine (the onNested path); the view-change
// re-perform path runs unmanaged. On a managed goroutine a blocking
// backend is detached from the virtual clock for the call's duration —
// real I/O must not hold virtual time hostage — and the simulated
// NestedLatency is paid with a deterministic broadcast rank.
func (r *Replica) perform(key nestedKey, arg lang.Value, managed bool) {
	out := NestedOutcome{Req: key.req, N: key.n}
	blocking := backend.Blocking(r.cfg.Backend)
	if !r.breaker.Allow() {
		// Fail fast: the backend is evidently down, and paying the full
		// deadline-and-retry budget per call would stall every nested
		// invocation behind a dead service. The fast-fail travels the
		// total order like any outcome, so it is just as deterministic.
		r.fastFails.Add(1)
		out.Status = NestedTimeout
		out.Err = "backend circuit open: failing fast"
	} else {
		pol := r.policy
		if !blocking {
			// No real I/O to wait out; a wall-clock backoff would stall
			// the virtual clock under the simulator.
			pol.Sleep = func(time.Duration) {}
		}
		start := time.Now()
		if managed && blocking {
			r.cfg.Clock.Exit()
		}
		v, attempts, err := pol.Do(r.cfg.Backend, r.idemKey(key), arg)
		if managed && blocking {
			r.cfg.Clock.Enter()
		}
		r.nestedLat.Add(time.Since(start))
		if attempts > 1 {
			r.retries.Add(uint64(attempts - 1))
		}
		switch {
		case err == nil:
			r.breaker.Success()
			out.Status = NestedOK
			out.Value = v
		case errors.Is(err, backend.ErrClosed):
			// Our own side closed the backend client (shutdown): the call's
			// outcome is unknown but the error says nothing about the
			// backend. Keep it out of the breaker and the timeout totals —
			// a clean shutdown must not read like a flapping service.
			out.Status = NestedTimeout
			out.Err = err.Error()
		case !backend.Retryable(err):
			// The backend answered, and the answer is an error: the
			// service is alive, so this is a decided outcome, not
			// breaker food.
			r.breaker.Success()
			r.appErrs.Add(1)
			out.Status = NestedErr
			out.Err = err.Error()
		default:
			r.breaker.Failure()
			r.timeouts.Add(1)
			out.Status = NestedTimeout
			out.Err = err.Error()
		}
	}
	if managed {
		// The simulated external latency; the request-id rank keeps two
		// calls finishing at the same instant in a deterministic
		// broadcast order (their total-order slots must not depend on a
		// race).
		vclock.SleepOrdered(r.cfg.Clock, r.cfg.NestedLatency, uint64(key.req))
	}
	r.performed.Add(1)
	r.broadcastOutcome(key, out)
}

// broadcastOutcome spreads the performer's verdict through the total
// order, retrying around sequencer elections: during a view change
// Broadcast fails with gcs.ErrNoSequencer, and silently dropping the
// outcome would stall the suspended thread on every replica until some
// later view change re-performs the call. Retries stop once the outcome
// is no longer this replica's to deliver — the key resolved (someone
// else's broadcast landed) or this replica was deposed (the next
// performer re-performs under the same idempotency key).
func (r *Replica) broadcastOutcome(key nestedKey, out NestedOutcome) {
	backoff := 5 * time.Millisecond
	for attempt := 0; ; attempt++ {
		err := r.node.Broadcast(out)
		if err == nil {
			return
		}
		if !errors.Is(err, gcs.ErrNoSequencer) || attempt >= 8 {
			r.logf("replica %d: nested outcome %d/%d dropped: %v",
				r.cfg.ID, uint64(key.req), key.n, err)
			return
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 200*time.Millisecond {
			backoff = 200 * time.Millisecond
		}
		r.mu.Lock()
		_, waiting := r.waitingNest[key]
		r.mu.Unlock()
		if !waiting || !r.isPerformer() {
			return
		}
	}
}

// NestedMetrics is a snapshot of the external-service boundary counters.
// Most accumulate only on the performing replica; elsewhere they stay
// zero.
type NestedMetrics struct {
	Performed     uint64  `json:"performed"`     // outcomes broadcast by this replica
	Retries       uint64  `json:"retries"`       // backend attempts beyond the first
	AppErrors     uint64  `json:"app_errors"`    // NestedErr outcomes
	Timeouts      uint64  `json:"timeouts"`      // NestedTimeout outcomes (budget exhausted)
	FastFails     uint64  `json:"fast_fails"`    // calls refused by the open breaker
	RePerformed   uint64  `json:"re_performed"`  // calls re-run after performer takeover
	BreakerState  string  `json:"breaker_state"` // "closed" | "open" | "half_open"
	BreakerTrips  uint64  `json:"breaker_trips"` // times the breaker opened
	LatencyMeanMs float64 `json:"latency_mean_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
}

// NestedMetrics reports the external-service boundary counters.
func (r *Replica) NestedMetrics() NestedMetrics {
	m := NestedMetrics{
		Performed:    r.performed.Load(),
		Retries:      r.retries.Load(),
		AppErrors:    r.appErrs.Load(),
		Timeouts:     r.timeouts.Load(),
		FastFails:    r.fastFails.Load(),
		RePerformed:  r.rePerform.Load(),
		BreakerState: r.breaker.State(),
		BreakerTrips: r.breaker.Trips(),
	}
	if r.nestedLat.N() > 0 {
		qs := r.nestedLat.Quantiles(0.99)
		m.LatencyMeanMs = float64(r.nestedLat.Mean()) / float64(time.Millisecond)
		m.LatencyP99Ms = float64(qs[0]) / float64(time.Millisecond)
	}
	return m
}

// ClassMetrics snapshots the per-class admission counters (conflict-
// class early scheduling). ok is false when the replica does not honour
// stamped classes (no EarlySched): everything then runs in class 0 and
// the counters say nothing. The snapshot is taken under the runtime's
// decision lock, so it is consistent with a quiescent instant.
func (r *Replica) ClassMetrics() (stats core.ClassStats, ok bool) {
	if !r.cfg.EarlySched {
		return core.ClassStats{}, false
	}
	cs := r.sched.(core.ClassScheduler) // New admits only MAT, MAT+LLA, PDS
	r.rt.External(func() { stats = cs.ClassStats() })
	return stats, true
}

// isPerformer reports whether this replica performs external calls. For
// LSA the leader performs them (it is ahead of the followers anyway);
// otherwise the group's Performer: on the real cluster the current
// sequencer — the role the view-change protocol moves on failure — and in
// the simulator the paper's lowest-live-member rule.
func (r *Replica) isPerformer() bool {
	if r.cfg.Group == nil {
		return false // detached replay: nested replies come from the log
	}
	if r.cfg.Kind == KindLSA {
		return r.cfg.ID == r.cfg.LeaderID
	}
	return r.cfg.ID == r.cfg.Group.Performer()
}

// onViewChange runs after the group adopts a new sequencing view. If
// this replica just became the performer it re-runs any nested calls
// still waiting for an outcome: the old performer may have crashed
// between executing the external call and broadcasting the result,
// which would otherwise stall those threads on every replica forever.
// Re-performed calls present the original idempotency keys, so a
// memoising backend answers with the already-applied outcomes rather
// than re-running side effects; the resulting outcomes travel the total
// order like originals, and a duplicate (the old performer's broadcast
// did make it out) lands in stashedNest under a key that is never
// reused, so it is inert.
func (r *Replica) onViewChange(view uint64, seq ids.ReplicaID) {
	if r.cfg.ID != seq {
		return
	}
	r.mu.Lock()
	type pend struct {
		key nestedKey
		arg lang.Value
	}
	ps := make([]pend, 0, len(r.waitingNest))
	for k := range r.waitingNest {
		ps = append(ps, pend{k, r.nestArgs[k]})
	}
	r.mu.Unlock()
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].key.req != ps[j].key.req {
			return ps[i].key.req < ps[j].key.req
		}
		return ps[i].key.n < ps[j].key.n
	})
	for _, p := range ps {
		// Unmanaged path: no virtual-clock detach or SleepOrdered — this
		// runs on a takeover goroutine, and the simulated latency was
		// already paid (or lost) by the dead performer.
		r.rePerform.Add(1)
		r.perform(p.key, p.arg, false)
	}
}

// StartDummyPump makes this replica broadcast Dummy requests every
// interval until StopDummyPump is called. Only the performer replica
// should run a pump (one source suffices); the messages pass through the
// group communication like everything else — the overhead the paper
// attributes to the PDS adaptation.
func (r *Replica) StartDummyPump(interval time.Duration) {
	if r.dummyStop != nil {
		return
	}
	stop := make(chan struct{})
	r.dummyStop = stop
	r.cfg.Clock.Go(func() {
		seq := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.cfg.Clock.Sleep(interval)
			select {
			case <-stop:
				return
			default:
			}
			seq++
			if err := r.node.Broadcast(Dummy{Seq: seq}); err != nil {
				// A sequencer election is in flight: the rejected dummy
				// never entered the total order, so reuse its number on
				// the next tick instead of leaving a hole.
				seq--
				if !errors.Is(err, gcs.ErrNoSequencer) {
					r.logf("replica %d: dummy pump: %v", r.cfg.ID, err)
				}
			}
		}
	})
}

func (r *Replica) logf(format string, args ...interface{}) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// StopDummyPump stops the dummy generator.
func (r *Replica) StopDummyPump() {
	if r.dummyStop != nil {
		close(r.dummyStop)
		r.dummyStop = nil
	}
}
