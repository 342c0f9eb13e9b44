// Package detmt is a deterministic multithreading runtime for replicated
// objects — a from-scratch reproduction of "Revisiting Deterministic
// Multithreading Strategies" (Domaschka, Schmied, Reiser, Hauck; IPDPS
// Workshops 2007).
//
// A replicated object is written in a small Java-like language with
// monitor-style synchronisation (sync blocks, wait/notify), local
// computations, and nested invocations of external services. detmt
// statically analyses the object (assigning syncids, predicting lock
// parameters, classifying loops), injects the scheduler announcements of
// the paper's Sect. 4, and executes the object on a group of replicas
// fed by totally ordered group communication. Seven scheduling
// strategies are available: the surveyed SEQ, SAT, LSA, PDS, and MAT,
// plus the paper's proposed extensions MAT+LLA (last-lock analysis) and
// PMAT (full lock prediction).
//
// Everything runs on a discrete-event virtual clock, so experiments are
// deterministic and complete in microseconds of real time; pass a virtual
// clock paced against wall time (vclock.Virtual.EnablePacing) to drive
// the very same code with wall-clock delays, as a deployment does.
//
// # Quick start
//
//	cluster, err := detmt.NewCluster(detmt.Options{
//	    Source:    counterSource,
//	    Scheduler: detmt.PMAT,
//	})
//	...
//	cluster.Run(func(s *detmt.Session) {
//	    c := s.NewClient(1)
//	    v, latency, err := c.Invoke("add", int64(5))
//	    ...
//	})
package detmt

import (
	"errors"
	"fmt"
	"io"
	"time"

	"detmt/internal/analysis"
	"detmt/internal/backend"
	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/replica"
	"detmt/internal/vclock"
)

// Scheduler selects the deterministic multithreading strategy.
type Scheduler = replica.SchedulerKind

// The seven strategies. SEQ–MAT are the algorithms the paper surveys;
// MATLLA and PMAT are its proposed static-analysis extensions.
const (
	SEQ    = replica.KindSEQ
	SAT    = replica.KindSAT
	LSA    = replica.KindLSA
	PDS    = replica.KindPDS
	MAT    = replica.KindMAT
	MATLLA = replica.KindMATLLA
	PMAT   = replica.KindPMAT
)

// Schedulers lists all strategies in presentation order.
func Schedulers() []Scheduler { return replica.AllKinds() }

// Value is a mini-language runtime value (int64, bool, monitor
// reference, or nil).
type Value = lang.Value

// Options configures a replicated-object cluster.
type Options struct {
	// Source is the object's mini-language source text. Required.
	Source string
	// Scheduler is the strategy (default MAT).
	Scheduler Scheduler
	// Replicas is the group size (default 3).
	Replicas int
	// NetLatency is the simulated one-way network latency (default
	// 500µs).
	NetLatency time.Duration
	// NestedLatency is the duration of the external service behind
	// nested invocations (default 12ms).
	NestedLatency time.Duration
	// Service computes nested-invocation replies (default: echo). It is
	// wrapped into an in-process external backend; deployments plug a
	// real one via the replica configuration instead.
	Service func(arg Value) Value
	// PDSWindow and PDSRelaxed tune the PDS strategy.
	PDSWindow  int
	PDSRelaxed bool
	// Clock overrides the virtual clock (default: a fresh one); a paced
	// leader clock runs the cluster at wall pace.
	Clock *vclock.Virtual
}

// Cluster is a group of replicas hosting one replicated object.
type Cluster struct {
	opts     Options
	clock    *vclock.Virtual
	group    *gcs.Group
	analysis *analysis.Result
	replicas map[ids.ReplicaID]*replica.Replica
	members  []ids.ReplicaID
}

// NewCluster analyses the source and builds the replica group.
func NewCluster(opts Options) (*Cluster, error) {
	if opts.Source == "" {
		return nil, errors.New("detmt: Options.Source is required")
	}
	if opts.Scheduler == "" {
		opts.Scheduler = MAT
	}
	if opts.Replicas <= 0 {
		opts.Replicas = 3
	}
	if opts.NetLatency == 0 {
		opts.NetLatency = 500 * time.Microsecond
	}
	if opts.NestedLatency == 0 {
		opts.NestedLatency = 12 * time.Millisecond
	}
	obj, err := lang.Parse(opts.Source)
	if err != nil {
		return nil, err
	}
	res, err := analysis.Analyze(obj)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		opts:     opts,
		analysis: res,
		replicas: map[ids.ReplicaID]*replica.Replica{},
	}
	c.clock = opts.Clock
	if c.clock == nil {
		c.clock = vclock.NewVirtual()
	}
	for i := 0; i < opts.Replicas; i++ {
		c.members = append(c.members, ids.ReplicaID(i+1))
	}
	c.group = gcs.NewGroup(gcs.Config{
		Clock:   c.clock,
		Members: c.members,
		Latency: opts.NetLatency,
	})
	var be backend.ExternalBackend
	if opts.Service != nil {
		svc := opts.Service
		be = backend.NewInProcess(func(_ string, arg lang.Value) (lang.Value, error) {
			return svc(arg), nil
		}, nil)
	}
	for _, id := range c.members {
		c.replicas[id] = replica.New(replica.Config{
			ID:            id,
			Clock:         c.clock,
			Group:         c.group,
			Analysis:      res,
			Kind:          opts.Scheduler,
			PDSWindow:     opts.PDSWindow,
			PDSRelaxed:    opts.PDSRelaxed,
			NestedLatency: opts.NestedLatency,
			Backend:       be,
		})
	}
	return c, nil
}

// Run executes body in a managed goroutine, then lets the simulation
// drain in-flight work for two seconds of virtual time. On an unpaced
// clock the whole run consumes virtual, not real, time; on a paced one it
// takes the wall time its virtual instants name.
func (c *Cluster) Run(body func(*Session)) {
	done := make(chan struct{})
	c.clock.Go(func() {
		defer close(done)
		body(&Session{c: c})
		c.clock.Sleep(2 * time.Second) // drain followers and stragglers
	})
	<-done
}

// State returns the object state of one replica (1-based id).
func (c *Cluster) State(id int) map[string]Value {
	return c.replicas[ids.ReplicaID(id)].Instance().Snapshot()
}

// ScheduleHash returns one replica's schedule consistency hash; equal
// hashes mean equal critical-section orders on every monitor.
func (c *Cluster) ScheduleHash(id int) uint64 {
	return c.replicas[ids.ReplicaID(id)].Runtime().Trace().ConsistencyHash()
}

// Converged reports whether all replicas hold identical object state.
func (c *Cluster) Converged() bool {
	var ref map[string]Value
	for _, id := range c.members {
		snap := c.replicas[id].Instance().Snapshot()
		if ref == nil {
			ref = snap
			continue
		}
		if len(snap) != len(ref) {
			return false
		}
		for k, v := range ref {
			if snap[k] != v {
				return false
			}
		}
	}
	return true
}

// Crash stops a replica (1-based id); the group's failure detector takes
// over sequencing if needed.
func (c *Cluster) Crash(id int) bool { return c.group.Crash(ids.ReplicaID(id)) }

// Traffic returns the wire transfer / broadcast / direct-message counts.
func (c *Cluster) Traffic() (transfers, broadcasts, directs int) {
	return c.group.Stats().Snapshot()
}

// Now returns the cluster's current (virtual) time.
func (c *Cluster) Now() time.Duration { return c.clock.Now() }

// WriteTrace exports one replica's scheduler trace as JSON (readable by
// cmd/detmt-trace).
func (c *Cluster) WriteTrace(w io.Writer, id int) error {
	return c.replicas[ids.ReplicaID(id)].Runtime().Trace().WriteJSON(w)
}

// WriteTimeline exports one replica's thread timeline as a standalone
// HTML/SVG page.
func (c *Cluster) WriteTimeline(w io.Writer, id int, title string) error {
	return c.replicas[ids.ReplicaID(id)].Runtime().Trace().WriteHTML(w, title)
}

// Session is the handle Run passes to its body; all blocking calls made
// through it are clock-managed.
type Session struct {
	c       *Cluster
	clients int
}

// NewClient registers a new client stub with a unique id.
func (s *Session) NewClient(id int) *Client {
	return &Client{inner: replica.NewClient(s.c.clock, s.c.group, ids.ClientID(id))}
}

// Go runs fn in a managed goroutine; use Join (a Group) to wait.
func (s *Session) Go(fn func()) { s.c.clock.Go(fn) }

// Join returns a clock-aware wait group for fan-out/fan-in inside Run.
func (s *Session) Join() *vclock.Group { return vclock.NewGroup(s.c.clock) }

// Sleep advances (virtual) time.
func (s *Session) Sleep(d time.Duration) { s.c.clock.Sleep(d) }

// Now returns the current (virtual) time.
func (s *Session) Now() time.Duration { return s.c.clock.Now() }

// Client invokes replicated methods with first-reply semantics.
type Client struct {
	inner *replica.Client
}

// Invoke calls a method on the replicated object and returns the first
// reply's value together with the client-perceived latency.
func (cl *Client) Invoke(method string, args ...Value) (Value, time.Duration, error) {
	return cl.inner.Invoke(method, args...)
}

// AnalysisReport describes the static-analysis outcome for one object.
type AnalysisReport struct {
	// Transformed is the object source after syncid assignment and
	// scheduler-call injection (the paper's Fig. 4 right-hand side).
	Transformed string
	// Syncs lists every synchronized block's classification.
	Syncs []SyncInfo
}

// SyncInfo is the classification of one synchronized block.
type SyncInfo struct {
	SyncID       int
	Method       string
	Param        string
	Announceable bool
	AnnouncedAt  string
	Loop         string
}

// Analyze runs the static lock analysis on an object source and returns
// the transformation outcome.
func Analyze(source string) (*AnalysisReport, error) {
	obj, err := lang.Parse(source)
	if err != nil {
		return nil, err
	}
	res, err := analysis.Analyze(obj)
	if err != nil {
		return nil, err
	}
	rep := &AnalysisReport{Transformed: lang.Print(res.Object)}
	for _, mr := range res.Reports {
		for _, s := range mr.Syncs {
			rep.Syncs = append(rep.Syncs, SyncInfo{
				SyncID:       int(s.SyncID),
				Method:       s.Method,
				Param:        s.Param,
				Announceable: s.Announceable,
				AnnouncedAt:  s.AnnouncedAt,
				Loop:         fmt.Sprintf("%v", s.Loop),
			})
		}
	}
	return rep, nil
}
