package server

import (
	"encoding/json"
	"fmt"
	"time"

	"detmt/internal/core"
	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/member"
	"detmt/internal/recovery"
	"detmt/internal/replica"
)

// This file is the server side of the crash-recovery subsystem:
//
//   - captureCheckpoint runs at replica-quiescent points and commits a
//     deterministic checkpoint (object fields + virtual instant +
//     incremental trace-hash state + last applied slot);
//   - runRecovery drives a restarted replica's rejoin: fetch the latest
//     checkpoint from a donor peer, install it, fetch the sequenced tail
//     until it meets the live (buffered) stream, then ResumeLive;
//   - runGossip exchanges divergence points ((slot, consistency hash)
//     pairs captured at checkpoint instants) with every peer and halts
//     this replica when a majority of reachable peers disagree with it.

// captureCheckpoint is the replica's CheckpointSink: it runs at a
// scheduler-quiescent point (no request or dummy threads in flight), so
// the snapshot, the trace-hash state, and seq describe one well-defined
// prefix of the total order — every replica commits byte-identical
// checkpoints at the same slots.
func (s *Server) captureCheckpoint(seq uint64) {
	c := &recovery.Checkpoint{
		Seq:       seq,
		VirtNow:   s.clock.Now(),
		Completed: uint64(s.rep.Completed()),
		Fields:    s.rep.Instance().Snapshot(),
		Hashes:    s.rep.Runtime().Trace().ExportHashState(),
		// At this quiescent point every emitted LSA decision has been
		// consumed, so the watermark is the same on every member (and 0
		// for non-LSA schedulers).
		LSAFed: s.rep.LSAFed(),
	}
	if err := s.mgr.Commit(c); err != nil && s.o.Logf != nil {
		s.o.Logf("server %v: checkpoint at slot %d failed: %v", s.o.ID, seq, err)
	}
}

const (
	// fetchTimeout bounds the bulk checkpoint transfer only. Every other
	// recovery RPC is small (a status/members blob, one tail batch) and
	// uses metaTimeout: the wire layer queues into a reconnecting link
	// and waits the FULL timeout when the peer is dead, so a generous
	// bound here would stall donor rotation for its entire duration —
	// a learner whose donor dies mid-bootstrap must move to the next
	// donor in seconds, not tens of seconds.
	fetchTimeout  = 10 * time.Second
	metaTimeout   = 2 * time.Second
	tailBatchMax  = 2048
	gapHealRounds = 400 // ~20s of 50ms polls before restarting recovery
)

// runRecovery drives the rejoin state machine, cycling through donor
// peers until one attempt succeeds.
func (s *Server) runRecovery() {
	for attempt := 0; ; attempt++ {
		select {
		case <-s.stop:
			return
		default:
		}
		// Recomputed per attempt: a membership snapshot adopted during a
		// failed attempt may have revealed voters the boot peer map never
		// knew about.
		donors := s.donorList()
		if len(donors) == 0 {
			time.Sleep(250 * time.Millisecond)
			continue
		}
		donor := donors[attempt%len(donors)]
		if s.tryRecover(donor) {
			return
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// tryRecover performs one full rejoin attempt against donor. False means
// the attempt must be retried from scratch (donor unreachable, or its
// retention window moved past our checkpoint mid-flight).
func (s *Server) tryRecover(donor ids.ReplicaID) bool {
	logf := s.o.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	// Learn the donor's sequencing view first: a rejoining process — in
	// particular the cluster's original sequencer — must know who
	// sequences the current view before any traffic is replayed, or its
	// tick loop could conclude it still holds the role and fork the
	// order.
	var donorStatus Status
	if b, err := s.tr.Control(donor, []byte("status"), metaTimeout); err != nil {
		logf("server %v: status fetch from %v: %v", s.o.ID, donor, err)
		return false
	} else if err := json.Unmarshal(b, &donorStatus); err != nil {
		logf("server %v: status from %v undecodable: %v", s.o.ID, donor, err)
		return false
	}
	s.group.SeedView(donorStatus.View, donorStatus.Sequencer)

	data, seq, haveCkpt, err := fetchCheckpoint(s.tr, donor, fetchTimeout)
	if err != nil {
		logf("server %v: checkpoint fetch from %v: %v", s.o.ID, donor, err)
		return false
	}
	next := uint64(1)
	lsaFed := uint64(0)
	var lsaDecs []replica.LSADecision
	if haveCkpt {
		c, err := recovery.Decode(data)
		if err != nil {
			logf("server %v: checkpoint from %v undecodable: %v", s.o.ID, donor, err)
			return false
		}
		if c.Seq != seq {
			logf("server %v: checkpoint from %v claims slot %d but encodes %d", s.o.ID, donor, seq, c.Seq)
			return false
		}
		// Install: object fields, incremental trace-hash state, and the
		// replica's progress counters. The group is still buffering, so
		// nothing races this.
		for k, v := range c.Fields {
			s.rep.Instance().SetField(k, v)
		}
		s.rep.Runtime().Trace().SeedHashState(c.Hashes)
		s.rep.SetRecovered(c.Seq, int(c.Completed))
		if err := s.mgr.Commit(c); err != nil {
			logf("server %v: persisting fetched checkpoint: %v", s.o.ID, err)
		}
		next = c.Seq + 1
		lsaFed = c.LSAFed
		for _, d := range c.LSADecs {
			lsaDecs = append(lsaDecs, replica.LSADecision{
				Index: d.Index,
				Event: core.LSAEvent{Mutex: d.Mutex, Thread: d.Thread},
			})
		}
	}

	// Adopt the donor's membership AFTER the checkpoint fetch: the donor
	// only moves forward, so its snapshot covers every change delivered
	// at or before the checkpoint slot — later ones replay from the tail
	// and duplicates fail Stage deterministically. A fetch failure is
	// tolerable (a static cluster's snapshot equals our boot config).
	if b, err := s.tr.Control(donor, []byte("members"), metaTimeout); err == nil {
		var snap member.Snapshot
		if json.Unmarshal(b, &snap) == nil && len(snap.Voters) > 0 {
			s.adoptMembership(snap)
		}
	} else {
		logf("server %v: membership fetch from %v: %v (keeping boot config)", s.o.ID, donor, err)
	}

	// An LSA follower additionally needs the leader's scheduling
	// decisions issued since the checkpoint: its scheduler replays the
	// tail under exactly the decision stream the survivors followed, so
	// the rejoined trace hash matches theirs bit for bit.
	if s.o.Scheduler == replica.KindLSA && !s.rep.IsLSALeader() {
		leader := s.o.ID
		for _, m := range s.memb.Active().Members {
			if m.ID < leader {
				leader = m.ID
			}
		}
		for from := lsaFed + uint64(len(lsaDecs)) + 1; ; {
			decs, more, ok, err := fetchDecisions(s.tr, leader, from, tailBatchMax, metaTimeout)
			if err != nil {
				logf("server %v: decision fetch from %v: %v", s.o.ID, leader, err)
				return false
			}
			if !ok {
				// The leader's retained window moved past our watermark:
				// restart with a fresher checkpoint.
				logf("server %v: leader %v no longer retains decision %d, refetching checkpoint", s.o.ID, leader, from)
				return false
			}
			lsaDecs = append(lsaDecs, decs...)
			if !more {
				break
			}
			from += uint64(len(decs))
		}
		s.rep.SeedDecisions(lsaFed, lsaDecs)
		logf("server %v: seeded %d LSA decisions past watermark %d", s.o.ID, len(lsaDecs), lsaFed)
	}

	// Fetch the sequenced tail from the checkpoint slot until it provably
	// meets the live stream buffered since startup.
	tail, err := closeTail(next, &donorTail{s: s, donor: donor, owed: !s.o.Learner})
	if err != nil {
		logf("server %v: catching up from %v: %v, restarting recovery", s.o.ID, donor, err)
		return false
	}

	s.group.ResumeLive(next, tail)
	s.stateMu.Lock()
	s.recState = "caught_up"
	s.replayed = len(tail)
	s.stateMu.Unlock()
	logf("server %v: recovered from %v: checkpoint slot %d, replayed %d sequenced envelopes",
		s.o.ID, donor, next-1, len(tail))
	return true
}

// tailSource is what closeTail asks of its surroundings: the server answers
// from the donor and its own recovery buffer (donorTail), the unit test
// from a script.
type tailSource interface {
	// fetch is fetchTail against the donor.
	fetch(from uint64) (envs []gcs.Envelope, more, ok bool, err error)
	// buffered reports the sequenced slots the live stream has left in the
	// recovery buffer: the lowest, and how many.
	buffered() (min uint64, count int)
	// heartbeats counts the sequencer heartbeats received so far.
	heartbeats() uint64
	// fanOutOwed reports whether the sequencer owes this process its
	// fan-out: always a voter, a learner once its Add has activated.
	fanOutOwed() bool
	// pause waits out one poll interval — long enough for a slot sequenced
	// before it began to be delivered at the donor.
	pause()
}

// closeTail fetches the sequenced tail from slot next on until it is
// complete: ResumeLive may replay it, then the buffer, and no slot is
// missing in between. The donor keeps delivering while we fetch, so a gap
// between the fetched tail and buffered slots closes by polling again.
//
// An EMPTY buffer proves nothing by itself. The survivors dial this
// process on their own reconnect backoff, so their fan-out may simply not
// have arrived yet; and the sequencer fans out to this process only from
// the moment it sees our hello and revives us, so slots it assigned just
// before — in flight to the donor, or waiting there for their stamp,
// hence in no tail yet — reach us by neither path. A process that went
// live now would meet them later, behind a clock its heartbeats have moved
// past, and wedge. So an empty buffer closes the tail only on evidence: a
// heartbeat that arrived after a fetch began shows the sequencer's link up
// and, by link FIFO, everything it fanned out before that heartbeat
// buffered; one more fetch, a pause later, covers what it assigned while
// we were still marked crashed.
func closeTail(next uint64, src tailSource) ([]gcs.Envelope, error) {
	var tail []gcs.Envelope
	linkUp := false
	for round := 0; round <= gapHealRounds; round++ {
		beats := src.heartbeats()
		from := next + uint64(len(tail))
		envs, more, ok, err := src.fetch(from)
		if err != nil {
			return nil, fmt.Errorf("tail fetch: %w", err)
		}
		if !ok {
			// Trimmed while we were working: our checkpoint is too old.
			return nil, fmt.Errorf("donor no longer retains slot %d", from)
		}
		tail = append(tail, envs...)
		if more {
			continue
		}
		bmin, bcount := src.buffered()
		switch {
		case bcount > 0 && bmin <= next+uint64(len(tail)):
			return tail, nil // the tail reaches the buffered live stream
		case bcount == 0 && linkUp:
			return tail, nil
		case bcount == 0 && src.fanOutOwed():
			linkUp = src.heartbeats() > beats
		}
		src.pause()
	}
	return nil, fmt.Errorf("catch-up gap did not close in %d polls", gapHealRounds)
}

// donorTail is closeTail's view of a live donor and this server.
type donorTail struct {
	s     *Server
	donor ids.ReplicaID
	owed  bool // see tailSource.fanOutOwed
	asked int  // fanOutOwed calls made as a learner
}

func (d *donorTail) fetch(from uint64) ([]gcs.Envelope, bool, bool, error) {
	return fetchTail(d.s.tr, d.donor, from, tailBatchMax, metaTimeout)
}

func (d *donorTail) buffered() (uint64, int) {
	min, _, count := d.s.group.BufferedSeqRange()
	return min, count
}

func (d *donorTail) heartbeats() uint64 { return d.s.beats.Load() }

func (d *donorTail) pause() {
	time.Sleep(50 * time.Millisecond)
}

// fanOutOwed: a LEARNER receives no fan-out until its AddReplica is staged
// at the sequencer, and the proposal's Pad fillers — its guarantee of
// post-staging traffic — can lose a race against the voters' dial to this
// process before the cluster goes idle. So every tenth poll it asks the
// donor whether its promotion already happened; from then on it closes the
// tail as a voter does (the voters opened their links at stage time).
func (d *donorTail) fanOutOwed() bool {
	if d.asked++; d.owed || d.asked%10 != 0 {
		return d.owed
	}
	if b, err := d.s.tr.Control(d.donor, []byte("members"), metaTimeout); err == nil {
		var snap member.Snapshot
		if json.Unmarshal(b, &snap) == nil {
			for _, m := range snap.Voters {
				d.owed = d.owed || m.ID == d.s.o.ID
			}
		}
	}
	if d.owed {
		d.s.logf("server %v: add activated at %v while catching up; closing the tail as a voter", d.s.o.ID, d.donor)
	}
	return d.owed
}

// runGossip periodically exchanges divergence-point rings with every
// peer. When a majority of the reachable peers disagree with this
// replica's ring at a common slot, the replica halts itself with a
// diagnostic naming the first divergent slot — by construction the
// hashes were captured at deterministic quiescent instants, so any
// mismatch is a real schedule divergence, not a timing artifact.
func (s *Server) runGossip(interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
		s.stateMu.Lock()
		state := s.recState
		s.stateMu.Unlock()
		if state != "caught_up" {
			continue // nothing to compare while recovering, halted, or removed
		}
		// Recomputed per round: gossip majorities must be judged against
		// the configuration active NOW, not the boot membership.
		active := s.memb.Active()
		var peers []ids.ReplicaID
		selfVoter := false
		for _, m := range active.Members {
			if m.ID == s.o.ID {
				selfVoter = true
				continue
			}
			peers = append(peers, m.ID)
		}
		if !selfVoter || len(peers) == 0 {
			continue // removed members and singletons have no quorum to poll
		}
		mine := s.mgr.Points()
		if len(mine) == 0 {
			continue
		}
		var polled, disagree int
		var diag string
		var maxLag uint64
		for _, p := range peers {
			b, err := s.tr.Control(p, []byte("hashes"), 2*time.Second)
			if err != nil {
				continue
			}
			var ring hashRing
			if json.Unmarshal(b, &ring) != nil || len(ring.Points) == 0 {
				continue
			}
			polled++
			if lag := recovery.Lag(mine, ring.Points); lag > maxLag {
				maxLag = lag
			}
			if lag := recovery.Lag(ring.Points, mine); lag > maxLag {
				maxLag = lag
			}
			if m, theirs, bad := recovery.FirstMismatch(mine, ring.Points); bad {
				disagree++
				if diag == "" {
					diag = fmt.Sprintf(
						"schedule divergence at slot %d: local consistency hash %016x, peer %v reports %016x",
						m.Seq, m.Hash, ring.ID, theirs.Hash)
				}
			}
		}
		s.stateMu.Lock()
		s.gossipLag = maxLag
		s.stateMu.Unlock()
		if polled > 0 && disagree*2 > polled {
			s.halt(diag)
			return
		}
	}
}

// halt freezes the replica after divergence detection: the group node
// drops all further traffic, so the diverged schedule cannot propagate,
// and the diagnostic is served through status until the operator
// intervenes.
func (s *Server) halt(diag string) {
	s.group.Node(s.o.ID).Halt()
	s.stateMu.Lock()
	s.recState = "halted"
	s.diagnostic = diag
	s.stateMu.Unlock()
	if s.o.Logf != nil {
		s.o.Logf("server %v: HALTED: %s", s.o.ID, diag)
	}
}
