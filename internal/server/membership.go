package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/member"
	"detmt/internal/wire"
)

// This file is the server side of dynamic membership (epoch-based
// reconfiguration carried in the total order):
//
//   - onConfigChange / onSlot are the replica's deterministic delivery
//     hooks: a delivered ConfigChange is staged in the tracker (and the
//     joiner it introduces starts receiving fan-out as a learner); at
//     the change's activation slot every replica applies the new voter
//     set to its group in the same instant of the order;
//   - ProposeChange broadcasts a validated change through the
//     sequencer, followed by enough Pad fillers that the activation
//     slot is reached even on an idle cluster;
//   - adoptMembership seeds a rejoining/joining process's tracker from
//     a donor's snapshot mid-recovery;
//   - FetchMembership / ProposeChangeAt are the client-side helpers the
//     -join flag, detmt-chaos and tests use against a live cluster.

// proposeTimeout bounds how long a proposal retries ErrNoSequencer
// (e.g. across a view change) before giving up.
const proposeTimeout = 5 * time.Second

func (s *Server) logf(format string, args ...interface{}) {
	if s.o.Logf != nil {
		s.o.Logf(format, args...)
	}
}

// onConfigChange runs on the deterministic delivery path when a
// membership change arrives in the total order: stage it (same slot,
// same tracker state on every replica → same activation slot and next
// config everywhere) and start treating the members it introduces as
// learners so they receive the sequenced fan-out.
func (s *Server) onConfigChange(seq uint64, ch member.Change) {
	p, err := s.memb.Stage(ch, seq)
	if err != nil {
		// Replayed duplicates (snapshot-covered prefix) and superseded
		// changes land here; dropping them is the deterministic outcome.
		s.logf("member: ignoring change %s at slot %d: %v", ch, seq, err)
		return
	}
	for _, m := range p.Change.Joins() {
		if m.ID != s.o.ID {
			s.tr.AddPeer(m.ID, m.Addr)
		}
		s.group.AddLearner(m.ID)
	}
	s.logf("member: staged %s at slot %d: epoch %d (config %016x) activates at slot %d",
		ch, seq, p.Next.Epoch, p.Next.Hash(), p.ActivateSlot)
}

// onSlot runs on every delivered slot; when a staged change's
// activation slot is reached it installs the new voter set. The
// tracker's atomic fast path keeps the common (no pending change) case
// to one load per delivery.
func (s *Server) onSlot(seq uint64) {
	for _, cfg := range s.memb.Advance(seq) {
		voters := cfg.IDs()
		s.group.ApplyMembership(cfg.Epoch, voters, true)
		s.logf("member: epoch %d (config %016x) active at slot %d: voters %v",
			cfg.Epoch, cfg.Hash(), seq, voters)
		// Removal means a member→non-member transition. A joiner watching
		// some OTHER change activate before its own Add is absent from
		// that config too, but it was never a member — it must keep
		// catching up, not drain.
		isMember := cfg.Contains(s.o.ID)
		s.stateMu.Lock()
		was := s.wasMember
		s.wasMember = isMember
		s.stateMu.Unlock()
		if was && !isMember {
			s.onSelfRemoved(cfg)
		}
	}
}

// onSelfRemoved handles this process's own ordered removal: by the
// activation slot every earlier slot is delivered, so the replica's
// work is drained up to a well-defined prefix. The process keeps its
// transport open — the reply-replay rings still serve any client that
// reconnects for a pending reply, and nested calls this member
// performed are re-performed by the new view if their outcomes never
// got sequenced (the usual takeover machinery, idempotent against the
// backend) — but it sequences nothing, votes in no election, and
// reports "removed" until the operator shuts it down.
func (s *Server) onSelfRemoved(cfg member.Config) {
	s.stateMu.Lock()
	s.recState = "removed"
	s.stateMu.Unlock()
	s.logf("member: this process was removed at epoch %d; draining (replies stay served until shutdown)", cfg.Epoch)
}

// ProposeChange validates ch against the latest (active + staged)
// configuration and broadcasts it through the sequencer, then pads the
// order past the activation slot. Any member can propose; the total
// order serialises concurrent proposals and Stage rejects the ones
// that no longer apply.
func (s *Server) ProposeChange(ch member.Change) error {
	if ch.Kind == member.Pad {
		return fmt.Errorf("member: pad is internal filler")
	}
	if err := s.memb.Validate(ch); err != nil {
		return err
	}
	if err := s.broadcastRetry(ch); err != nil {
		return fmt.Errorf("member: proposing %s: %v", ch, err)
	}
	// The change activates lag slots after delivery, and activation
	// triggers on *delivered* slots — pad the order so an otherwise idle
	// cluster still reaches it. Pads are meta-traffic: they never touch
	// the scheduler or the object.
	for i := uint64(0); i <= s.memb.Lag(); i++ {
		if err := s.broadcastRetry(member.Change{Kind: member.Pad}); err != nil {
			return fmt.Errorf("member: padding after %s: %v", ch, err)
		}
	}
	s.logf("member: proposed %s", ch)
	return nil
}

// broadcastRetry forwards one payload to the sequencer, retrying
// ErrNoSequencer (a view change in progress) until proposeTimeout.
func (s *Server) broadcastRetry(p gcs.Payload) error {
	deadline := time.Now().Add(proposeTimeout)
	for {
		err := s.group.Node(s.o.ID).Broadcast(p)
		if err == nil {
			return nil
		}
		if !errors.Is(err, gcs.ErrNoSequencer) || time.Now().After(deadline) {
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// adoptMembership installs a donor's membership snapshot on a
// rejoining/joining process mid-recovery: reseed the tracker, open
// transport links to every member we did not boot with, register
// pending joiners as learners, and bring the group's voter set up to
// the donor's epoch. ordered=false — a seeded config does not arm the
// pairOrdered election exception; only a removal this process itself
// delivers does.
func (s *Server) adoptMembership(snap member.Snapshot) {
	s.memb.Reseed(snap)
	s.stateMu.Lock()
	s.wasMember = s.memb.Active().Contains(s.o.ID)
	s.stateMu.Unlock()
	for _, m := range snap.Voters {
		if m.ID != s.o.ID && m.Addr != "" {
			s.tr.AddPeer(m.ID, m.Addr)
		}
	}
	for _, m := range snap.Learners {
		if m.ID != s.o.ID && m.Addr != "" {
			s.tr.AddPeer(m.ID, m.Addr)
		}
		s.group.AddLearner(m.ID)
	}
	if snap.Epoch > 0 {
		voters := make([]ids.ReplicaID, len(snap.Voters))
		for i, m := range snap.Voters {
			voters[i] = m.ID
		}
		s.group.ApplyMembership(snap.Epoch, voters, false)
	}
	s.logf("member: adopted donor membership: epoch %d, %d voters, %d pending (snapshot slot %d)",
		snap.Epoch, len(snap.Voters), len(snap.Pending), snap.LastSlot)
}

// donorList returns the peers a recovering process may fetch from: the
// active voters (which may have changed since boot) plus the booted
// peer map as a fallback, ascending, self excluded.
func (s *Server) donorList() []ids.ReplicaID {
	seen := map[ids.ReplicaID]bool{s.o.ID: true}
	var out []ids.ReplicaID
	for _, m := range s.memb.Active().Members {
		if !seen[m.ID] {
			seen[m.ID] = true
			out = append(out, m.ID)
		}
	}
	for id := range s.o.Peers {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// FetchMembership asks any live member for its membership snapshot
// over a throwaway control connection (the "members" verb). The
// -join flag, detmt-chaos and drivers use it to discover a cluster's
// current shape without being part of it.
func FetchMembership(addr string, timeout time.Duration, dial func(string) (net.Conn, error), logf func(string, ...interface{})) (member.Snapshot, error) {
	b, err := controlAt(addr, "members", timeout, dial, logf)
	if err != nil {
		return member.Snapshot{}, err
	}
	var snap member.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return member.Snapshot{}, fmt.Errorf("membership from %s undecodable: %v", addr, err)
	}
	if len(snap.Voters) == 0 {
		return member.Snapshot{}, fmt.Errorf("membership from %s names no voters (reply %s)", addr, b)
	}
	return snap, nil
}

// ProposeChangeAt submits a membership change to the member at addr
// (the "memberchange" control verb); that member validates it and
// broadcasts it through the sequencer.
func ProposeChangeAt(addr string, ch member.Change, timeout time.Duration, dial func(string) (net.Conn, error), logf func(string, ...interface{})) error {
	blob, err := json.Marshal(ch)
	if err != nil {
		return err
	}
	b, err := controlAt(addr, "memberchange "+string(blob), timeout, dial, logf)
	if err != nil {
		return err
	}
	var reply struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(b, &reply); err == nil && reply.Error != "" {
		return fmt.Errorf("member at %s rejected %s: %s", addr, ch, reply.Error)
	}
	return nil
}

// controlAt runs one control request against addr over a throwaway
// client transport (the FetchRing idiom: no server id needed up
// front).
func controlAt(addr, req string, timeout time.Duration, dial func(string) (net.Conn, error), logf func(string, ...interface{})) ([]byte, error) {
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	probe := ids.ReplicaID(1)
	tr, err := wire.NewTCP(wire.Options{
		Name:  "member-ctl",
		Peers: map[ids.ReplicaID]string{probe: addr},
		Dial:  dial,
		Logf:  logf,
	})
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	b, err := tr.Control(probe, []byte(req), timeout)
	if err != nil {
		return nil, fmt.Errorf("control %q at %s: %v", req, addr, err)
	}
	return b, nil
}
