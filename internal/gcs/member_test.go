package gcs

import (
	"maps"
	"slices"
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/vclock"
)

// TestTakeoverQuorum pins the election quorum rule, including the two
// 2-voter behaviors the reconfiguration work distinguishes: a pair
// produced by an ordered removal elects with the lone survivor, while
// a static pair (or one shrunk by crash detection inside a larger
// config) keeps the documented stall.
func TestTakeoverQuorum(t *testing.T) {
	cases := []struct {
		name                      string
		localVoters, acks, voters int
		pairOrdered               bool
		want                      bool
	}{
		{"single member is its own majority", 1, 0, 1, false, true},
		{"3 voters, one ack is a majority", 1, 1, 3, false, true},
		{"3 voters, no acks stalls", 1, 0, 3, false, false},
		{"5 voters, two acks is a majority", 1, 2, 5, false, true},
		{"5 voters, one ack stalls", 1, 1, 5, false, false},
		// The PR 4 documented stall: a static 2-member group cannot fail
		// over — the survivor cannot tell a dead peer from a partition.
		{"static pair stalls", 1, 0, 2, false, false},
		// With slot-indexed configs an ordered removal down to 2 voters
		// is itself majority-agreed, so the remainder elects normally.
		{"ordered-removal pair elects", 1, 0, 2, true, true},
		{"ordered pair with ack elects", 1, 1, 2, true, true},
		// pairOrdered never applies outside the 2-voter shape.
		{"ordered flag ignored at 3 voters", 1, 0, 3, true, false},
		{"no local voter never elects", 0, 0, 2, true, false},
	}
	for _, c := range cases {
		if got := takeoverQuorumMet(c.localVoters, c.acks, c.voters, c.pairOrdered); got != c.want {
			t.Errorf("%s: takeoverQuorumMet(%d, %d, %d, %v) = %v, want %v",
				c.name, c.localVoters, c.acks, c.voters, c.pairOrdered, got, c.want)
		}
	}
}

// TestApplyMembership exercises the group-level voter-set mutation:
// epoch gating, learner promotion, ordered removal crash-marking, and
// the pairOrdered flag that feeds the election rule above.
func TestApplyMembership(t *testing.T) {
	clk := vclock.NewVirtual()
	g := NewGroup(Config{
		Clock:    clk,
		Members:  []ids.ReplicaID{1, 2, 3},
		Latency:  time.Millisecond,
		Learners: []ids.ReplicaID{4},
	})
	defer g.Close()
	learners := func() map[ids.ReplicaID]bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return maps.Clone(g.vs.learners)
	}

	if got := learners(); len(got) != 1 || !got[4] {
		t.Fatalf("learners = %v", got)
	}
	if got := g.fanOut(1); len(got) != 4 || got[3] != (seqLink{to: 4, key: "seqR1>R4"}) {
		t.Fatalf("fanOut(1) = %v, want the three voters and learner 4 last", got)
	}
	if got := g.Members(); len(got) != 3 {
		t.Fatalf("Members() = %v", got)
	}

	// AddLearner is idempotent and a no-op for voters.
	g.AddLearner(4)
	g.AddLearner(2)
	if got := learners(); len(got) != 1 {
		t.Fatalf("learners after re-add = %v", got)
	}

	// Activation: 4 promotes to voter, epoch advances.
	if !g.ApplyMembership(1, []ids.ReplicaID{1, 2, 3, 4}, true) {
		t.Fatal("epoch-1 apply rejected")
	}
	if got := g.Members(); len(got) != 4 || !slices.Contains(got, 4) {
		t.Fatalf("Members() after promotion = %v", got)
	}
	if got := learners(); len(got) != 0 {
		t.Fatalf("learners after promotion = %v", got)
	}
	if g.MembershipEpoch() != 1 {
		t.Fatalf("epoch = %d", g.MembershipEpoch())
	}

	// Stale and duplicate epochs are ignored.
	if g.ApplyMembership(1, []ids.ReplicaID{1, 2}, true) {
		t.Fatal("duplicate epoch applied")
	}
	if g.ApplyMembership(0, []ids.ReplicaID{9}, true) {
		t.Fatal("stale epoch applied")
	}

	// Ordered removal: the removed member is crash-marked immediately
	// (no detection window) and drops out of the election scan.
	if !g.ApplyMembership(2, []ids.ReplicaID{2, 3, 4}, true) {
		t.Fatal("epoch-2 apply rejected")
	}
	if g.alive(1) {
		t.Fatal("ordered-removed member still alive")
	}
	if !g.alive(2) || !g.alive(3) || !g.alive(4) || g.Performer() != 2 {
		t.Fatalf("after removal: members 2, 3, 4 alive %v %v %v, performer %v; want all alive and 2",
			g.alive(2), g.alive(3), g.alive(4), g.Performer())
	}
	// The cached fan-out follows the voter set, a new learner and a new
	// sequencer.
	if got := g.fanOut(1); len(got) != 3 || got[0].to != 2 {
		t.Fatalf("fanOut(1) after removal = %v, want 2, 3 and 4", got)
	}
	g.AddLearner(5)
	if got := g.fanOut(1); len(got) != 4 || got[3].to != 5 {
		t.Fatalf("fanOut(1) with learner 5 = %v", got)
	}
	if got := g.fanOut(2); len(got) != 4 || got[3].key != "seqR2>R5" {
		t.Fatalf("fanOut(2) = %v, want sequencer 2's own links", got)
	}

	// Shrinking to an ordered pair arms the pairOrdered election rule.
	if !g.ApplyMembership(3, []ids.ReplicaID{3, 4}, true) {
		t.Fatal("epoch-3 apply rejected")
	}
	g.mu.Lock()
	pairOrdered := g.vs.pairOrdered
	g.mu.Unlock()
	if !pairOrdered {
		t.Fatal("ordered 2-voter remainder did not set pairOrdered")
	}
}
