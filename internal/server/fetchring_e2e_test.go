package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/replica"
)

// mkMember boots one member of a multi-process sharded deployment.
func mkMember(t *testing.T, id ids.ReplicaID, listen string, peers map[ids.ReplicaID]string,
	shards int, seed uint64) *MultiServer {
	t.Helper()
	m, err := NewMulti(MultiOptions{
		Template: Options{
			ID:             id,
			Listen:         listen,
			Peers:          peers,
			Scheduler:      replica.KindMAT,
			Workload:       testWorkload(),
			NestedLatency:  2 * time.Millisecond,
			Tick:           2 * time.Millisecond,
			GossipInterval: 100 * time.Millisecond,
			Logf:           debugLogf,
		},
		Shards:   shards,
		RingSeed: seed,
	})
	if err != nil {
		t.Fatalf("starting member %d: %v", id, err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestFetchRingToleratesDeadMember pins the restart-tolerance contract:
// a router joining a three-member deployment while one process is down
// must still get the ring (the two live members agree), and must fail
// only when nobody answers.
func TestFetchRingToleratesDeadMember(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket sharded test")
	}
	base := reserveBasePorts(t, 3)
	addrs := make([]string, 3)
	peers := map[ids.ReplicaID]string{}
	for i := range addrs {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", base+i)
		peers[ids.ReplicaID(i+1)] = addrs[i]
	}
	mk := func(id ids.ReplicaID) *MultiServer {
		p := map[ids.ReplicaID]string{}
		for pid, a := range peers {
			if pid != id {
				p[pid] = a
			}
		}
		return mkMember(t, id, addrs[id-1], p, 1, 7)
	}
	m1 := mk(1)
	mk(2)
	m3 := mk(3)

	// Kill one of the three BEFORE the router joins.
	m3.Close()

	fetched, err := FetchRing(addrs, 3*time.Second, nil, debugLogf)
	if err != nil {
		t.Fatalf("fetch with one dead member: %v", err)
	}
	fh, err := fetched.Hash()
	if err != nil {
		t.Fatal(err)
	}
	mh, err := m1.Ring().Hash()
	if err != nil {
		t.Fatal(err)
	}
	if fh != mh {
		t.Fatalf("fetched ring hash %016x != member ring hash %016x", fh, mh)
	}

	// Zero reachable members is still an error — there is nothing to
	// verify agreement against.
	deadOnly := []string{addrs[2]}
	if _, err := FetchRing(deadOnly, 2*time.Second, nil, debugLogf); err == nil {
		t.Fatal("fetch from only a dead member unexpectedly succeeded")
	} else if !strings.Contains(err.Error(), "no member reachable") {
		t.Fatalf("dead-only fetch error = %v, want 'no member reachable'", err)
	}
}

// TestFetchRingDisagreementStillFatal: tolerance for unreachable members
// must not water down the agreement check — two LIVE members serving
// different rings is a misconfigured deployment and must fail the fetch.
func TestFetchRingDisagreementStillFatal(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket sharded test")
	}
	base := reserveBasePorts(t, 2)
	a1 := fmt.Sprintf("127.0.0.1:%d", base)
	a2 := fmt.Sprintf("127.0.0.1:%d", base+1)
	// Two independent single-member deployments with different ring
	// seeds: both reachable, both answering, answers differ.
	mkMember(t, 1, a1, nil, 1, 1)
	mkMember(t, 1, a2, nil, 1, 2)

	if _, err := FetchRing([]string{a1, a2}, 3*time.Second, nil, debugLogf); err == nil {
		t.Fatal("fetch across disagreeing members unexpectedly succeeded")
	} else if !strings.Contains(err.Error(), "disagreement") {
		t.Fatalf("disagreement fetch error = %v, want a ring-disagreement error", err)
	}
}
