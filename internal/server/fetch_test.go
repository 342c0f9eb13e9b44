package server

import (
	"bytes"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/recovery"
	"detmt/internal/replica"
	"detmt/internal/wire"
)

// flipConn inverts one byte of what it reads, at stream offset at.
type flipConn struct {
	net.Conn
	at, seen int
}

func (c *flipConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if i := c.at - c.seen; i >= 0 && i < n {
		p[i] ^= 0xff
	}
	c.seen += n
	return n, err
}

// fetchProbe is a client-only endpoint whose peer 1 is the donor, the way
// a rejoiner's transport sees it. flipAt >= 0 inverts that byte of every
// connection's inbound stream.
func fetchProbe(t *testing.T, name, donorAddr string, flipAt int) *wire.TCP {
	t.Helper()
	o := wire.Options{Name: name, Peers: map[ids.ReplicaID]string{1: donorAddr}}
	if flipAt >= 0 {
		o.Dial = func(addr string) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				return nil, err
			}
			return &flipConn{Conn: c, at: flipAt}, nil
		}
	}
	tr, err := wire.NewTCP(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestRecoveryFetches pins what the three state-transfer fetches of the
// rejoin path answer, against a live one-member LSA donor (its own
// sequencer and decision leader) over a real socket: checkpoint, sequenced
// tail and LSA decision tail, each with its "nothing that old" and "nothing
// yet" answers, a checkpoint large enough to travel in many chunks, one
// altered in flight, and a donor that is still starting.
func TestRecoveryFetches(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	donor, err := New(Options{
		ID:              1,
		Listener:        ln,
		Scheduler:       replica.KindLSA,
		Workload:        testWorkload(),
		NestedLatency:   2 * time.Millisecond,
		Tick:            2 * time.Millisecond,
		CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer donor.Close()
	addr := ln.Addr().String()
	probe := fetchProbe(t, "probe", addr, -1)
	const timeout = 5 * time.Second

	// A donor that has sequenced nothing: no checkpoint, and both tails are
	// "nothing yet" — an answer, not a refusal.
	if _, _, ok, err := fetchCheckpoint(probe, 1, timeout); err != nil || ok {
		t.Fatalf("checkpoint of a fresh donor: ok=%v err=%v, want ok=false", ok, err)
	}
	if envs, more, ok, err := fetchTail(probe, 1, 1, 16, timeout); err != nil || !ok || more || len(envs) != 0 {
		t.Fatalf("tail of a fresh donor: %d envs more=%v ok=%v err=%v, want empty ok=true", len(envs), more, ok, err)
	}
	if decs, more, ok, err := fetchDecisions(probe, 1, 1, 16, timeout); err != nil || !ok || more || len(decs) != 0 {
		t.Fatalf("decisions of a fresh donor: %d decs more=%v ok=%v err=%v, want empty ok=true", len(decs), more, ok, err)
	}

	res, err := loadGroup(map[ids.ReplicaID]string{1: addr}, ShardClientOptions{},
		RunOptions{Clients: 1, RequestsPerClient: 8, Seed: 3, Timeout: 60 * time.Second})
	if err != nil || res.Errors > 0 {
		t.Fatalf("load run against the donor: res=%+v err=%v", res, err)
	}
	next, _ := donor.group.Node(1).Frontier()
	if next < 9 {
		t.Fatalf("donor delivered %d slots after 8 requests", next-1)
	}

	t.Run("checkpoint", func(t *testing.T) {
		want, wantSeq, ok := donor.mgr.Latest()
		if !ok {
			t.Fatal("donor committed no checkpoint")
		}
		data, seq, ok, err := fetchCheckpoint(probe, 1, timeout)
		if err != nil || !ok {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
		if seq != wantSeq || !bytes.Equal(data, want) {
			t.Fatalf("fetched slot %d (%d bytes), donor holds slot %d (%d bytes)", seq, len(data), wantSeq, len(want))
		}
		if c, err := recovery.Decode(data); err != nil || c.Seq != seq {
			t.Fatalf("fetched checkpoint does not decode to slot %d: %v", seq, err)
		}
	})

	t.Run("tail", func(t *testing.T) {
		want, _, _ := donor.group.Node(1).SequencedTail(1, 0)
		envs, more, ok, err := fetchTail(probe, 1, 1, tailBatchMax, timeout)
		if err != nil || !ok || more {
			t.Fatalf("whole tail: more=%v ok=%v err=%v", more, ok, err)
		}
		if uint64(len(envs)) != next-1 || !reflect.DeepEqual(envs, want) {
			t.Fatalf("whole tail: %d envelopes, donor retains %d (frontier %d):\n got  %+v\n want %+v", len(envs), len(want), next, envs, want)
		}
		// max smaller than the log: a prefix, and more to come.
		envs, more, ok, err = fetchTail(probe, 1, 2, 3, timeout)
		if err != nil || !ok || !more || len(envs) != 3 || envs[0].Seq != 2 || envs[2].Seq != 4 {
			t.Fatalf("bounded tail: %d envs more=%v ok=%v err=%v, want slots 2..4 and more", len(envs), more, ok, err)
		}
		// At the frontier: nothing yet.
		envs, more, ok, err = fetchTail(probe, 1, next, tailBatchMax, timeout)
		if err != nil || !ok || more || len(envs) != 0 {
			t.Fatalf("tail at the frontier: %d envs more=%v ok=%v err=%v, want empty ok=true", len(envs), more, ok, err)
		}
		// Slot 0 precedes every retained log: the answer a slot trimmed by
		// the retention bound gets.
		if _, _, ok, err = fetchTail(probe, 1, 0, tailBatchMax, timeout); err != nil || ok {
			t.Fatalf("tail below the retained window: ok=%v err=%v, want ok=false", ok, err)
		}
	})

	t.Run("decisions", func(t *testing.T) {
		want, _, _ := donor.rep.DecisionTail(1, 0)
		if len(want) < 4 {
			t.Fatalf("leader retains %d decisions after 8 requests", len(want))
		}
		decs, more, ok, err := fetchDecisions(probe, 1, 1, len(want)+10, timeout)
		if err != nil || !ok || more || !reflect.DeepEqual(decs, want) {
			t.Fatalf("whole decision tail: more=%v ok=%v err=%v\n got  %+v\n want %+v", more, ok, err, decs, want)
		}
		decs, more, ok, err = fetchDecisions(probe, 1, 2, 2, timeout)
		if err != nil || !ok || !more || len(decs) != 2 || decs[0].Index != 2 || decs[1].Index != 3 {
			t.Fatalf("bounded decision tail: %+v more=%v ok=%v err=%v, want indices 2,3 and more", decs, more, ok, err)
		}
		decs, more, ok, err = fetchDecisions(probe, 1, uint64(len(want))+1, 16, timeout)
		if err != nil || !ok || more || len(decs) != 0 {
			t.Fatalf("decisions past the last: %d decs more=%v ok=%v err=%v, want empty ok=true", len(decs), more, ok, err)
		}
		if _, _, ok, err = fetchDecisions(probe, 1, 0, 16, timeout); err != nil || ok {
			t.Fatalf("decisions below the retained window: ok=%v err=%v, want ok=false", ok, err)
		}
	})

	t.Run("large checkpoint", func(t *testing.T) {
		blob := make([]byte, 1<<20+12345)
		rand.New(rand.NewSource(1)).Read(blob)
		big := &recovery.Checkpoint{
			Seq:    next + 100,
			Fields: map[string]lang.Value{"blob": lang.ErrValue(blob)},
		}
		if err := donor.mgr.Commit(big); err != nil {
			t.Fatal(err)
		}
		want, _, _ := donor.mgr.Latest()
		if len(want) < 1<<20 {
			t.Fatalf("synthetic checkpoint encodes to only %d bytes", len(want))
		}
		data, seq, ok, err := fetchCheckpoint(probe, 1, timeout)
		if err != nil || !ok || seq != big.Seq || !bytes.Equal(data, want) {
			t.Fatalf("%d-byte checkpoint: got %d bytes slot %d ok=%v err=%v", len(want), len(data), seq, ok, err)
		}
		// One byte inverted 200 000 bytes into the donor's answer — inside
		// the fourth 64 KiB chunk's data — must be caught, not installed.
		flipped := fetchProbe(t, "probe-flip", addr, 200000)
		if data, _, ok, err := fetchCheckpoint(flipped, 1, timeout); err == nil {
			t.Fatalf("checkpoint altered in flight was accepted: %d bytes ok=%v", len(data), ok)
		}
	})

	t.Run("donor not ready", func(t *testing.T) {
		donor.stateMu.Lock()
		donor.ready = false
		donor.stateMu.Unlock()
		defer func() {
			donor.stateMu.Lock()
			donor.ready = true
			donor.stateMu.Unlock()
		}()
		// A donor still assembling its group must never look like one that
		// answered with data.
		if envs, _, ok, err := fetchTail(probe, 1, 1, tailBatchMax, timeout); err == nil && ok {
			t.Fatalf("tail from a donor that is not ready: %d envs ok=true", len(envs))
		}
		if decs, _, ok, err := fetchDecisions(probe, 1, 1, 16, timeout); err == nil && ok {
			t.Fatalf("decisions from a donor that is not ready: %d decs ok=true", len(decs))
		}
		// Since the fetches ride Control, "starting" is an error of its own
		// on all three — never ok=false, which a rejoiner reads as "trimmed,
		// restart from a newer checkpoint".
		_, _, _, errC := fetchCheckpoint(probe, 1, timeout)
		_, _, _, errT := fetchTail(probe, 1, 1, tailBatchMax, timeout)
		_, _, _, errD := fetchDecisions(probe, 1, 1, 16, timeout)
		for _, err := range []error{errC, errT, errD} {
			if err == nil || !strings.Contains(err.Error(), "starting") {
				t.Fatalf("fetch from a donor that is not ready: err=%v, want one naming \"starting\"", err)
			}
		}
	})
}
