package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/member"
	"detmt/internal/replica"
	"detmt/internal/shard"
	"detmt/internal/wire"
)

// Client-side plumbing shared by everything that talks to a cluster from
// outside it (ShardClients, the cross-shard ShardGateway, FetchRing):
// wire epochs, the no-sequencer retry, status polling and the view
// poller.

// loadEpochLast floors the epoch within one process: even if the
// persisted counter is unavailable, two dialers in the same
// process never reuse an epoch.
var loadEpochLast atomic.Uint64

// nextLoadEpoch returns a strictly increasing wire epoch for transport
// name `name`: all generators share that name, so without a strictly
// increasing epoch a second run against the same cluster would be
// swallowed by the servers' dedup state (or rejected as a stale
// incarnation). The counter is persisted under dir and bumped under an
// exclusive file lock, so concurrent or rapid-fire generator processes
// started within the same clock tick cannot collide; the wall clock
// only serves as a floor (it keeps epochs increasing across deletion of
// dir, e.g. a temp-dir wipe between boots).
func nextLoadEpoch(dir, name string) uint64 {
	bump := func(e uint64) uint64 {
		if w := uint64(time.Now().UnixNano()); e < w {
			e = w
		}
		for {
			last := loadEpochLast.Load()
			if e <= last {
				e = last + 1
			}
			if loadEpochLast.CompareAndSwap(last, e) {
				return e
			}
		}
	}
	if dir == "" {
		dir = filepath.Join(os.TempDir(), "detmt-load")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return bump(0) // fall back to wall clock + in-process floor
	}
	f, err := os.OpenFile(filepath.Join(dir, "epoch-"+name), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return bump(0)
	}
	defer f.Close()
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		return bump(0)
	}
	defer syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
	var cur uint64
	buf := make([]byte, 8)
	if n, _ := f.ReadAt(buf, 0); n == 8 {
		cur = binary.BigEndian.Uint64(buf)
	}
	next := bump(cur)
	binary.BigEndian.PutUint64(buf, next)
	if _, err := f.WriteAt(buf, 0); err == nil {
		f.Sync()
	}
	return next
}

// electionBackoff is the pause before retry number attempt (from 0) of a
// submission that failed fast on gcs.ErrNoSequencer — a sequencer election
// in flight: 25 ms, doubling, capped at one second. The failed request
// never entered the total order (the client acks and forgets it), so a
// retry is a brand-new request, not a duplicate; counting the election
// window as a client-visible error would make every failover smear errors
// over a run that actually survived it.
func electionBackoff(attempt int) time.Duration {
	return min(25*time.Millisecond<<min(attempt, 6), time.Second)
}

// isNoSequencer reports whether err is gcs.ErrNoSequencer, by identity or
// — once it crossed a reply or a batch handle as text — by message.
func isNoSequencer(err error) bool {
	return err != nil && (errors.Is(err, gcs.ErrNoSequencer) ||
		strings.Contains(err.Error(), gcs.ErrNoSequencer.Error()))
}

// invokeWithRetry performs one invocation, retrying no-sequencer windows
// until deadline. The retry count is returned so a summary can report how
// often the election window was hit instead of folding it silently into
// the latency sample (the retry's latency restarts).
func invokeWithRetry(cl *replica.Client, logf func(string, ...interface{}), deadline time.Time,
	method string, args []lang.Value) (lang.Value, time.Duration, int, error) {
	for retries := 0; ; retries++ {
		v, lat, err := cl.Invoke(method, args...)
		if !isNoSequencer(err) || time.Now().After(deadline) {
			return v, lat, retries, err
		}
		if logf != nil {
			logf("load: no sequencer (election in flight), retrying")
		}
		time.Sleep(electionBackoff(retries))
	}
}

// pollStatuses queries every server's control endpoint.
func pollStatuses(tr *wire.TCP, servers map[ids.ReplicaID]string) ([]Status, error) {
	members := make([]ids.ReplicaID, 0, len(servers))
	for id := range servers {
		members = append(members, id)
	}
	slices.Sort(members)
	out := make([]Status, 0, len(members))
	for _, id := range members {
		b, err := tr.Control(id, []byte("status"), 5*time.Second)
		if err != nil {
			return nil, err
		}
		var st Status
		if err := json.Unmarshal(b, &st); err != nil {
			return nil, fmt.Errorf("bad status from %v: %v", id, err)
		}
		out = append(out, st)
	}
	return out, nil
}

// startViewPoller watches the members' status endpoints and installs any
// newer view — and any newer membership epoch — into the client-only
// group (a process hosting no replicas receives no stamped heartbeats,
// so it cannot observe a takeover or a reconfiguration on its own). The
// boot server list is just the first hop: reported joiners get transport
// links and enter the polled set, so a client survives every original
// member being replaced. Returns a stop function.
func startViewPoller(tr *wire.TCP, g *gcs.Group, servers map[ids.ReplicaID]string,
	logf func(string, ...interface{})) func() {
	// Private copy: callers keep using their map for result polling; the
	// poller's grows with the cluster.
	known := make(map[ids.ReplicaID]string, len(servers))
	for id, a := range servers {
		known[id] = a
	}
	stop := make(chan struct{})
	go func() {
		ticker := time.NewTicker(100 * time.Millisecond)
		defer ticker.Stop()
		var mu sync.Mutex // guards known across the per-member goroutines
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			mu.Lock()
			polled := make([]ids.ReplicaID, 0, len(known))
			for id := range known {
				polled = append(polled, id)
			}
			mu.Unlock()
			var wg sync.WaitGroup
			for _, id := range polled {
				wg.Add(1)
				go func(id ids.ReplicaID) {
					defer wg.Done()
					b, err := tr.Control(id, []byte("status"), time.Second)
					if err != nil {
						return
					}
					var st Status
					if json.Unmarshal(b, &st) != nil {
						return
					}
					if v, _ := g.CurrentView(); st.View > v {
						if logf != nil {
							logf("openload: adopting view %d (sequencer %v) from %v", st.View, st.Sequencer, id)
						}
						g.AdoptView(st.View, st.Sequencer)
					}
					mu.Lock()
					adoptClusterShape(tr, g, known, st.Membership, logf)
					mu.Unlock()
				}(id)
			}
			wg.Wait()
		}
	}()
	return func() { close(stop) }
}

// adoptClusterShape folds one member's reported membership snapshot into
// a client-side stack: newly reported voters and pending joiners get
// transport links and join the known set, and the client-only group's
// voter set advances to the reported epoch — so Broadcast keeps
// forwarding to a sequencer that actually exists after the member the
// client booted against is removed. Epoch gating makes stale and
// duplicate reports no-ops, so polling many members is safe.
func adoptClusterShape(tr *wire.TCP, g *gcs.Group, known map[ids.ReplicaID]string,
	snap *member.Snapshot, logf func(string, ...interface{})) {
	if snap == nil || len(snap.Voters) == 0 {
		return
	}
	for _, m := range snap.Learners {
		if _, ok := known[m.ID]; !ok && m.Addr != "" {
			tr.AddPeer(m.ID, m.Addr)
			known[m.ID] = m.Addr
		}
	}
	if snap.Epoch <= g.MembershipEpoch() {
		return
	}
	voters := make([]ids.ReplicaID, 0, len(snap.Voters))
	for _, m := range snap.Voters {
		voters = append(voters, m.ID)
		if _, ok := known[m.ID]; !ok && m.Addr != "" {
			tr.AddPeer(m.ID, m.Addr)
			known[m.ID] = m.Addr
		}
	}
	if g.ApplyMembership(snap.Epoch, voters, false) && logf != nil {
		logf("client: adopted membership epoch %d: voters %v", snap.Epoch, voters)
	}
}

// FetchRing fetches the serialized ring config from every given member
// address (any shard's port of each process works — every tenant serves
// the same blob), verifies the reachable ones agree, and returns the
// decoded config. This is how a router joins a sharded deployment: ask,
// verify, route — never assume. Unreachable members are tolerated (a
// process mid-restart must not block a gateway from starting): the fetch
// fails only when NO member answers, or when two answering members serve
// different rings — disagreement means the deployment itself is
// inconsistent and no routing decision is safe.
func FetchRing(addrs []string, timeout time.Duration,
	dial func(addr string) (net.Conn, error),
	logf func(string, ...interface{})) (shard.RingConfig, error) {
	if len(addrs) == 0 {
		return shard.RingConfig{}, fmt.Errorf("ring: no addresses")
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	// One throwaway client transport per address: the blobs come over
	// the control channel, so we only need connectivity, not identity.
	// Fetches run concurrently so a dead member costs one timeout, not
	// one timeout per dead member.
	epoch := nextLoadEpoch("", "ringfetch")
	type fetched struct {
		blob []byte
		err  error
	}
	results := make([]fetched, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		i, addr := i, addr
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := wire.NewTCP(wire.Options{
				Name:  fmt.Sprintf("ringfetch-%d", i),
				Epoch: epoch,
				Peers: map[ids.ReplicaID]string{1: addr},
				Dial:  dial,
				Logf:  logf,
			})
			if err != nil {
				results[i].err = fmt.Errorf("fetch from %s: %v", addr, err)
				return
			}
			b, err := tr.Control(1, []byte("ring"), timeout)
			tr.Close()
			if err != nil {
				results[i].err = fmt.Errorf("fetch from %s: %v", addr, err)
				return
			}
			if len(b) > 0 && b[0] == '{' {
				results[i].err = fmt.Errorf("%s answered %s (not a sharded server?)", addr, b)
				return
			}
			results[i].blob = b
		}()
	}
	wg.Wait()
	blobs := make(map[string][]byte, len(addrs))
	var unreachable []string
	for i, addr := range addrs {
		if results[i].err != nil {
			unreachable = append(unreachable, results[i].err.Error())
			if logf != nil {
				logf("ring: tolerating unreachable member: %v", results[i].err)
			}
			continue
		}
		blobs[addr] = results[i].blob
	}
	if len(blobs) == 0 {
		return shard.RingConfig{}, fmt.Errorf("ring: no member reachable: %s",
			strings.Join(unreachable, "; "))
	}
	return shard.VerifyAgreement(blobs)
}
