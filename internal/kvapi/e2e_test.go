package kvapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"detmt/internal/ids"
	"detmt/internal/replica"
	"detmt/internal/server"
	"detmt/internal/workload"
)

var e2eDebug = os.Getenv("DETMT_TEST_DEBUG") != ""

func debugLogf(format string, args ...interface{}) {
	if e2eDebug {
		fmt.Fprintf(os.Stderr, "DBG "+format+"\n", args...)
	}
}

// reserveBasePorts finds n consecutive free TCP ports (the symmetric
// shard layout derives per-shard ports from each member's base port).
func reserveBasePorts(t *testing.T, n int) int {
	t.Helper()
	for attempt := 0; attempt < 20; attempt++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		base := ln.Addr().(*net.TCPAddr).Port
		ln.Close()
		held := []net.Listener{}
		ok := true
		for p := base; p < base+n; p++ {
			l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
			if err != nil {
				ok = false
				break
			}
			held = append(held, l)
		}
		for _, l := range held {
			l.Close()
		}
		if ok {
			return base
		}
	}
	t.Fatal("could not reserve a consecutive port block")
	return 0
}

// bootKVMembers boots the three members of a 2-shard deployment on a
// fresh block of base ports and returns their base addresses. The block
// is free when reserveBasePorts probes it but released before the members
// bind it, so another process can take a port in between: when a member's
// listen fails with EADDRINUSE, the members already started are closed
// and the boot starts over on a fresh block, at most five times.
func bootKVMembers(t *testing.T) (bases []string, ms []*server.MultiServer) {
	t.Helper()
	for attempt := 1; ; attempt++ {
		base := reserveBasePorts(t, 6)
		bases = make([]string, 3)
		for i := range bases {
			bases[i] = fmt.Sprintf("127.0.0.1:%d", base+2*i)
		}
		ms = ms[:0]
		var err error
		for i := range bases {
			peers := map[ids.ReplicaID]string{}
			for j, a := range bases {
				if j != i {
					peers[ids.ReplicaID(j+1)] = a
				}
			}
			var m *server.MultiServer
			if m, err = mkKVMember(ids.ReplicaID(i+1), bases[i], peers); err != nil {
				break
			}
			ms = append(ms, m)
		}
		if err == nil {
			for _, m := range ms {
				t.Cleanup(func() { m.Close() })
			}
			return bases, ms
		}
		for _, m := range ms {
			m.Close()
		}
		if !errors.Is(err, syscall.EADDRINUSE) || attempt == 5 {
			t.Fatalf("starting member %d: %v", len(ms)+1, err)
		}
		t.Logf("boot attempt %d: member %d: %v; booting again on a fresh port block", attempt, len(ms)+1, err)
	}
}

// mkKVMember boots one member of a 2-shard deployment hosting the
// replicated KV object.
func mkKVMember(id ids.ReplicaID, listen string, peers map[ids.ReplicaID]string) (*server.MultiServer, error) {
	return server.NewMulti(server.MultiOptions{
		Template: server.Options{
			ID:             id,
			Listen:         listen,
			Peers:          peers,
			Scheduler:      replica.KindMAT,
			KV:             &workload.KVConfig{Buckets: 16},
			NestedLatency:  2 * time.Millisecond,
			Tick:           2 * time.Millisecond,
			GossipInterval: 100 * time.Millisecond,
			Logf:           debugLogf,
		},
		Shards:   2,
		RingSeed: 11,
	})
}

// doKV performs one facade request and decodes the reply document.
func doKV(t *testing.T, cl *http.Client, method, url string, value *int64) (int, kvReply) {
	t.Helper()
	var body *bytes.Reader
	req, err := http.NewRequest(method, url, nil)
	if value != nil {
		body = bytes.NewReader([]byte(fmt.Sprintf(`{"value":%d}`, *value)))
		req, err = http.NewRequest(method, url, body)
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var reply kvReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatalf("%s %s: decoding reply: %v", method, url, err)
	}
	return resp.StatusCode, reply
}

func i64(v int64) *int64 { return &v }

// TestGatewayE2E is the facade's headline test: a gateway fronting a
// 2-shard, 3-member KV deployment serves tokenized PUT/GET/DELETE with
// swap semantics, a duplicated-token PUT applies exactly once (even
// when the duplicates race), a concurrent HTTP load survives killing
// the sequencer member mid-run, and afterwards each shard's surviving
// replicas report bit-identical consistency hashes.
func TestGatewayE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket sharded test")
	}
	bases, ms := bootKVMembers(t)
	m1, m2, m3 := ms[0], ms[1], ms[2]

	ring, err := server.FetchRing(bases, 5*time.Second, nil, debugLogf)
	if err != nil {
		t.Fatalf("fetching ring: %v", err)
	}
	gw, err := New(Options{Ring: ring, Clients: 4, RetryDeadline: 60 * time.Second, Logf: debugLogf})
	if err != nil {
		t.Fatalf("starting gateway: %v", err)
	}
	defer gw.Close()
	ts := httptest.NewServer(gw)
	defer ts.Close()
	cl := ts.Client()

	// --- Swap semantics and exactly-once, sequentially. ---
	if st, _ := doKV(t, cl, http.MethodGet, ts.URL+"/kv/1", nil); st != http.StatusNotFound {
		t.Fatalf("GET on absent key: HTTP %d, want 404", st)
	}
	st, r := doKV(t, cl, http.MethodPut, ts.URL+"/kv/1?token=alpha", i64(10))
	if st != http.StatusOK || r.Value == nil || *r.Value != 10 || r.Prev != nil {
		t.Fatalf("first PUT: HTTP %d reply %+v, want value=10 prev=null", st, r)
	}
	// Retried tokenized PUT: must replay the ORIGINAL prev (null), not
	// the value it wrote — the observable form of exactly-once.
	if st, r = doKV(t, cl, http.MethodPut, ts.URL+"/kv/1?token=alpha", i64(10)); st != http.StatusOK || r.Prev != nil {
		t.Fatalf("replayed PUT: HTTP %d prev %v, want prev=null (double apply?)", st, r.Prev)
	}
	if _, r = doKV(t, cl, http.MethodPut, ts.URL+"/kv/1?token=beta", i64(20)); r.Prev == nil || *r.Prev != 10 {
		t.Fatalf("second PUT prev %v, want 10", r.Prev)
	}
	if st, r = doKV(t, cl, http.MethodGet, ts.URL+"/kv/1", nil); st != http.StatusOK || r.Value == nil || *r.Value != 20 {
		t.Fatalf("GET after writes: HTTP %d reply %+v, want 20", st, r)
	}
	if _, r = doKV(t, cl, http.MethodDelete, ts.URL+"/kv/1?token=gamma", nil); r.Prev == nil || *r.Prev != 20 {
		t.Fatalf("DELETE prev %v, want 20", r.Prev)
	}
	if st, _ = doKV(t, cl, http.MethodGet, ts.URL+"/kv/1", nil); st != http.StatusNotFound {
		t.Fatalf("GET after DELETE: HTTP %d, want 404", st)
	}
	// Replayed DELETE: same recorded prev, no second removal observed.
	if _, r = doKV(t, cl, http.MethodDelete, ts.URL+"/kv/1?token=gamma", nil); r.Prev == nil || *r.Prev != 20 {
		t.Fatalf("replayed DELETE prev %v, want 20", r.Prev)
	}

	// --- Racing duplicates of ONE tokenized PUT apply exactly once. ---
	// Every duplicate must report the original prev (null). A double
	// apply would make a later duplicate see prev=5.
	var wg sync.WaitGroup
	dupPrev := make([]*int64, 6)
	for i := range dupPrev {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, r := doKV(t, cl, http.MethodPut, ts.URL+"/kv/2?token=dup", i64(5))
			if st == http.StatusOK {
				dupPrev[i] = r.Prev
			} else {
				dupPrev[i] = i64(-1)
			}
		}(i)
	}
	wg.Wait()
	for i, p := range dupPrev {
		if p != nil {
			t.Fatalf("racing duplicate %d: prev %v, want null (exactly-once violated)", i, *p)
		}
	}
	if _, r = doKV(t, cl, http.MethodGet, ts.URL+"/kv/2", nil); r.Value == nil || *r.Value != 5 {
		t.Fatalf("GET after racing duplicates: %+v, want 5", r)
	}

	// --- Health and metrics endpoints. ---
	resp, err := cl.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %v HTTP %v", err, resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = cl.Get(ts.URL + "/metricsz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metricsz: %v", err)
	}
	var m struct {
		Requests uint64   `json:"requests"`
		Errors   uint64   `json:"errors"`
		PerShard []uint64 `json:"per_shard"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("/metricsz decode: %v", err)
	}
	resp.Body.Close()
	if m.Requests == 0 || m.Errors != 0 || len(m.PerShard) != 2 {
		t.Fatalf("/metricsz counters %+v", m)
	}

	// --- Concurrent load across a sequencer kill. ---
	type loadOut struct {
		res *server.RunResult
		err error
	}
	ch := make(chan loadOut, 1)
	go func() {
		inv := DialHTTP(ts.URL, 70*time.Second)
		defer inv.Close()
		res, err := server.Run(server.RunOptions{
			Invoker:           inv,
			Clients:           8,
			RequestsPerClient: 25,
			Gen:               workload.KVGen(256, 0.5),
			Seed:              3,
			Logf:              debugLogf,
		})
		ch <- loadOut{res, err}
	}()

	// Kill member 1 — the view-0 sequencer of BOTH shard groups — only
	// once both shards have demonstrably served load-phase requests.
	waitShard := func(m *server.MultiServer, k int, cond func(server.Status) bool, msg string) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond(m.Tenant(k).Status()) {
			if time.Now().After(deadline) {
				t.Fatalf("%s; status %+v", msg, m.Tenant(k).Status())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	before := m2.Status()
	for k := 0; k < 2; k++ {
		completed := before.Shards[k].Completed
		waitShard(m2, k, func(st server.Status) bool { return st.Completed > completed },
			fmt.Sprintf("no load progress on shard %d before the kill", k))
	}
	m1.Close()

	out := <-ch
	if out.err != nil {
		t.Fatalf("HTTP load across sequencer kill: %v", out.err)
	}
	if out.res.Errors > 0 {
		t.Fatalf("%d HTTP errors across sequencer kill (of %d)", out.res.Errors, out.res.Sent)
	}
	if out.res.Measured != 8*25 {
		t.Fatalf("load performed %d requests, want %d", out.res.Measured, 8*25)
	}

	// --- Survivors: new view, new sequencer, bit-identical hashes. ---
	for k := 0; k < 2; k++ {
		for _, m := range []*server.MultiServer{m2, m3} {
			waitShard(m, k, func(st server.Status) bool { return st.View >= 1 && st.Sequencer == 2 },
				fmt.Sprintf("shard %d did not fail over to member 2", k))
		}
		waitShard(m3, k, func(st server.Status) bool {
			a, b := m2.Tenant(k).Status(), st
			return a.Completed == b.Completed && a.Hash == b.Hash
		}, fmt.Sprintf("shard %d survivors did not converge", k))
		a, b := m2.Tenant(k).Status(), m3.Tenant(k).Status()
		if a.Hash != b.Hash {
			t.Fatalf("shard %d hash fork: %016x vs %016x", k, a.Hash, b.Hash)
		}
	}
}
