package detmt_test

import (
	"net"
	"testing"
	"time"

	"detmt"
	"detmt/internal/workload"
)

// TestServeFacade boots a 2-replica TCP cluster through the public
// facade and drives one request through it.
func TestServeFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket cluster test")
	}
	wl := workload.Fig1Config{
		Iterations: 3, Mutexes: 8, PNested: 0.2, PCompute: 0.2,
		ComputeDur: 200 * time.Microsecond, Announceable: true,
	}
	lns := make([]net.Listener, 2)
	addrs := map[detmt.ReplicaID]string{}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[detmt.ReplicaID(i+1)] = ln.Addr().String()
	}
	for i := range lns {
		id := detmt.ReplicaID(i + 1)
		peers := map[detmt.ReplicaID]string{}
		for pid, a := range addrs {
			if pid != id {
				peers[pid] = a
			}
		}
		srv, err := detmt.NewServer(detmt.ServerOptions{
			ID: id, Listener: lns[i], Peers: peers,
			Scheduler: detmt.MAT, Workload: wl,
			NestedLatency: time.Millisecond,
			Tick:          2 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
	}
	inv, err := detmt.DialGroup(addrs, detmt.DialOptions{Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer inv.Close()
	res, err := detmt.RunLoad(detmt.LoadOptions{
		Invoker: inv, Clients: 1, RequestsPerClient: 2,
		Seed: 5, Gen: workload.Fig1Gen(wl, false), Timeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Errors > 0 {
		t.Fatalf("facade run: converged=%v errors=%d shards=%+v",
			res.Converged, res.Errors, res.PerShard)
	}
}
