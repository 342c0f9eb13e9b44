package kvapi

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"detmt/internal/ids"
	"detmt/internal/server"
	"detmt/internal/workload"
)

// TestHTTPDrawGoldens characterises the facade load driver's draws, as
// internal/server's TestLoadDrawGoldens does for the wire drivers: one
// closed-loop client's first 32 operations (verb, key, written value) for
// seeds 1 and 7, observed at a recording HTTP server, recorded at commit
// 76c8ed4. They are also the stream workload.KVRequest draws from the same
// per-client RNG — which is what lets the facade and the direct driver
// share one generator.
func TestHTTPDrawGoldens(t *testing.T) {
	goldens := map[uint64]uint64{1: 0xdaef116788ed191a, 7: 0x81abb0780204710d}
	for seed, want := range goldens {
		var mu sync.Mutex
		var seen []string
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			line := r.Method + " " + strings.TrimPrefix(r.URL.Path, "/kv/")
			if r.Method == http.MethodPut {
				var body struct{ Value int64 }
				if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
					t.Errorf("PUT body: %v", err)
				}
				line += fmt.Sprint(" ", body.Value)
			}
			mu.Lock()
			seen = append(seen, line)
			mu.Unlock()
			w.Write([]byte("{}"))
		}))
		inv := DialHTTP(ts.URL, 0)
		res, err := server.Run(server.RunOptions{
			Invoker: inv, Clients: 1, RequestsPerClient: 32, Gen: workload.KVGen(64, 0.5), Seed: seed,
		})
		inv.Close()
		ts.Close()
		if err != nil || res.Errors > 0 {
			t.Fatalf("seed %d: err=%v errors=%d", seed, err, res.Errors)
		}

		rng := ids.NewRNG(seed).Fork()
		h := fnv.New64a()
		for i, line := range seen {
			_, method, args := workload.KVRequest(rng, 64, 0.5)
			ref := fmt.Sprint("GET ", args[0])
			if method == workload.KVPut {
				ref = fmt.Sprint("PUT ", args[0], " ", args[1])
			}
			if line != ref {
				t.Fatalf("seed %d op %d: facade driver sent %q, KVRequest draws %q", seed, i, line, ref)
			}
			fmt.Fprintln(h, line)
		}
		if got := h.Sum64(); len(seen) != 32 || got != want {
			t.Errorf("seed %d: %d ops, digest %#016x, golden %#016x", seed, len(seen), got, want)
		}
	}
}
