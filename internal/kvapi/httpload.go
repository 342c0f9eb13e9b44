package kvapi

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"detmt/internal/lang"
	"detmt/internal/server"
	"detmt/internal/workload"
)

// HTTPInvoker is the load engine's path through a facade gateway: it
// turns the KV object's calls (workload.KVGen) into the HTTP requests a
// web client would send, so a run through the gateway and a run straight
// at the shards draw the very same operations. Nothing behind the gateway
// is visible from here: it reports no shards, and a run through it checks
// replies only.
type HTTPInvoker struct {
	base string
	cl   *http.Client
	seq  atomic.Uint64
}

// DialHTTP returns an invoker for the gateway at base, e.g.
// "http://127.0.0.1:8080". timeout bounds one HTTP request (0: 35s —
// above the gateway's own default retry deadline, so ITS verdict wins).
func DialHTTP(base string, timeout time.Duration) *HTTPInvoker {
	if timeout <= 0 {
		timeout = 35 * time.Second
	}
	const conns = 256
	return &HTTPInvoker{base: base, cl: &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}}
}

// Shards implements server.Invoker: none are visible behind the facade.
func (h *HTTPInvoker) Shards() int { return 0 }

// Statuses implements server.Invoker.
func (h *HTTPInvoker) Statuses(int) ([]server.Status, error) {
	return nil, fmt.Errorf("kvapi: replica statuses are not visible through the facade")
}

// Close drops the idle connections.
func (h *HTTPInvoker) Close() { h.cl.CloseIdleConnections() }

// httpPending is one request in flight.
type httpPending struct {
	done    chan struct{}
	latency time.Duration
	err     error
}

func (p *httpPending) Wait() (lang.Value, time.Duration, error) {
	<-p.done
	return nil, p.latency, p.err
}

// Submit implements server.Invoker: one HTTP request per call (the slot is
// the gateway's business, and HTTP has no atomic batch).
func (h *HTTPInvoker) Submit(_ int, calls []server.Call) []server.Pending {
	out := make([]server.Pending, len(calls))
	for i, c := range calls {
		p := &httpPending{done: make(chan struct{})}
		out[i].Waiter = p
		go func(c server.Call) {
			begin := time.Now()
			p.err = h.do(c)
			p.latency = time.Since(begin)
			close(p.done)
		}(c)
	}
	return out
}

// do performs one facade request. 2xx and 404 (GET on an absent key) are
// successes; anything else is an error. Write tokens are unique per call
// (the generator measures throughput, not dedup hit rate).
func (h *HTTPInvoker) do(c server.Call) error {
	var verb string
	var token lang.Value
	var body io.Reader
	switch {
	case c.Method == workload.KVGet && len(c.Args) == 1:
		verb = http.MethodGet
	case c.Method == workload.KVPut && len(c.Args) == 3:
		verb, token = http.MethodPut, c.Args[2]
		body = bytes.NewReader([]byte(fmt.Sprintf(`{"value":%v}`, c.Args[1])))
	case c.Method == workload.KVDel && len(c.Args) == 2:
		verb, token = http.MethodDelete, c.Args[1]
	default:
		return fmt.Errorf("kvapi: the facade has no verb for %s/%d", c.Method, len(c.Args))
	}
	url := fmt.Sprintf("%s/kv/%v", h.base, c.Args[0])
	if token != nil {
		url += fmt.Sprintf("?token=load-%v-%d", token, h.seq.Add(1))
	}
	req, err := http.NewRequest(verb, url, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.cl.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 || resp.StatusCode == http.StatusNotFound {
		return nil
	}
	return fmt.Errorf("%s %s: HTTP %d", verb, url, resp.StatusCode)
}
