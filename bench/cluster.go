package main

// cluster.go boots the shipped binaries (detmt-server, detmt-gateway) as
// child processes, waits until they are ready by polling (never by
// sleeping a fixed time), samples their CPU and memory from /proc, and
// stops them. The flags and JSON fields used here are part of the frozen
// surface listed in README.md.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clusterSpec describes one deployment of the program.
type clusterSpec struct {
	serverArgs []string // workload flags, identical on every member
	shards     int      // 0: one group; N: multi-tenant -shards N
	gateway    bool     // front the cluster with detmt-gateway
	relays     bool     // traced run: interpose counting relays
}

const clusterSize = 3

// statusDoc is the slice of the "status" control document the benchmark
// reads.
type statusDoc struct {
	ID        int     `json:"id"`
	Shard     string  `json:"shard"`
	View      uint64  `json:"view"`
	Sequencer int     `json:"sequencer"`
	Completed int     `json:"completed"`
	Hash      uint64  `json:"hash"`
	NowVirtMs float64 `json:"now_virt_ms"`
	Recovery  string  `json:"recovery"`
	Nested    struct {
		Performed    uint64  `json:"performed"`
		Retries      uint64  `json:"retries"`
		LatencyP99Ms float64 `json:"latency_p99_ms"`
	} `json:"nested"`
	Classes *struct {
		Escalations     uint64 `json:"escalations"`
		MergeStalls     uint64 `json:"merge_stalls"`
		ParallelCommits uint64 `json:"parallel_commits"`
		SerialCommits   uint64 `json:"serial_commits"`
	} `json:"classes"`
	Error string `json:"error"`
}

func (s statusDoc) ready() bool {
	return s.Error == "" && s.View == 0 && s.Sequencer == 1 && s.Recovery == "caught_up"
}

// metricszDoc is the slice of the gateway's /metricsz the benchmark reads.
type metricszDoc struct {
	Requests  uint64             `json:"requests"`
	Errors    uint64             `json:"errors"`
	Retries   uint64             `json:"retries"`
	Imbalance float64            `json:"imbalance"`
	LatencyMs map[string]float64 `json:"latency_ms"`
}

// child is one spawned process.
type child struct {
	name   string
	cmd    *exec.Cmd
	exited chan struct{} // closed once Wait returned
}

func spawn(bin, name, logDir string, args ...string) (*child, error) {
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without stopping its children, the kernel
	// stops them.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, exited: make(chan struct{})}
	running.Lock()
	running.set[c] = true
	running.Unlock()
	go func() {
		cmd.Wait()
		logf.Close()
		running.Lock()
		delete(running.set, c)
		running.Unlock()
		close(c.exited)
	}()
	return c, nil
}

// running registers the children that have not exited yet, so that an
// interrupted benchmark can stop them.
var running = struct {
	sync.Mutex
	set map[*child]bool
}{set: map[*child]bool{}}

// killChildren kills every running child and waits until each has ended.
func killChildren() {
	running.Lock()
	var live []*child
	for c := range running.set {
		live = append(live, c)
	}
	running.Unlock()
	for _, c := range live {
		c.cmd.Process.Kill()
	}
	for _, c := range live {
		<-c.exited
	}
}

func (c *child) alive() bool {
	select {
	case <-c.exited:
		return false
	default:
		return true
	}
}

// term asks the process to exit.
func (c *child) term() {
	if c.alive() {
		c.cmd.Process.Signal(syscall.SIGTERM)
	}
}

// stop asks the process to exit, waits, and kills it if it lingers.
func (c *child) stop() {
	c.term()
	select {
	case <-c.exited:
	case <-time.After(3 * time.Second):
		c.cmd.Process.Kill()
		<-c.exited
	}
}

// cluster is a running deployment.
type cluster struct {
	spec    clusterSpec
	members []*child       // index i hosts member id i+1
	gw      *child         // nil without a gateway
	addrs   map[int]string // member id -> listen (base) address
	gwURL   string

	// clientAddrs is what the load generator dials: addrs, or the
	// client->member relays in a traced run.
	clientAddrs map[int]string
	clientLinks []*relay // traced: generator->member (or ->gateway)
	peerLinks   []*relay // traced: sequencer->follower

	ctl       []*wireClient // one per group, for status polling
	bootReady time.Duration // first spawn until every member ready
}

var errEarlyExit = errors.New("a child process exited during boot")

// bootCluster runs the boot protocol: members 2 and 3 first, member 1
// (the view-0 sequencer) last once they listen, every member with
// -detect-timeout 3s; then it polls status until every member of every
// group reports view=0, sequencer=1, recovery=caught_up. A lost
// bind-after-close port race is retried once; the retry's time stays in
// the caller's set-up measurement.
func bootCluster(env *benchEnv, spec clusterSpec) (*cluster, error) {
	c, err := bootOnce(env, spec)
	if errors.Is(err, errEarlyExit) {
		fmt.Fprintf(os.Stderr, "bench: %v; retrying boot once on fresh ports\n", err)
		c, err = bootOnce(env, spec)
	}
	return c, err
}

func bootOnce(env *benchEnv, spec clusterSpec) (_ *cluster, err error) {
	start := time.Now()
	width := spec.shards
	if width < 1 {
		width = 1
	}
	// c is returned only on success; on any error the deferred stop ends
	// the children and relays started so far.
	c := &cluster{spec: spec, addrs: map[int]string{}, members: make([]*child, clusterSize)}
	defer func() {
		if err != nil {
			c.stop()
		}
	}()
	for id := 1; id <= clusterSize; id++ {
		port, err := reservePorts(width)
		if err != nil {
			return nil, err
		}
		c.addrs[id] = "127.0.0.1:" + strconv.Itoa(port)
	}

	// In a traced run member 1 reaches its followers through counting
	// relays, so everything the sequencer multicasts is counted without a
	// hook inside the program. (Not with -shards: there the members derive
	// the ring from their peer lists and must agree on it.)
	peerAddr := func(from, to int) string { return c.addrs[to] }
	if spec.relays && spec.shards == 0 {
		via := map[int]string{}
		for _, to := range []int{2, 3} {
			r, err := startRelay(c.addrs[to])
			if err != nil {
				return nil, err
			}
			c.peerLinks = append(c.peerLinks, r)
			via[to] = r.addr()
		}
		peerAddr = func(from, to int) string {
			if from == 1 {
				return via[to]
			}
			return c.addrs[to]
		}
	}

	startMember := func(id int) error {
		var peers []string
		for p := 1; p <= clusterSize; p++ {
			if p != id {
				peers = append(peers, fmt.Sprintf("%d=%s", p, peerAddr(id, p)))
			}
		}
		args := []string{
			"-id", strconv.Itoa(id),
			"-listen", c.addrs[id],
			"-peers", strings.Join(peers, ","),
			"-detect-timeout", "3s",
		}
		if spec.shards > 0 {
			args = append(args, "-shards", strconv.Itoa(spec.shards))
		}
		args = append(args, spec.serverArgs...)
		ch, err := spawn(env.serverBin, "member"+strconv.Itoa(id), env.runDir, args...)
		if err != nil {
			return err
		}
		c.members[id-1] = ch
		return nil
	}
	listening := func(ids ...int) error {
		for _, id := range ids {
			for k := 0; k < width; k++ {
				if err := waitListening(offsetAddr(c.addrs[id], k), c.members[id-1]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, id := range []int{2, 3} {
		if err := startMember(id); err != nil {
			return nil, err
		}
	}
	if err := listening(2, 3); err != nil {
		return nil, err
	}
	if err := startMember(1); err != nil {
		return nil, err
	}
	if err := listening(1); err != nil {
		return nil, err
	}

	// One control transport per group.
	for k := 0; k < width; k++ {
		tag := ""
		servers := c.addrs
		if spec.shards > 0 {
			tag = "g" + strconv.Itoa(k)
			servers = map[int]string{}
			for id, a := range c.addrs {
				servers[id] = offsetAddr(a, k)
			}
		}
		ctl, err := dialWire("bench-ctl", tag, servers, 0)
		if err != nil {
			return nil, err
		}
		c.ctl = append(c.ctl, ctl)
	}
	if err := c.waitReady(20 * time.Second); err != nil {
		return nil, err
	}
	c.bootReady = time.Since(start)

	c.clientAddrs = c.addrs
	if spec.gateway {
		port, err := reservePorts(1)
		if err != nil {
			return nil, err
		}
		listen := "127.0.0.1:" + strconv.Itoa(port)
		bases := make([]string, 0, clusterSize)
		for id := 1; id <= clusterSize; id++ {
			bases = append(bases, c.addrs[id])
		}
		c.gw, err = spawn(env.gatewayBin, "gateway", env.runDir,
			"-listen", listen, "-servers", strings.Join(bases, ","), "-epochs", env.runDir)
		if err != nil {
			return nil, err
		}
		c.gwURL = "http://" + listen
		if err := waitHealthy(c.gwURL+"/healthz", c.gw); err != nil {
			return nil, err
		}
		if spec.relays {
			r, err := startRelay(listen)
			if err != nil {
				return nil, err
			}
			c.clientLinks = append(c.clientLinks, r)
			c.gwURL = "http://" + r.addr()
		}
	} else if spec.relays {
		c.clientAddrs = map[int]string{}
		for id := 1; id <= clusterSize; id++ {
			r, err := startRelay(c.addrs[id])
			if err != nil {
				return nil, err
			}
			c.clientLinks = append(c.clientLinks, r)
			c.clientAddrs[id] = r.addr()
		}
	}
	return c, nil
}

// waitReady polls until every member of every group is ready.
func (c *cluster) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		sts, err := c.statuses()
		if err == nil {
			ok := true
			for _, st := range sts {
				ok = ok && st.ready()
			}
			if ok {
				return nil
			}
		}
		for _, m := range c.members {
			if !m.alive() {
				return fmt.Errorf("%w: %s", errEarlyExit, m.name)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster not ready (view=0 sequencer=1 caught_up) after %v: %v %s", limit, err, statusTable(sts))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// statuses polls every member of every group concurrently and returns
// the documents ordered by (group, member id).
func (c *cluster) statuses() ([]statusDoc, error) {
	type res struct {
		st  statusDoc
		err error
	}
	out := make([]res, len(c.ctl)*clusterSize)
	var wg sync.WaitGroup
	for k, ctl := range c.ctl {
		for id := 1; id <= clusterSize; id++ {
			wg.Add(1)
			go func(slot int, ctl *wireClient, id int) {
				defer wg.Done()
				b, err := ctl.control(id, "status", time.Second)
				if err == nil {
					err = json.Unmarshal(b, &out[slot].st)
				}
				out[slot].err = err
			}(k*clusterSize+id-1, ctl, id)
		}
	}
	wg.Wait()
	sts := make([]statusDoc, len(out))
	var first error
	for i, r := range out {
		sts[i] = r.st
		if r.err != nil && first == nil {
			first = r.err
		}
	}
	return sts, first
}

// metricsz fetches the gateway's metrics document.
func (c *cluster) metricsz() (metricszDoc, error) {
	var doc metricszDoc
	resp, err := http.Get(c.gwURL + "/metricsz")
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	return doc, json.NewDecoder(resp.Body).Decode(&doc)
}

// serverPIDs returns the pids of the server-side children: members
// first (id order), the gateway last.
func (c *cluster) serverPIDs() []int {
	var pids []int
	for _, m := range c.members {
		pids = append(pids, m.cmd.Process.Pid)
	}
	if c.gw != nil {
		pids = append(pids, c.gw.cmd.Process.Pid)
	}
	return pids
}

func (c *cluster) stop() {
	for _, ctl := range c.ctl {
		ctl.close()
	}
	c.ctl = nil
	if c.gw != nil {
		c.gw.stop()
	}
	// Followers first: stopping the sequencer first would start an
	// election among processes that are about to exit anyway. Every member
	// is asked before any is waited for: now and then one takes seconds to
	// exit (two runs of forty took 36 and 47 s instead of 30), and waiting
	// for one after another adds those up.
	for _, stop := range []func(*child){(*child).term, (*child).stop} {
		for i := len(c.members) - 1; i >= 0; i-- {
			if c.members[i] != nil {
				stop(c.members[i])
			}
		}
	}
	for _, r := range append(c.clientLinks, c.peerLinks...) {
		r.close()
	}
}

// statusTable renders the per-replica completed/hash table printed when
// a check fails.
func statusTable(sts []statusDoc) string {
	var b strings.Builder
	b.WriteString("\n  shard member view seq completed hash             recovery\n")
	for _, st := range sts {
		fmt.Fprintf(&b, "  %-5s %6d %4d %3d %9d %016x %s %s\n",
			st.Shard, st.ID, st.View, st.Sequencer, st.Completed, st.Hash, st.Recovery, st.Error)
	}
	return b.String()
}

// ---- ports and readiness ---------------------------------------------

// reservePorts finds n contiguous free loopback ports and returns the
// first. The listeners are closed before the server binds them; a lost
// race makes the server exit, which bootCluster retries.
func reservePorts(n int) (int, error) {
	for attempt := 0; attempt < 20; attempt++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		base := ln.Addr().(*net.TCPAddr).Port
		held := []net.Listener{ln}
		ok := true
		for k := 1; k < n && ok; k++ {
			l, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(base+k))
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
			return base, nil
		}
	}
	return 0, fmt.Errorf("could not reserve %d contiguous ports", n)
}

func offsetAddr(base string, k int) string {
	host, port, _ := net.SplitHostPort(base)
	p, _ := strconv.Atoi(port)
	return net.JoinHostPort(host, strconv.Itoa(p+k))
}

// waitFor polls probe every 5 ms until it succeeds, owner exits, or 15 s
// have passed.
func waitFor(owner *child, what string, probe func() error) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		err := probe()
		if err == nil {
			return nil
		}
		if !owner.alive() {
			return fmt.Errorf("%w: %s (see its log)", errEarlyExit, owner.name)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: %s: %v", owner.name, what, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitListening(addr string, owner *child) error {
	return waitFor(owner, "does not listen on "+addr, func() error {
		conn, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			conn.Close()
		}
		return err
	})
}

func waitHealthy(url string, owner *child) error {
	return waitFor(owner, "not healthy at "+url, func() error {
		resp, err := http.Get(url)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		return nil
	})
}

// ---- /proc sampling ---------------------------------------------------

// procSample is one process's cumulative CPU and current resident set.
type procSample struct {
	onCPUMs       float64 // scheduler's on-CPU time, summed over threads
	userMs, sysMs float64 // tick-sampled split, only good for a ratio
	rssKB         float64
}

func (p procSample) cpuMs() float64 { return p.onCPUMs }

// clockTickMs is the kernel's USER_HZ granularity of /proc/<pid>/stat
// (100 Hz on every Linux build this runs on).
const clockTickMs = 10.0

// sampleProc reads one process from /proc. CPU time comes from the
// scheduler's per-thread run time (/proc/<pid>/task/*/schedstat, in ns),
// not from utime+stime: those are sampled at the timer tick, and here
// every process wakes ON the timer tick, which aliases them by up to a
// factor of two from one boot to the next.
func sampleProc(pid int) (procSample, error) {
	var s procSample
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return s, fmt.Errorf("no /proc/%d/task/*/schedstat (process gone, or kernel without scheduler statistics)", pid)
	}
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		if f := strings.Fields(string(b)); len(f) > 0 {
			ns, _ := strconv.ParseFloat(f[0], 64)
			s.onCPUMs += ns / 1e6
		}
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b[strings.LastIndexByte(string(b), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	s.userMs, s.sysMs = ut*clockTickMs, st*clockTickMs
	m, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return s, err
	}
	mf := strings.Fields(string(m))
	if len(mf) < 2 {
		return s, fmt.Errorf("short /proc/%d/statm", pid)
	}
	pages, _ := strconv.ParseFloat(mf[1], 64)
	s.rssKB = pages * float64(os.Getpagesize()) / 1024
	return s, nil
}

func sampleProcs(pids []int) ([]procSample, error) {
	out := make([]procSample, len(pids))
	for i, pid := range pids {
		s, err := sampleProc(pid)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// mean returns the mean of vs (0 for an empty slice).
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// midmean returns the interquartile mean of vs: the mean of what is left
// after the lowest and the highest quarter (rounded down) are dropped.
func midmean(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	drop := len(s) / 4
	return mean(s[drop : len(s)-drop])
}

// median returns the median of vs (0 for an empty slice).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
