package main

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// Every name the program prints is a name BENCHMARK.json declares, with
// the same unit, and the other way round.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	doc := loadContract(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	check := func(kind string, defs []metricDef, got map[string]string) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(defs))
		}
		for _, d := range defs {
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("%s: %q (%q) is not a valid name and unit", kind, d.name, d.unit)
			}
			if unit, ok := got[d.name]; !ok {
				t.Errorf("%s: %s is printed but not in BENCHMARK.json", kind, d.name)
			} else if unit != d.unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the program", kind, d.name, unit, d.unit)
			}
		}
	}
	e2e := map[string]string{}
	setup := false
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	check("end_to_end", endToEndDefs, e2e)
	layers := map[string]string{}
	for _, m := range doc.PerLayer {
		layers[m.Name] = m.Unit
	}
	check("per_layer", perLayerDefs, layers)

	want := map[string]bool{"sim-fig1": true}
	for _, wl := range socketWorkloads() {
		want[wl.name] = true
	}
	for _, wl := range doc.Workloads {
		if !want[wl.Name] {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", wl.Name)
		}
		delete(want, wl.Name)
	}
	for name := range want {
		t.Errorf("workload %q is missing from BENCHMARK.json", name)
	}
}

// One seed gives the same inputs and the same virtual numbers; another
// seed gives other inputs.
func TestSimRepeatsPerSeed(t *testing.T) {
	virtual := func(seed uint64) map[string]float64 {
		sw, err := runSweep(3, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		m := metricSet{}
		simEndToEnd(m, []*sweep{sw})
		sw.layerMetrics(m)
		// Wall-clock costs are the only numbers allowed to differ.
		for k := range m {
			if strings.Contains(k, "sim_wall") {
				delete(m, k)
			}
		}
		return m
	}
	a, b, c := virtual(1), virtual(1), virtual(2)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seed 1 twice gave different virtual metrics:\n%v\n%v", a, b)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 1 and 2 gave identical virtual metrics")
	}
	for _, obj := range []objectSpec{paperObject(), fig1Object(e15Body()), familiesObject(4, 0.2), kvObject(kvKeys)} {
		if !reflect.DeepEqual(obj.corpus(1, 16), obj.corpus(1, 16)) {
			t.Error("one seed gave two corpora")
		}
		if reflect.DeepEqual(obj.corpus(1, 16), obj.corpus(2, 16)) {
			t.Error("seeds 1 and 2 gave one corpus")
		}
	}
}

func TestLaneBreakdownAddsUp(t *testing.T) {
	c := runSimCell(simKinds[4].kind, 4, 3, 1) // MAT
	ln := decomposeLanes(c.tr)
	if ln.runMs <= 0 || ln.nestedMs < 0 || ln.blockedMs < 0 || ln.queuedMs < 0 {
		t.Fatalf("lane breakdown has a non-positive part: %+v", ln)
	}
}

func TestPercentileAndArrivals(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3}
	if got := percentile(vs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(vs, 99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	lead, total := loadPlan{rate: 150, leadIn: 2 * time.Second, window: 5 * time.Second}.arrivals()
	if lead != 300 || total != 1050 {
		t.Errorf("arrivals = %d, %d; want 300, 1050", lead, total)
	}
}

// The open loop charges a stall to every request due during it and
// counts a failed request as missing the limit.
func TestLoadCountsFailures(t *testing.T) {
	res := runLoad(loadPlan{
		rate: 200, window: 500 * time.Millisecond,
		issue: func(i int) func() error {
			return func() error {
				if i%10 == 0 {
					return io.ErrUnexpectedEOF
				}
				return nil
			}
		},
	})
	st := statsOf(res.measured)
	if st.attempted != 100 || st.failed != 10 || st.completed != 90 {
		t.Errorf("attempted %d failed %d completed %d; want 100, 10, 90", st.attempted, st.failed, st.completed)
	}
}

// A freeze that also stops the generator spoils one second of a window,
// and that second is told apart by the generator's own lag.
func TestSlicesSetAFreezeAside(t *testing.T) {
	if got := midmean([]float64{9, 1, 2, 3, 4, 5, 6, 100}); got != 4.5 {
		t.Errorf("midmean = %v, want 4.5 (mean of 3, 4, 5, 6)", got)
	}
	samples := make([]sample, 300) // 3 s at 100 req/s
	measured := make([]*sample, len(samples))
	for i := range samples {
		s := &samples[i]
		s.intent = time.Duration(i) * 10 * time.Millisecond
		s.submit0, s.reply, s.ok = s.intent, s.intent+2*time.Millisecond, true
		if i >= 120 && i < 140 { // frozen from 1.2 s to 1.4 s
			s.submit0 = 1400 * time.Millisecond
			s.reply = s.submit0 + 2*time.Millisecond
		}
		s.done.Store(true)
		measured[i] = s
	}
	sl := slicesOf(measured, 3*time.Second)
	if len(sl) != 3 || sl[0].stalled || !sl[1].stalled || sl[2].stalled {
		t.Fatalf("slices = %+v; want three, the second stalled", sl)
	}
	if sl[0].p99Ms != 2 || sl[1].p99Ms <= 100 || sl[2].p99Ms != 2 {
		t.Errorf("p99 per slice = %v, %v, %v; want 2, >100, 2", sl[0].p99Ms, sl[1].p99Ms, sl[2].p99Ms)
	}
}

func TestRelayCounts(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // echo server
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(c, c); c.Close() }()
		}
	}()
	r, err := startRelay(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", r.addr())
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 1000)
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, msg); err != nil {
		t.Fatal(err)
	}
	c.Close()
	r.close()
	got := r.counts()
	if got.fwdBytes != 1000 || got.revBytes != 1000 || got.fwdChunks < 1 || got.revChunks < 1 {
		t.Errorf("relay counted %+v, want 1000 bytes each way", got)
	}
}

// A child that exits during boot (a lost bind-after-close port race looks
// like this) is reported as errEarlyExit, not a crash; the boot is retried
// once, and no child outlives either attempt.
func TestBootRetriesEarlyExit(t *testing.T) {
	dir := t.TempDir()
	calls := filepath.Join(dir, "calls")
	bin := filepath.Join(dir, "exits-at-once")
	script := "#!/bin/sh\necho \"$@\" >> " + calls + "\nexit 1\n"
	if err := os.WriteFile(bin, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	c, err := bootCluster(&benchEnv{runDir: dir, serverBin: bin}, clusterSpec{})
	if c != nil || !errors.Is(err, errEarlyExit) {
		t.Fatalf("bootCluster = %v, %v; want nil, errEarlyExit", c, err)
	}
	// Each attempt starts member 2 first and sees it exit. (Member 3 may
	// be stopped before it has written its line.)
	b, err := os.ReadFile(calls)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(b), "-id 2 "); got != 2 {
		t.Errorf("member 2 was spawned %d times, want 2 (the boot and one retry):\n%s", got, b)
	}
	running.Lock()
	left := len(running.set)
	running.Unlock()
	if left != 0 {
		t.Errorf("%d children still running after the failed boot", left)
	}
}

// The socket workloads boot real processes; they run only on request.
func TestSocketSmoke(t *testing.T) {
	if os.Getenv("DETMT_BENCH_SMOKE") != "1" {
		t.Skip("set DETMT_BENCH_SMOKE=1 to boot the socket workloads")
	}
	for _, wl := range socketWorkloads() {
		for _, traced := range []bool{false, true} {
			tr := 0
			if traced {
				tr = 1
			}
			env, err := prepare(wl.name, 1, tr)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := runSocket(env, wl, 1, 2, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !rep.correct || rep.failed != 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d notes=%v", wl.name, traced, rep.correct, rep.failed, rep.notes)
			}
			if err := rep.print(io.Discard, wl.name, traced); err != nil {
				t.Errorf("%s traced=%v: %v", wl.name, traced, err)
			}
		}
	}
}
