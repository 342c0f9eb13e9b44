package main

// metrics.go declares every metric the benchmark prints, by name and
// unit. BENCHMARK.json lists the same names; bench_test.go checks that
// the two agree.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

type metricDef struct{ name, unit string }

// endToEndDefs are printed by an untraced run (--trace 0), on every
// workload.
var endToEndDefs = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"goodput_rps", "1/s"},
	{"rss_mb", "MB"},
	{"setup_s", "s"},
	{"virt_latency_ms_sat", "ms"},
	{"virt_latency_ms_lsa", "ms"},
	{"virt_latency_ms_pds", "ms"},
	{"virt_latency_ms_mat", "ms"},
	{"virt_latency_ms_pmat", "ms"},
}

// perLayerDefs are printed by a traced run (--trace 1), on every
// workload; a layer that does no work on a workload reads 0.
var perLayerDefs = func() []metricDef {
	defs := []metricDef{
		{"server.cpu_ms_per_req", "ms"},
		{"server.sequencer_cpu_ms_per_req", "ms"},
		{"server.follower_cpu_ms_per_req", "ms"},
		{"server.sequencer_sys_share", "ratio"},
		{"server.rss_growth_kb_per_kreq", "KB"},
		{"server.boot_ready_ms", "ms"},
		{"vclock.follower_lead_ms", "ms"},
		{"gcs.view_changes", "count"},
		{"gcs.msgs_per_req", "count"},
		{"gcs.broadcasts_per_req", "count"},
		{"wire.client_bytes_per_req", "B"},
		{"wire.peer_bytes_per_req", "B"},
		{"wire.peer_chunks_per_req", "count"},
		{"wire.encode_ns", "ns"},
		{"wire.decode_ns", "ns"},
		{"wire.envelope_bytes", "B"},
		{"replica.nested_performed_per_req", "count"},
		{"replica.nested_p99_ms", "ms"},
		{"replica.nested_retries", "count"},
		{"replica.submit_us", "us"},
		{"sim_wall_us_per_req", "us"},
		{"core.virt_latency_ms_seq", "ms"},
		{"core.trace_events_per_req", "count"},
		{"core.parallel_commit_ratio", "ratio"},
		{"core.merge_stalls_per_req", "count"},
		{"core.escalations_per_req", "count"},
		{"earlysched.classify_ns", "ns"},
		{"earlysched.global_share", "ratio"},
		{"lockpred.bookkeeping_events_per_req", "count"},
		{"analysis.analyze_ms", "ms"},
		{"trace.record_ns", "ns"},
		{"kvapi.gateway_p50_ms", "ms"},
		{"kvapi.gateway_p99_ms", "ms"},
		{"kvapi.http_hop_p50_ms", "ms"},
		{"kvapi.get_p50_ms", "ms"},
		{"kvapi.put_p50_ms", "ms"},
		{"kvapi.gateway_cpu_ms_per_req", "ms"},
		{"kvapi.http_bytes_per_req", "B"},
		{"kvapi.retries", "count"},
		{"shard.imbalance", "ratio"},
		{"shard.route_ns", "ns"},
		{"bench.schedule_lag_p99_ms", "ms"},
		{"bench.generator_cpu_ms_per_req", "ms"},
		{"bench.trace_overhead_pct", "%"},
		{"bench.build_s", "s"},
		{"bench.failed_share", "ratio"},
		{"bench.samples", "count"},
	}
	for _, k := range simKinds {
		defs = append(defs,
			metricDef{"core.queued_virt_ms." + k.name, "ms"},
			metricDef{"core.blocked_virt_ms." + k.name, "ms"},
			metricDef{"core.nested_virt_ms." + k.name, "ms"},
			metricDef{"core.run_virt_ms." + k.name, "ms"},
			metricDef{"core.sim_wall_us_per_req." + k.name, "us"},
		)
	}
	return defs
}()

var declared = func() map[string]bool {
	m := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		m[d.name] = true
	}
	return m
}()

// metricSet holds measured values by declared name.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) {
	if !declared[name] {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	m[name] = v
}

// report is the outcome of one run of one workload.
type report struct {
	endToEnd  metricSet
	perLayer  metricSet
	attempted int
	failed    int
	correct   bool
	notes     []string // why a check failed, or why a run is invalid
}

func newReport() *report {
	return &report{endToEnd: metricSet{}, perLayer: metricSet{}, correct: true}
}

// fail records a failed correctness check: the run's requests all count
// as failed.
func (r *report) fail(err error) {
	r.correct = false
	r.notes = append(r.notes, err.Error())
}

func (r *report) note(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the metrics as a table and, as the last line, the JSON
// object the driver reads.
func (r *report) print(w io.Writer, workload string, traced bool) error {
	defs, vals := endToEndDefs, r.endToEnd
	if traced {
		defs, vals = perLayerDefs, r.perLayer
	}
	failed := r.failed
	if !r.correct {
		failed = r.attempted
	}
	if r.attempted < 1 {
		r.attempted = 1
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, failed, map[string]jsonMetric{}}

	sorted := append([]metricDef(nil), defs...)
	if traced {
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	}
	fmt.Fprintf(w, "workload %s: attempted=%d failed=%d correct=%v\n", workload, r.attempted, failed, r.correct)
	for _, d := range sorted {
		v, ok := vals[d.name]
		if !ok && !traced && r.correct {
			return fmt.Errorf("workload %s did not measure %s", workload, d.name)
		}
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = jsonMetric{v, d.unit}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	return json.NewEncoder(w).Encode(out)
}
