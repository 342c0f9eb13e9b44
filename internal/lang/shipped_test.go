package lang_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"detmt/internal/analysis"
	"detmt/internal/core"
	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/vclock"
	"detmt/internal/workload"
)

var updateShipped = flag.Bool("update", false, "rewrite testdata/shipped.golden from the current interpreter")

// shippedObject is one object the tree ships, with the values its
// methods' argument vectors are drawn from: round k (0-3) of a method
// with n parameters passes vals[k], vals[k+1], ... vals[k+n-1]
// (cyclically). The values keep every call from blocking for good (the
// queue needs a positive capacity first) and from failing while it holds
// a monitor; a negative value last makes some round-3 calls fail on an
// index.
type shippedObject struct {
	name string
	src  string
	vals []int64
}

func shippedObjects(t *testing.T) []shippedObject {
	fig1Spont := workload.Fig1Config{Iterations: 4, Mutexes: 8, PNested: 0.2, PCompute: 0.2,
		ComputeDur: 1500 * time.Microsecond, CatchNested: true}
	objs := []shippedObject{
		{"fig1-default", workload.Fig1Source(workload.DefaultFig1()), []int64{0, 105, 250, 399, 42, 7, 321, 99, 18, 260, 133, 5, -3}},
		{"fig1-spontaneous-catch", workload.Fig1Source(fig1Spont), []int64{0, 9, 13, 31, 4, 26, -17}},
		{"families-default", workload.FamiliesSource(workload.DefaultFamilies()), []int64{0, 60, 125, 399, 13, 224, 77, 6}},
		{"kv-default", workload.KVSource(workload.DefaultKV()), []int64{7, 0, 3, -5, 7, 2, 64, 1}},
	}
	for _, ex := range exampleSources(t) {
		vals := []int64{3, 1, 5, 2, 4}
		if ex.dir == "bank" {
			vals[4] = -4
		}
		objs = append(objs, shippedObject{"example-" + ex.dir, ex.src, vals})
	}
	return objs
}

// TestShippedObjectsGolden runs every method of every shipped object,
// analysed as a replica runs it, with fixed argument vectors on one MAT
// runtime, and compares return values, error texts, the final Snapshot
// and the trace hashes with testdata/shipped.golden.
func TestShippedObjectsGolden(t *testing.T) {
	var b strings.Builder
	for _, so := range shippedObjects(t) {
		fmt.Fprintf(&b, "== %s\n", so.name)
		runShipped(t, &b, so)
	}
	path := filepath.Join("testdata", "shipped.golden")
	if *updateShipped {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("line %d differs:\n got  %q\n want %q", i+1, g, w)
			}
		}
	}
}

func runShipped(t *testing.T, b *strings.Builder, so shippedObject) {
	res, err := analysis.Analyze(lang.MustParse(so.src))
	if err != nil {
		t.Fatalf("%s: %v", so.name, err)
	}
	v := vclock.NewVirtual()
	rt := core.NewRuntime(core.Options{Clock: v, Scheduler: core.NewMAT(false), Static: res.Static, NestedDelay: time.Millisecond})
	in := lang.NewInstance(res.Object, 0)
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		g := vclock.NewGroup(v)
		tid := uint64(0)
		for k := 0; k < 4; k++ {
			for _, m := range res.Object.Methods {
				args := make([]lang.Value, len(m.Params))
				for i := range args {
					args[i] = so.vals[(k+i)%len(so.vals)]
				}
				tid++
				var got lang.Value
				var execErr error
				g.Add(1)
				rt.Submit(ids.ThreadID(tid), m.ID, func(th *core.Thread) {
					got, execErr = in.Exec(th, m.Name, args)
				}, g.Done)
				g.Wait()
				fmt.Fprintf(b, "%s%v -> %s", m.Name, args, formatValue(got))
				if execErr != nil {
					fmt.Fprintf(b, " error %q", execErr.Error())
				}
				b.WriteString("\n")
			}
		}
	})
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: timed out", so.name)
	}
	snap := in.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString("snapshot")
	for _, k := range keys {
		fmt.Fprintf(b, " %s=%s", k, formatValue(snap[k]))
	}
	fmt.Fprintf(b, "\ndecision %016x consistency %016x at %v\n",
		rt.Trace().DecisionHash(), rt.Trace().ConsistencyHash(), v.Now())
}

func formatValue(v lang.Value) string {
	if v == nil {
		return "null"
	}
	return fmt.Sprintf("%T(%v)", v, v)
}
