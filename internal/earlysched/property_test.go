package earlysched

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"detmt/internal/analysis"
	"detmt/internal/gcs"
	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/replica"
	"detmt/internal/trace"
	"detmt/internal/vclock"
)

// genSource generates a random but analyzable object with a mix of
// classification outcomes: per-family methods over private monitor
// arrays and fields (classifiable and mutually disjoint — unless an op
// escalates the method: a whole-array index, or a loop over the array,
// whose repeat variable makes the lock parameter spontaneous), a
// cross-family method over a shared array with an unbounded index
// (escalates to the global class), and pure computation (no footprint). Wait/notify and
// nested invocations are deliberately excluded: the requests must run
// to completion on a detached serial replica for the cross-check.
func genSource(seed uint64) (src string, methods []string) {
	rng := ids.NewRNG(seed)
	nFam := 2 + rng.Intn(3)
	var b strings.Builder
	b.WriteString("object Rand {\n")
	for f := 0; f < nFam; f++ {
		fmt.Fprintf(&b, "    monitor ma%d[4];\n", f)
		fmt.Fprintf(&b, "    field fv%d;\n", f)
	}
	b.WriteString("    monitor sh[8];\n\n")
	for f := 0; f < nFam; f++ {
		nM := 1 + rng.Intn(2)
		for mi := 0; mi < nM; mi++ {
			name := fmt.Sprintf("fam%dm%d", f, mi)
			methods = append(methods, name)
			fmt.Fprintf(&b, "    method %s(p) {\n", name)
			nOps := 1 + rng.Intn(3)
			for oi := 0; oi < nOps; oi++ {
				switch rng.Intn(5) {
				case 0: // constant element of the family array
					fmt.Fprintf(&b, "        sync (ma%d[%d]) { fv%d = fv%d + 1; }\n", f, rng.Intn(4), f, f)
				case 1: // parameter index over the whole family array: global
					fmt.Fprintf(&b, "        sync (ma%d[((p %% 4) + 4) %% 4]) { fv%d = fv%d + 2; }\n", f, f, f)
				case 2: // constant-bound loop over a prefix of the array: the
					// index is the repeat variable, reassigned every iteration,
					// so the site is spontaneous and the method global (making
					// loop-variable sites classifiable is ROADMAP item 5)
					fmt.Fprintf(&b, "        repeat i : %d {\n            sync (ma%d[i]) { fv%d = fv%d + 1; }\n        }\n",
						1+rng.Intn(3), f, f, f)
				case 3: // branch with a sync on one side
					fmt.Fprintf(&b, "        if (p %% 2 == %d) {\n            sync (ma%d[%d]) { fv%d = fv%d + 3; }\n        } else {\n            compute(200us);\n        }\n",
						rng.Intn(2), f, rng.Intn(4), f, f)
				case 4:
					fmt.Fprintf(&b, "        compute(%dus);\n", 100+rng.Intn(500))
				}
			}
			b.WriteString("    }\n\n")
		}
	}
	// Global: the index spans the whole shared array, so prediction
	// cannot bound the footprint below "everything".
	methods = append(methods, "crossAll")
	b.WriteString("    method crossAll(p) {\n        sync (sh[((p % 8) + 8) % 8]) { fv0 = fv0 + 1; }\n    }\n\n")
	methods = append(methods, "pure")
	b.WriteString("    method pure(p) {\n        compute(150us);\n    }\n")
	b.WriteString("}\n")
	return b.String(), methods
}

// drawArg draws a request argument: mostly small, but also negatives
// (what the double-mod idiom exists for), large magnitudes and both ends
// of the integer range.
func drawArg(rng *ids.RNG) int64 {
	switch rng.Intn(8) {
	case 0, 1:
		return -int64(1 + rng.Intn(64))
	case 2:
		return int64(rng.Uint64()) // anywhere, either sign
	case 3:
		return []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64}[rng.Intn(4)]
	}
	return int64(rng.Intn(32))
}

// lockSets replays the synthesized request log on a detached serial
// (SEQ) replica and returns each request's actual acquired-lock set,
// keyed by thread (= request) id.
func lockSets(t *testing.T, res *analysis.Result, nFam int, log []replica.LogEntry) map[ids.ThreadID]map[ids.MutexID]bool {
	t.Helper()
	v := vclock.NewVirtual()
	var rep *replica.Replica
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		rep = replica.ReplayDetached(v, replica.Config{Analysis: res, Kind: replica.KindSEQ}, log)
		for f := 0; f < nFam; f++ {
			rep.Instance().SetField(fmt.Sprintf("fv%d", f), int64(0))
		}
		v.Sleep(5 * time.Second)
	})
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("serial replay timed out")
	}
	actual := map[ids.ThreadID]map[ids.MutexID]bool{}
	for _, e := range rep.Runtime().Trace().Events() {
		if e.Kind != trace.KindLockAcq {
			continue
		}
		if actual[e.Thread] == nil {
			actual[e.Thread] = map[ids.MutexID]bool{}
		}
		actual[e.Thread][e.Mutex] = true
	}
	return actual
}

// TestClassDisjointnessProperty is the classifier's soundness property
// over random programs: requests assigned distinct non-global classes
// have (a) disjoint *predicted* lock sets and (b) — cross-checked
// against a serial execution's trace — disjoint *actual* lock sets,
// with every actual set contained in its prediction.
func TestClassDisjointnessProperty(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			src, methods := genSource(seed)
			obj, err := lang.Parse(src)
			if err != nil {
				t.Fatalf("generated source does not parse: %v\n%s", err, src)
			}
			res, err := analysis.Analyze(obj)
			if err != nil {
				t.Fatalf("analysis: %v\n%s", err, src)
			}
			nFam := 0
			for strings.Contains(src, fmt.Sprintf("monitor ma%d[", nFam)) {
				nFam++
			}
			// Plenty of lanes, so folding does not merge distinct
			// components and the property is exercised at full width.
			cls := New(res, 16)

			type req struct {
				id     ids.ThreadID
				method string
				args   []lang.Value
				class  uint32
			}
			rng := ids.NewRNG(seed ^ 0x5eed)
			var reqs []req
			var log []replica.LogEntry
			for i := 0; i < 24; i++ {
				m := methods[rng.Intn(len(methods))]
				args := []lang.Value{drawArg(rng)}
				r := req{id: ids.ThreadID(i + 1), method: m, args: args, class: cls.Classify(m, args)}
				reqs = append(reqs, r)
				log = append(log, replica.LogEntry{
					At: time.Duration(i) * time.Millisecond,
					Msg: gcs.Message{
						Seq:    uint64(i + 1),
						Origin: gcs.Origin{Client: 1, IsClient: true},
						UID:    uint64(i + 1),
						Class:  r.class,
						Payload: replica.Request{
							Req:    ids.RequestID(i + 1),
							Method: m,
							Args:   args,
						},
					},
				})
			}

			// (a) Predicted footprints of distinct non-global classes are
			// disjoint.
			pred := make([]map[ids.MutexID]bool, len(reqs))
			for i, r := range reqs {
				if r.class == GlobalClass {
					continue
				}
				fp, ok := cls.Footprint(r.method, r.args)
				if !ok {
					t.Fatalf("non-global %s(%v) class %d has no footprint", r.method, r.args, r.class)
				}
				pred[i] = map[ids.MutexID]bool{}
				for _, m := range fp {
					pred[i][m] = true
				}
			}
			disjoint := func(a, b map[ids.MutexID]bool) ids.MutexID {
				for m := range a {
					if b[m] {
						return m
					}
				}
				return ids.NoMutex
			}
			for i := range reqs {
				for j := i + 1; j < len(reqs); j++ {
					if reqs[i].class == GlobalClass || reqs[j].class == GlobalClass ||
						reqs[i].class == reqs[j].class {
						continue
					}
					if m := disjoint(pred[i], pred[j]); m != ids.NoMutex {
						t.Errorf("classes %d and %d (%s vs %s) both predict %v\n%s",
							reqs[i].class, reqs[j].class, reqs[i].method, reqs[j].method, m, src)
					}
				}
			}

			// (b) Cross-check against the executed trace: the actual lock
			// set is contained in the prediction, so distinct classes also
			// stayed disjoint at runtime.
			actual := lockSets(t, res, nFam, log)
			if len(actual) == 0 {
				t.Fatalf("serial replay produced no lock events — cross-check is vacuous\n%s", src)
			}
			for i, r := range reqs {
				got := actual[r.id]
				if r.class == GlobalClass {
					continue
				}
				for m := range got {
					if !pred[i][m] {
						t.Errorf("%s(%v) class %d acquired %v outside its predicted footprint %v\n%s",
							r.method, r.args, r.class, m, pred[i], src)
					}
				}
			}
			for i := range reqs {
				for j := i + 1; j < len(reqs); j++ {
					if reqs[i].class == GlobalClass || reqs[j].class == GlobalClass ||
						reqs[i].class == reqs[j].class {
						continue
					}
					if m := disjoint(actual[reqs[i].id], actual[reqs[j].id]); m != ids.NoMutex {
						t.Errorf("distinct classes %d and %d both locked %v at runtime\n%s",
							reqs[i].class, reqs[j].class, m, src)
					}
				}
			}
		})
	}
}

// TestPerRequestSiteMatchesExecution checks the concrete index evaluation
// against the interpreter: genSource has no per-request method (its
// parameter-indexed sites span their whole array), so the property above
// never reaches Site.Monitor. Here every method is per-request, and the
// one monitor predicted from the arguments — negative, huge, at both ends
// of the range — must be the one the serial execution locks.
func TestPerRequestSiteMatchesExecution(t *testing.T) {
	const src = `
object Hot {
    monitor big[9];
    monitor fam[8];
    method doubleMod(k) { sync (big[((k % 8) + 8) % 8]) { compute(1us); } }
    method signed(k) { sync (big[k % 4 + 4]) { compute(1us); } }
    method product(k) { sync (big[(k % 2) * (k % 2) * 3 + 1]) { compute(1us); } }
    method shifted(k) { sync (fam[((k % 3) + 3) % 3 + 4]) { compute(1us); } }
    method viaLocal(k) {
        var h = ((k % 4) + 4) % 4;
        sync (fam[h]) { compute(1us); }
    }
}
`
	res := analysis.MustAnalyze(lang.MustParse(src))
	cls := New(res, 16)
	rng := ids.NewRNG(0x51fe)
	type req struct {
		method string
		args   []lang.Value
	}
	var reqs []req
	var log []replica.LogEntry
	for i := 0; i < 200; i++ {
		m := res.Object.Methods[rng.Intn(len(res.Object.Methods))]
		if cls.methods[m.Name].site == nil {
			t.Fatalf("%s is not classified per request:\n%s", m.Name, cls.Describe())
		}
		r := req{m.Name, []lang.Value{drawArg(rng)}}
		reqs = append(reqs, r)
		log = append(log, replica.LogEntry{
			At: time.Duration(i) * time.Millisecond,
			Msg: gcs.Message{
				Seq:     uint64(i + 1),
				Origin:  gcs.Origin{Client: 1, IsClient: true},
				UID:     uint64(i + 1),
				Payload: replica.Request{Req: ids.RequestID(i + 1), Method: r.method, Args: r.args},
			},
		})
	}
	actual := lockSets(t, res, 0, log)
	for i, r := range reqs {
		fp, ok := cls.Footprint(r.method, r.args)
		got := actual[ids.ThreadID(i+1)]
		if !ok || len(fp) != 1 || len(got) != 1 || !got[fp[0]] {
			t.Errorf("%s(%v): predicted %v (ok=%v), locked %v", r.method, r.args, fp, ok, got)
		}
	}
}
