package earlysched

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"detmt/internal/analysis"
	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/workload"
)

// This file characterises the classifier: for every source the tree
// classifies anywhere (the Fig. 1 object, the families object at each
// conflict dial of E14, the KV store, a hand-written object that reaches
// every escalation reason, and 200 generated programs), on 1 and 4 lanes,
// it records Describe(), every GlobalReason, and Classify and Footprint
// over a seeded argument corpus. The classes decide lanes and therefore
// schedules, so the files under testdata/golden were recorded at commit
// 7193b26 — before the static footprint moved into package analysis — and
// a refactor must leave them byte-identical. Re-record (-update) only for
// a change that is meant to classify differently, and say so in CHANGES.md.

var update = flag.Bool("update", false, "rewrite testdata/golden from the current classifier")

// reasonsSrc reaches every escalation reason and the precedence among
// them (first raw locking, then the first spontaneous site, then
// wait/notify, then the first site that does not resolve), plus the
// shapes that do classify: constants, substituted locals, helper fields.
const reasonsSrc = `
object Reasons {
    monitor a;
    monitor b;
    monitor arr[4];
    monitor big[9];
    field plain;
    field other;
    field viaHelper;

    method helperInner(x) {
        viaHelper = viaHelper + x;
        return viaHelper;
    }

    method helperOuter(x) {
        return helperInner(x) + other;
    }

    method rawOnly() {
        lock(a);
        plain = plain + 1;
        unlock(a);
    }

    method rawAndSpontaneous(p) {
        lock(a);
        unlock(a);
        sync (plain) { other = 1; }
    }

    method spontaneousField() {
        sync (plain) { other = 1; }
    }

    method spontaneousSecondSite(o) {
        sync (o) { other = 1; }
        sync (plain) { other = 2; }
    }

    method spontaneousAndWait() {
        sync (a) {
            wait(a);
        }
        sync (arr[helperInner(1)]) { other = 1; }
    }

    method spontaneousReassigned(p) {
        var m = 0;
        if (p > 0) {
            m = 1;
        }
        sync (arr[m]) { other = 1; }
    }

    method spontaneousNested(p) {
        var r = nested(p);
        sync (arr[r]) { other = 1; }
    }

    method waitOnly() {
        sync (a) {
            wait(a);
            plain = plain + 1;
        }
    }

    method notifyOnly() {
        sync (b) {
            plain = plain + 1;
        }
        notify(b);
    }

    method waitAndUnresolvable(o) {
        sync (o) {
            wait(o);
        }
    }

    method unresolvableParam(o) {
        sync (o) { other = 1; }
    }

    method unresolvableLocal(o) {
        var m = o;
        sync (m) { other = 1; }
    }

    method unresolvableLiteral() {
        sync (3) { other = 1; }
    }

    method constOutOfRange() {
        sync (arr[4]) { other = 1; }
    }

    method constNegative() {
        sync (arr[0 - 1]) { other = 1; }
    }

    method provablyOutOfRange(p) {
        sync (arr[((p % 2) + 2) % 2 + 10]) { other = 1; }
    }

    method wholeArray(p) {
        sync (arr[p]) { other = 1; }
    }

    method wholeArrayMod(p) {
        sync (arr[((p % 4) + 4) % 4]) { other = 1; }
    }

    method wholeAfterClamp(p) {
        sync (arr[p % 9]) { other = 1; }
    }

    method divisionIndex(p) {
        sync (big[p / 2]) { other = 1; }
    }

    method firstUnresolvableWins(o, p) {
        sync (arr[p]) { other = 1; }
        sync (o) { other = 2; }
    }

    method constants() {
        sync (a) { plain = 1; }
        sync (arr[1 + 1]) { plain = 2; }
    }

    method localConstant() {
        var i = 3;
        var j = i - 2;
        sync (arr[j]) { plain = plain + 1; }
    }

    method localMonitor() {
        var m = b;
        sync (m) { compute(1us); }
    }

    method hotKey(k) {
        sync (big[((k % 8) + 8) % 8]) { compute(1us); }
    }

    method hotKeyViaLocal(k) {
        var h = ((k % 8) + 8) % 8;
        sync (big[h]) { compute(1us); }
    }

    method hotKeySigned(k) {
        sync (big[k % 4 + 4]) { compute(1us); }
    }

    method hotKeyProduct(k) {
        sync (big[(k % 2) * (k % 2) * 3 + 1]) { compute(1us); }
    }

    method hotKeyWithField(k) {
        sync (big[((k % 8) + 8) % 8]) { other = other + 1; }
    }

    method hotKeyInLoop(k) {
        repeat i : 2 {
            sync (big[((k % 8) + 8) % 8]) { compute(1us); }
        }
    }

    method hotKeyTwoSites(k) {
        sync (big[((k % 2) + 2) % 2]) { compute(1us); }
        sync (big[((k % 2) + 2) % 2 + 4]) { compute(1us); }
    }

    method rangeNotParamOnly(k) {
        var q = 0;
        if (k > 0) {
            q = 1;
        }
        var j = ((q % 2) + 2) % 2 + 6;
        sync (big[j]) { compute(1us); }
    }

    method transitiveHelperFields(x) {
        var y = helperOuter(x);
        sync (arr[0]) { compute(1us); }
        return y;
    }

    method loopFixed(k) {
        while (plain < 3) {
            sync (arr[1]) { plain = plain + 1; }
        }
    }

    method loopVariable() {
        repeat i : 2 {
            sync (arr[i]) { compute(1us); }
        }
    }

    method pure(x) {
        compute(1us);
        return x + 1;
    }
}
`

// goldenInts are the argument values every corpus covers: both overflow
// edges, negatives (what the double-mod idiom exists for), zero, and the
// sizes and moduli the sources use, one below and one above each.
var goldenInts = []int64{
	math.MinInt64, math.MinInt64 + 1, -(1 << 31) - 1, -101, -65, -64, -25, -8, -7, -4, -1,
	0, 1, 2, 3, 4, 7, 8, 9, 24, 25, 63, 64, 65, 99, 100, 4095, 4096,
	1 << 31, 1 << 50, math.MaxInt64 - 1, math.MaxInt64,
}

// corpus is the seeded argument list for a method of the given arity:
// every goldenInt in the first position (the rest drawn), 8 fully drawn
// lists, and the malformed shapes — no arguments, one too few, one too
// many, and a non-integer in each of the value kinds the wire can carry.
func corpus(rng *ids.RNG, arity int) [][]lang.Value {
	draw := func() lang.Value {
		if rng.Bool(0.5) {
			return goldenInts[rng.Intn(len(goldenInts))]
		}
		return int64(rng.Intn(2001) - 1000)
	}
	drawn := func(first lang.Value) []lang.Value {
		args := make([]lang.Value, arity)
		for i := range args {
			args[i] = draw()
		}
		if arity > 0 && first != nil {
			args[0] = first
		}
		return args
	}
	var out [][]lang.Value
	for _, v := range goldenInts {
		out = append(out, drawn(v))
	}
	for i := 0; i < 8; i++ {
		out = append(out, drawn(nil))
	}
	out = append(out, nil)
	if arity > 0 {
		out = append(out, drawn(nil)[:arity-1])
	}
	out = append(out, append(drawn(nil), int64(1)))
	if arity > 0 {
		for _, bad := range []lang.Value{nil, true, "k", lang.Monitor(3), lang.ErrValue("boom"), 2.5} {
			args := drawn(nil)
			args[0] = bad
			out = append(out, args)
			args = drawn(nil)
			args[arity-1] = bad
			out = append(out, args)
		}
	}
	return out
}

// describeClassifier renders everything the goldens pin about one
// classifier; the corpus part is returned apart so the generated programs
// can fold it into a digest.
func describeClassifier(res *analysis.Result, c *Classifier, seed uint64) (head, calls string) {
	var h, b strings.Builder
	fmt.Fprintf(&h, "lanes=%d dummy=%d\n", c.Lanes(), c.DummyClass())
	h.WriteString(c.Describe())
	h.WriteString("reasons:\n")
	for _, m := range res.Object.Methods {
		fmt.Fprintf(&h, "  %-24s %q\n", m.Name, c.GlobalReason(m.Name))
	}
	fmt.Fprintf(&h, "  %-24s %q\n", "noSuchMethod", c.GlobalReason("noSuchMethod"))

	rng := ids.NewRNG(seed)
	call := func(method string, args []lang.Value) {
		fp, ok := c.Footprint(method, args)
		fmt.Fprintf(&b, "%s(%s) = class %d", method, fmtArgs(args), c.Classify(method, args))
		if ok {
			fmt.Fprintf(&b, " footprint %v\n", fp)
		} else {
			b.WriteString(" footprint -\n")
		}
	}
	for _, m := range res.Object.Methods {
		for _, args := range corpus(rng, len(m.Params)) {
			call(m.Name, args)
		}
	}
	call("noSuchMethod", nil)
	call("noSuchMethod", []lang.Value{int64(1)})
	return h.String(), b.String()
}

func fmtArgs(args []lang.Value) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = fmt.Sprintf("%#v", a)
	}
	return strings.Join(parts, ", ")
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (goldens are recorded once, see the file comment)", err)
	}
	if got == string(want) {
		return
	}
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
			t.Fatalf("%s differs from the golden at line %d:\n  got  %s\n  want %s", name, i+1, g, w)
		}
	}
}

var goldenLanes = []int{1, 4}

// TestGoldenWorkloads pins the classification of every workload source in
// full: the head and every corpus call, per lane count.
func TestGoldenWorkloads(t *testing.T) {
	type source struct{ name, src string }
	spont, catch := workload.DefaultFig1(), workload.DefaultFig1()
	spont.Announceable = !spont.Announceable
	catch.CatchNested = true
	sources := []source{
		{"fig1", workload.Fig1Source(workload.DefaultFig1())},
		{"fig1-flipped", workload.Fig1Source(spont)},
		{"fig1-catch", workload.Fig1Source(catch)},
		{"kv", workload.KVSource(workload.DefaultKV())},
		{"kv-8", workload.KVSource(workload.KVConfig{Buckets: 8})},
		{"reasons", reasonsSrc},
		{"families", workload.FamiliesSource(workload.DefaultFamilies())},
	}
	for i, s := range sources {
		res := analysis.MustAnalyze(lang.MustParse(s.src))
		var out strings.Builder
		for _, lanes := range goldenLanes {
			head, calls := describeClassifier(res, New(res, lanes), uint64(i+1))
			out.WriteString(head)
			out.WriteString("calls:\n")
			out.WriteString(calls)
			out.WriteString("\n")
		}
		checkGolden(t, s.name+".txt", out.String())
	}
}

// TestGoldenFamilyDraws pins the classes of the requests the family
// generator draws at each conflict dial: E14 sweeps 0/25/75/100 %, the
// bench's tcp3-families workload runs 20 %. The dial reaches the requests,
// not the source — one families.txt covers them all.
func TestGoldenFamilyDraws(t *testing.T) {
	var out strings.Builder
	base := workload.FamiliesSource(workload.DefaultFamilies())
	for _, pct := range []int{0, 20, 25, 75, 100} {
		fam := workload.DefaultFamilies()
		fam.PGlobal = float64(pct) / 100
		if workload.FamiliesSource(fam) != base {
			t.Fatalf("the conflict dial %d%% changed the families source; give it its own golden", pct)
		}
		res := analysis.MustAnalyze(lang.MustParse(base))
		for _, lanes := range goldenLanes {
			c := New(res, lanes)
			rng := ids.NewRNG(uint64(pct) + 1)
			fmt.Fprintf(&out, "conflict=%d%% lanes=%d:", pct, lanes)
			for i := 0; i < 64; i++ {
				m, args := workload.FamilyArgs(fam, rng)
				fmt.Fprintf(&out, " %s=%d", m, c.Classify(m, args))
			}
			out.WriteString("\n")
		}
	}
	checkGolden(t, "family-draws.txt", out.String())
}

// TestGoldenGenerated pins 200 generated programs: the head in full, the
// corpus calls folded into one digest per (seed, lanes).
func TestGoldenGenerated(t *testing.T) {
	var out strings.Builder
	for seed := uint64(1); seed <= 200; seed++ {
		src, _ := genSource(seed)
		res := analysis.MustAnalyze(lang.MustParse(src))
		for _, lanes := range goldenLanes {
			head, calls := describeClassifier(res, New(res, lanes), seed)
			h := fnv.New64a()
			h.Write([]byte(calls))
			fmt.Fprintf(&out, "seed=%d %scalls: %d lines, fnv64a %016x\n\n", seed, head, strings.Count(calls, "\n"), h.Sum64())
		}
	}
	checkGolden(t, "generated.txt", out.String())
}
