package earlysched

import (
	"testing"

	"detmt/internal/analysis"
	"detmt/internal/lang"
	"detmt/internal/workload"
)

func classify(t *testing.T, src string, lanes int) *Classifier {
	t.Helper()
	obj, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := analysis.Analyze(obj)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return New(res, lanes)
}

// The family workload is the design target: every family method must land
// in its own non-global class, the cross-family method must escalate.
func TestFamiliesClassification(t *testing.T) {
	cfg := workload.DefaultFamilies()
	c := classify(t, workload.FamiliesSource(cfg), cfg.Families)

	seen := map[uint32]string{}
	for f := 0; f < cfg.Families; f++ {
		m := workload.FamilyMethod(f)
		cl := c.Classify(m, nil)
		if cl == GlobalClass {
			t.Fatalf("%s escalated to global: %s", m, c.GlobalReason(m))
		}
		if prev, dup := seen[cl]; dup {
			t.Fatalf("%s and %s share class %d", prev, m, cl)
		}
		seen[cl] = m
	}
	if cl := c.Classify(workload.GlobalMethod, nil); cl != GlobalClass {
		t.Fatalf("%s classified %d, want global", workload.GlobalMethod, cl)
	}
	if cl := c.Classify("noSuchMethod", nil); cl != GlobalClass {
		t.Fatalf("unknown method classified %d, want global", cl)
	}
}

// Family footprints must be pairwise disjoint and the global method must
// refuse a footprint.
func TestFamiliesFootprints(t *testing.T) {
	cfg := workload.DefaultFamilies()
	c := classify(t, workload.FamiliesSource(cfg), cfg.Families)

	used := map[int]string{}
	for f := 0; f < cfg.Families; f++ {
		m := workload.FamilyMethod(f)
		fp, ok := c.Footprint(m, nil)
		if !ok || len(fp) == 0 {
			t.Fatalf("%s: no footprint (ok=%v)", m, ok)
		}
		if len(fp) != cfg.PerFamily {
			t.Fatalf("%s: footprint size %d, want %d", m, len(fp), cfg.PerFamily)
		}
		for _, mu := range fp {
			if prev, dup := used[int(mu)]; dup {
				t.Fatalf("mutex %d in both %s and %s", mu, prev, m)
			}
			used[int(mu)] = m
		}
	}
	if _, ok := c.Footprint(workload.GlobalMethod, nil); ok {
		t.Fatalf("%s: unexpectedly has a footprint", workload.GlobalMethod)
	}
}

// The paper's Fig. 1 object locks cells[d % 100] — full range, so the
// classifier must conservatively put work in the global class.
func TestFig1WorkIsGlobal(t *testing.T) {
	cfg := workload.DefaultFig1()
	c := classify(t, workload.Fig1Source(cfg), 4)
	if cl := c.Classify(workload.MethodName, []lang.Value{int64(7)}); cl != GlobalClass {
		t.Fatalf("fig1 %s classified %d, want global", workload.MethodName, cl)
	}
	if r := c.GlobalReason(workload.MethodName); r == "" {
		t.Fatalf("fig1 %s: global without a recorded reason", workload.MethodName)
	}
}

// Wait/notify methods and raw-locking methods must be global.
func TestSuspensionEscalates(t *testing.T) {
	src := `
object O {
    monitor a;
    monitor b;
    field x;
    method waiter() {
        sync (a) {
            wait (a);
            x = x + 1;
        }
    }
    method pinger() {
        sync (b) {
            x = x + 1;
        }
    }
}
`
	c := classify(t, src, 4)
	if cl := c.Classify("waiter", nil); cl != GlobalClass {
		t.Fatalf("waiter classified %d, want global", cl)
	}
	if cl := c.Classify("pinger", nil); cl == GlobalClass {
		t.Fatalf("pinger escalated to global: %s", c.GlobalReason("pinger"))
	}
}

// Two methods touching the same plain field must fold into one class even
// though their monitors differ.
func TestSharedFieldMerges(t *testing.T) {
	src := `
object O {
    monitor a;
    monitor b;
    monitor c;
    field shared;
    field solo;
    method left() {
        sync (a) {
            shared = shared + 1;
        }
    }
    method right() {
        sync (b) {
            shared = shared + 1;
        }
    }
    method lone() {
        sync (c) {
            solo = solo + 1;
        }
    }
}
`
	c := classify(t, src, 4)
	l, r, lone := c.Classify("left", nil), c.Classify("right", nil), c.Classify("lone", nil)
	if l != r {
		t.Fatalf("left=%d right=%d: shared field did not merge", l, r)
	}
	if lone == l {
		t.Fatalf("lone folded into the shared class %d", l)
	}
	if l == GlobalClass || lone == GlobalClass {
		t.Fatalf("unexpected global: left=%d lone=%d", l, lone)
	}
}

// A hot-key method — one lock site indexed purely by a parameter with a
// sub-range interval — classifies per request.
func TestDynamicPerRequestClass(t *testing.T) {
	src := `
object O {
    monitor cells[8];
    method touch(k) {
        sync (cells[((k % 4) + 4) % 4]) {
            compute(1us);
        }
    }
}
`
	c := classify(t, src, 4)
	classes := map[uint32]bool{}
	for k := int64(0); k < 4; k++ {
		cl := c.Classify("touch", []lang.Value{k})
		if cl == GlobalClass {
			t.Fatalf("touch(%d) escalated to global", k)
		}
		classes[cl] = true

		fp, ok := c.Footprint("touch", []lang.Value{k})
		if !ok || len(fp) != 1 {
			t.Fatalf("touch(%d): footprint=%v ok=%v, want one mutex", k, fp, ok)
		}
	}
	if len(classes) < 2 {
		t.Fatalf("all four keys landed in one class; want per-request spread")
	}
	// Same key, same class — classification must be deterministic.
	if c.Classify("touch", []lang.Value{int64(2)}) != c.Classify("touch", []lang.Value{int64(2)}) {
		t.Fatalf("same key classified differently across calls")
	}
}

// Lock-free methods get a stable hashed class, never the global one.
func TestNoFootprintMethodsSpread(t *testing.T) {
	src := `
object O {
    monitor a;
    method idle() {
        compute(1us);
    }
    method locked() {
        sync (a) {
            compute(1us);
        }
    }
}
`
	c := classify(t, src, 4)
	if cl := c.Classify("idle", nil); cl == GlobalClass {
		t.Fatalf("idle escalated to global")
	}
	if c.Classify("idle", nil) != c.Classify("idle", nil) {
		t.Fatalf("idle class not stable")
	}
}

// DummyClass must sit outside the lane range so PDS dummies never share a
// lane with real requests.
func TestDummyClassReserved(t *testing.T) {
	cfg := workload.DefaultFamilies()
	c := classify(t, workload.FamiliesSource(cfg), cfg.Families)
	if c.DummyClass() != uint32(cfg.Families)+1 {
		t.Fatalf("DummyClass=%d, want %d", c.DummyClass(), cfg.Families+1)
	}
	for f := 0; f < cfg.Families; f++ {
		if c.Classify(workload.FamilyMethod(f), nil) == c.DummyClass() {
			t.Fatalf("family class collides with DummyClass")
		}
	}
}

// A lock parameter that mentions a repeat variable, or a local assigned
// under a branch, is spontaneous (paper Sect. 4.2) — the method escalates
// before any index range is looked at, which is why the classifier carries
// no bounds for loop variables. Making such sites classifiable is ROADMAP
// item 5; until then these reasons are the behaviour.
func TestLoopAndBranchLocalIndexesEscalate(t *testing.T) {
	src := `
object O {
    monitor arr[4];
    method loopIndex() {
        repeat i : 2 {
            sync (arr[i]) { compute(1us); }
        }
    }
    method loopIndexPlusOne() {
        repeat i : 2 {
            sync (arr[i + 1]) { compute(1us); }
        }
    }
    method branchLocal(p) {
        if (p > 0) {
            var j = p % 2;
            sync (arr[j]) { compute(1us); }
        }
    }
}
`
	c := classify(t, src, 4)
	for method, want := range map[string]string{
		"loopIndex":        `spontaneous lock parameter "arr[i]"`,
		"loopIndexPlusOne": `spontaneous lock parameter "arr[i + 1]"`,
		"branchLocal":      `spontaneous lock parameter "arr[j]"`,
	} {
		if cl := c.Classify(method, []lang.Value{int64(1)}); cl != GlobalClass {
			t.Errorf("%s classified %d, want global", method, cl)
		}
		if got := c.GlobalReason(method); got != want {
			t.Errorf("%s: reason %q, want %q", method, got, want)
		}
	}
}

// A parameter the method assigns is no longer the request's argument: the
// site must not be evaluated against the arguments (the pre-footprint
// substitution expanded p = p + 1 into itself and did).
func TestReassignedParameterIsNotTheArgument(t *testing.T) {
	src := `
object O {
    monitor cells[8];
    method bump(p) {
        p = p + 1;
        sync (cells[((p % 4) + 4) % 4]) { compute(1us); }
    }
    method shadowed(p) {
        var x = p;
        p = 5;
        sync (cells[((x % 4) + 4) % 4]) { compute(1us); }
    }
}
`
	c := classify(t, src, 4)
	for _, m := range []string{"bump", "shadowed"} {
		for k := int64(0); k < 4; k++ {
			// bump(k) locks cells[(k+1)%4], shadowed(k) cells[k%4]: whatever
			// the class, the predicted footprint must cover both.
			fp, ok := c.Footprint(m, []lang.Value{k})
			if c.Classify(m, []lang.Value{k}) == GlobalClass {
				continue
			}
			if !ok || len(fp) != 4 {
				t.Fatalf("%s(%d): footprint %v (ok=%v), want all of cells[0..3]", m, k, fp, ok)
			}
		}
	}
}
