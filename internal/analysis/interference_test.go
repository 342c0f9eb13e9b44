package analysis

import (
	"strings"
	"testing"

	"detmt/internal/lang"
)

const interferenceSrc = `
object X {
    monitor a;
    monitor b;
    monitor cells[8];
    field mutable;

    method onlyA() {
        sync (a) { mutable = 1; }
    }

    method onlyB() {
        sync (b) { mutable = 2; }
        notify(b);
    }

    method cellThree() {
        sync (cells[3]) { mutable = 3; }
    }

    method cellFour() {
        sync (cells[4]) { mutable = 4; }
    }

    method anyCell(i) {
        sync (cells[i]) { mutable = 5; }
    }

    method viaLocal() {
        var m = a;
        sync (m) { mutable = 6; }
    }

    method spontaneous(o) {
        sync (o) { mutable = 7; }
    }

    method pure(x) {
        compute(1ms);
        return x + 1;
    }
}
`

func TestMutexSets(t *testing.T) {
	res := MustAnalyze(lang.MustParse(interferenceSrc))
	cases := []struct {
		method string
		want   string
	}{
		{"onlyA", "{a}"},
		{"onlyB", "{b}"},
		{"cellThree", "{cells[3]}"},
		{"cellFour", "{cells[4]}"},
		{"anyCell", "{cells[*]}"},
		{"viaLocal", "{a}"}, // copy propagation through the local
		{"spontaneous", "⊤ (any monitor)"},
		{"pure", "∅"},
	}
	for _, c := range cases {
		if got := res.Report(c.method).Describe(); got != c.want {
			t.Errorf("%s: set %s, want %s", c.method, got, c.want)
		}
	}
}

func TestInterference(t *testing.T) {
	res := MustAnalyze(lang.MustParse(interferenceSrc))
	cases := []struct {
		a, b string
		want bool
	}{
		{"onlyA", "onlyB", false},   // distinct monitor fields
		{"onlyA", "onlyA", true},    // same field
		{"onlyA", "viaLocal", true}, // local resolves to a
		{"cellThree", "cellFour", false},
		{"cellThree", "cellThree", true},
		{"cellThree", "anyCell", true}, // constant vs whole array
		{"anyCell", "anyCell", true},
		{"onlyA", "anyCell", false},    // field vs array
		{"spontaneous", "onlyA", true}, // ⊤ intersects everything...
		{"spontaneous", "pure", false}, // ...except provably lock-free
		{"pure", "onlyA", false},       // ∅ interferes with nothing
		{"pure", "nosuchmethod", true}, // unknown: conservative
	}
	for _, c := range cases {
		if got := res.Interferes(c.a, c.b); got != c.want {
			t.Errorf("Interferes(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestInterferenceMatrixRender(t *testing.T) {
	res := MustAnalyze(lang.MustParse(interferenceSrc))
	out := res.InterferenceMatrix()
	for _, want := range []string{"onlyA ⟂ onlyB", "cellThree ⟂ cellFour", "possible-mutex sets"} {
		if !strings.Contains(out, want) {
			t.Fatalf("matrix missing %q:\n%s", want, out)
		}
	}
}

func TestInterferenceMatrixNoPairs(t *testing.T) {
	res := MustAnalyze(lang.MustParse(`
object Y {
    monitor a;
    field s;
    method m1() { sync (a) { s = 1; } }
    method m2() { sync (a) { s = 2; } }
}
`))
	if !strings.Contains(res.InterferenceMatrix(), "(none)") {
		t.Fatal("expected no disjoint pairs")
	}
}

func TestLoopBounds(t *testing.T) {
	res := MustAnalyze(lang.MustParse(`
object Z {
    monitor a;
    monitor cells[4];
    field s;
    method m(n) {
        sync (a) { s = 1; }
        repeat i : 5 {
            repeat j : 3 {
                sync (cells[j]) { s = 2; }
            }
        }
        repeat k : n {
            sync (a) { s = 3; }
        }
        while (s > 0) {
            s = s - 1;
            sync (a) { s = 4; }
        }
    }
}
`))
	rep := res.Report("m")
	if len(rep.Syncs) != 4 {
		t.Fatalf("syncs %d", len(rep.Syncs))
	}
	wantBounds := []int64{1, 15, 0, 0}
	for i, s := range rep.Syncs {
		if s.Bound != wantBounds[i] {
			t.Errorf("sync %v bound %d, want %d", s.SyncID, s.Bound, wantBounds[i])
		}
	}
}
