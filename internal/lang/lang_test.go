package lang

import (
	"strings"
	"testing"
	"time"

	"detmt/internal/core"
	"detmt/internal/ids"
	"detmt/internal/vclock"
)

const counterSrc = `
object Counter {
    monitor lock;
    field count;

    method add(n) {
        sync (lock) {
            count = count + n;
        }
    }

    method get() {
        var v = 0;
        sync (lock) {
            v = count;
        }
        return v;
    }
}
`

func TestParseCounter(t *testing.T) {
	obj, err := Parse(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Name != "Counter" || len(obj.Fields) != 2 || len(obj.Methods) != 2 {
		t.Fatalf("parsed %+v", obj)
	}
	if obj.Methods[0].ID != 1 || obj.Methods[1].ID != 2 {
		t.Fatal("method ids not assigned in order")
	}
	add := obj.Lookup("add")
	if add == nil || len(add.Params) != 1 || add.Params[0] != "n" {
		t.Fatalf("add method %+v", add)
	}
	if obj.Field("lock").Kind != FieldMonitor {
		t.Fatal("lock should be a monitor field")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"object {",
		"object X { method }",
		"object X { monitor m[0]; }",
		"object X { field f }",
		"object X { method m() { sync lock {} } }",
		"object X { method m() { var = 3; } }",
		"object X { method m() { compute(1xx); } }",
		"object X { method m() { wait(l, 5); } }",
		"object X { method m() { x = ; } }",
		"object X { junk }",
		"object X { } trailing",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestDurationLiterals(t *testing.T) {
	obj := MustParse(`object X { method m() { compute(12ms); compute(3us); compute(1s); } }`)
	body := obj.Methods[0].Body.Stmts
	want := []int64{12000, 3, 1000000}
	for i, s := range body {
		c := s.(*Compute)
		lit := c.Dur.(*IntLit)
		if !lit.IsDur || lit.Value != want[i] {
			t.Errorf("stmt %d: %+v, want %d us", i, lit, want[i])
		}
	}
}

func TestPrintRoundTrip(t *testing.T) {
	src := `object X {
    monitor m[4];
    field f;

    method go(a, b) {
        var x = a + 1;
        if (x < b && f == null) {
            sync (m[x]) {
                f = x * 2;
            }
        } else if (x > 10) {
            compute(5ms);
        } else {
            nested(a);
        }
        repeat i : 3 {
            wait(m[0], 2ms);
            notify(m[1]);
            notifyall(m[2]);
        }
        while (x != 0) {
            x = x - 1;
        }
        helper(x, 1);
        return x;
    }

    method helper(p, q) {
        return p % q;
    }
}
`
	obj := MustParse(src)
	printed := Print(obj)
	// Re-parsing the printed form must succeed and print identically.
	obj2, err := Parse(printed)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, printed)
	}
	if Print(obj2) != printed {
		t.Fatalf("print not stable:\n%s\nvs\n%s", printed, Print(obj2))
	}
}

// run executes a method on a SEQ-scheduled runtime under a virtual clock.
func run(t *testing.T, obj *Object, calls func(in *Instance, exec func(method string, args ...Value) Value)) *Instance {
	t.Helper()
	return runE(t, obj, func(in *Instance, execE func(string, ...Value) (Value, error)) {
		calls(in, func(method string, args ...Value) Value {
			v, err := execE(method, args...)
			if err != nil {
				t.Errorf("exec %s: %v", method, err)
			}
			return v
		})
	})
}

// runE is run with the method's error handed to the caller: each call
// runs on a fresh thread of one SEQ runtime on a virtual clock.
func runE(t *testing.T, obj *Object, calls func(in *Instance, exec func(method string, args ...Value) (Value, error))) *Instance {
	t.Helper()
	v := vclock.NewVirtual()
	rt := core.NewRuntime(core.Options{Clock: v, Scheduler: core.NewSEQ(), NestedDelay: time.Millisecond})
	in := NewInstance(obj, 0)
	done := make(chan struct{})
	var tid uint64
	v.Go(func() {
		defer close(done)
		g := vclock.NewGroup(v)
		exec := func(method string, args ...Value) (Value, error) {
			tid++
			var result Value
			var execErr error
			g.Add(1)
			var mid ids.MethodID
			if m := obj.Lookup(method); m != nil {
				mid = m.ID
			}
			rt.Submit(ids.ThreadID(tid), mid, func(th *core.Thread) {
				result, execErr = in.Exec(th, method, args)
			}, g.Done)
			g.Wait()
			return result, execErr
		}
		calls(in, exec)
	})
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("lang test timed out")
	}
	return in
}

func TestInterpCounter(t *testing.T) {
	obj := MustParse(counterSrc)
	run(t, obj, func(in *Instance, exec func(string, ...Value) Value) {
		in.SetField("count", int64(0))
		exec("add", int64(5))
		exec("add", int64(7))
		if got := exec("get"); got != int64(12) {
			t.Errorf("count = %v, want 12", got)
		}
	})
}

func TestInterpControlFlow(t *testing.T) {
	obj := MustParse(`
object X {
    field out;
    method m(a) {
        var acc = 0;
        repeat i : a {
            acc = acc + i;
        }
        while (acc > 10) {
            acc = acc - 10;
        }
        if (acc == 0) {
            out = 100;
        } else {
            out = acc;
        }
        return out;
    }
}
`)
	run(t, obj, func(in *Instance, exec func(string, ...Value) Value) {
		// sum 0..4 = 10; the while guard (acc > 10) is false; out = 10.
		if got := exec("m", int64(5)); got != int64(10) {
			t.Errorf("m(5) = %v", got)
		}
		// sum 0..6 = 21; while reduces 21 -> 11 -> 1; out = 1.
		if got := exec("m", int64(7)); got != int64(1) {
			t.Errorf("m(7) = %v", got)
		}
		// sum 0..5 = 15; while -> 5.
		if got := exec("m", int64(6)); got != int64(5) {
			t.Errorf("m(6) = %v", got)
		}
	})
}

func TestInterpHelperCall(t *testing.T) {
	obj := MustParse(`
object X {
    method twice(v) { return double(v) + 0; }
    method double(v) { return v * 2; }
}
`)
	run(t, obj, func(in *Instance, exec func(string, ...Value) Value) {
		if got := exec("twice", int64(21)); got != int64(42) {
			t.Errorf("twice(21) = %v", got)
		}
	})
}

func TestInterpMonitorValues(t *testing.T) {
	obj := MustParse(`
object X {
    monitor cells[3];
    field chosen;
    method pick(i) {
        var m = cells[i];
        sync (m) {
            chosen = i;
        }
        if (m == cells[i]) { return 1; }
        return 0;
    }
}
`)
	run(t, obj, func(in *Instance, exec func(string, ...Value) Value) {
		if got := exec("pick", int64(2)); got != int64(1) {
			t.Errorf("pick = %v", got)
		}
		if in.GetField("chosen") != int64(2) {
			t.Errorf("chosen = %v", in.GetField("chosen"))
		}
	})
	in := NewInstance(obj, 10)
	if in.MonitorCount() != 3 {
		t.Fatalf("monitor count %d", in.MonitorCount())
	}
}

func TestInterpRuntimeErrors(t *testing.T) {
	obj := MustParse(`
object X {
    monitor l;
    field f;
    method divzero() { return 1 / 0; }
    method modzero() { return 1 % 0; }
    method badindex() { sync (l) { } return 0; }
    method badcond() { if (1) { } return 0; }
    method badsync() { sync (5) { } return 0; }
    method unknown() { return nosuch; }
    method badargs() { return divzero(1, 2); }
    method outofrange(i) { return i; }
}
`)
	v := vclock.NewVirtual()
	rt := core.NewRuntime(core.Options{Clock: v, Scheduler: core.NewSEQ()})
	in := NewInstance(obj, 0)
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		g := vclock.NewGroup(v)
		tid := uint64(0)
		expectErr := func(method string, args ...Value) {
			tid++
			g.Add(1)
			rt.Submit(ids.ThreadID(tid), 1, func(th *core.Thread) {
				if _, err := in.Exec(th, method, args); err == nil {
					t.Errorf("%s: expected error", method)
				}
			}, g.Done)
			g.Wait()
		}
		expectErr("divzero")
		expectErr("modzero")
		expectErr("badcond")
		expectErr("badsync")
		expectErr("unknown")
		expectErr("badargs")
		expectErr("outofrange") // wrong arg count
		expectErr("nosuchmethod")
	})
	<-done
}

func TestInterpInfiniteLoopCapped(t *testing.T) {
	obj := MustParse(`object X { method spin() { while (1 == 1) { } } }`)
	v := vclock.NewVirtual()
	rt := core.NewRuntime(core.Options{Clock: v, Scheduler: core.NewSEQ()})
	in := NewInstance(obj, 0)
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		g := vclock.NewGroup(v)
		g.Add(1)
		rt.Submit(1, 1, func(th *core.Thread) {
			if _, err := in.Exec(th, "spin", nil); err == nil || !strings.Contains(err.Error(), "step limit") {
				t.Errorf("spin: %v, want step-limit error", err)
			}
		}, g.Done)
		g.Wait()
	})
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("step limit did not trigger")
	}
}

func TestSnapshot(t *testing.T) {
	obj := MustParse(`object X { field a; field b; method m() { a = 1; b = 2; } }`)
	run(t, obj, func(in *Instance, exec func(string, ...Value) Value) {
		exec("m")
		snap := in.Snapshot()
		if snap["a"] != int64(1) || snap["b"] != int64(2) {
			t.Errorf("snapshot %v", snap)
		}
	})
}

func TestOperators(t *testing.T) {
	obj := MustParse(`
object Ops {
    method calc(a, b) {
        var r = 0;
        if (a > b || a == 0) { r = r + 1; }
        if (a >= b && b != 0) { r = r + 10; }
        if (a <= b) { r = r + 100; }
        if (a < b) { r = r + 1000; }
        r = r + a * b + a / b - a % b;
        return r;
    }
    method logic(a) {
        if ((a > 0 && a < 10) || a == 42) { return 1; }
        return 0;
    }
}
`)
	run(t, obj, func(in *Instance, exec func(string, ...Value) Value) {
		// a=6,b=3: >b||==0 ->1; >=&&!=0 ->10; 6*3+6/3-6%3=18+2-0=20 -> 31+...
		if got := exec("calc", int64(6), int64(3)); got != int64(31) {
			t.Errorf("calc(6,3) = %v, want 31", got)
		}
		// a=2,b=5: <= ->100; < ->1000; 2*5+2/5-2%5 = 10+0-2 = 8 -> 1108
		if got := exec("calc", int64(2), int64(5)); got != int64(1108) {
			t.Errorf("calc(2,5) = %v, want 1108", got)
		}
		if got := exec("logic", int64(42)); got != int64(1) {
			t.Errorf("logic(42) = %v", got)
		}
		if got := exec("logic", int64(-1)); got != int64(0) {
			t.Errorf("logic(-1) = %v", got)
		}
	})
}

func TestShortCircuitEvaluation(t *testing.T) {
	// The right operand must not be evaluated when the left decides:
	// 1/0 would error if evaluated.
	obj := MustParse(`
object SC {
    method safeAnd() {
        if (1 == 2 && 1 / 0 == 0) { return 1; }
        return 0;
    }
    method safeOr() {
        if (1 == 1 || 1 / 0 == 0) { return 1; }
        return 0;
    }
}
`)
	run(t, obj, func(in *Instance, exec func(string, ...Value) Value) {
		if got := exec("safeAnd"); got != int64(0) {
			t.Errorf("safeAnd = %v", got)
		}
		if got := exec("safeOr"); got != int64(1) {
			t.Errorf("safeOr = %v", got)
		}
	})
}

func TestBinaryTypeErrors(t *testing.T) {
	obj := MustParse(`
object TE {
    monitor m;
    method badArith() { return m + 1; }
    method badCmp() { return m < 1; }
}
`)
	v := vclock.NewVirtual()
	rt := core.NewRuntime(core.Options{Clock: v, Scheduler: core.NewSEQ()})
	in := NewInstance(obj, 0)
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		g := vclock.NewGroup(v)
		for _, m := range []string{"badArith", "badCmp"} {
			m := m
			g.Add(1)
			rt.Submit(ids.ThreadID(len(m)), 1, func(th *core.Thread) {
				if _, err := in.Exec(th, m, nil); err == nil {
					t.Errorf("%s: expected type error", m)
				}
			}, g.Done)
			g.Wait()
		}
	})
	<-done
}

func TestPrintDurations(t *testing.T) {
	cases := []struct {
		us   int64
		want string
	}{
		{3, "3us"},
		{1500, "1500us"},
		{2000, "2ms"},
		{3000000, "3s"},
	}
	for _, c := range cases {
		got := PrintExpr(&IntLit{Value: c.us, IsDur: true})
		if got != c.want {
			t.Errorf("dur %dus printed %q, want %q", c.us, got, c.want)
		}
	}
}

func TestTokenStrings(t *testing.T) {
	toks, err := lexAll("abc 12 ;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].String() != `"abc"` || toks[1].String() != "12" || toks[2].String() != `";"` {
		t.Fatalf("token strings: %v %v %v", toks[0], toks[1], toks[2])
	}
	if toks[3].String() != "end of input" {
		t.Fatalf("eof string %v", toks[3])
	}
}

func TestNestedResultBinding(t *testing.T) {
	obj := MustParse(`
object NB {
    method echo(x) {
        var y = nested(x * 2);
        return y + 1;
    }
}
`)
	// Default nested handler echoes the argument.
	run(t, obj, func(in *Instance, exec func(string, ...Value) Value) {
		if got := exec("echo", int64(10)); got != int64(21) {
			t.Errorf("echo(10) = %v, want 21", got)
		}
	})
	// Printing round-trips the binding form.
	printed := Print(obj)
	if !strings.Contains(printed, "var y = nested(x * 2);") {
		t.Fatalf("printed:\n%s", printed)
	}
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		l, r Value
		want bool
	}{
		{int64(1), int64(1), true},
		{int64(1), int64(2), false},
		{nil, nil, true},
		{nil, int64(0), false},
		{Monitor(1), Monitor(1), true},
		{Monitor(1), Monitor(2), false},
		{Monitor(1), int64(1), false},
		{true, true, true},
		{true, false, false},
	}
	for _, c := range cases {
		if got := valueEqual(c.l, c.r); got != c.want {
			t.Errorf("valueEqual(%v, %v) = %v", c.l, c.r, got)
		}
	}
}

func TestMultipleInstancesShareRuntime(t *testing.T) {
	// Two instances of the same object on one runtime must get disjoint
	// monitor ids (base offset), so their critical sections never
	// interfere.
	obj := MustParse(counterSrc)
	a := NewInstance(obj, 0)
	b := NewInstance(obj, ids.MutexID(a.MonitorCount()))
	v := vclock.NewVirtual()
	rt := core.NewRuntime(core.Options{Clock: v, Scheduler: core.NewMAT(false)})
	done := make(chan struct{})
	v.Go(func() {
		defer close(done)
		g := vclock.NewGroup(v)
		g.Add(2)
		rt.Submit(1, 1, func(th *core.Thread) {
			if _, err := a.Exec(th, "add", []Value{int64(5)}); err != nil {
				t.Errorf("a.add: %v", err)
			}
		}, g.Done)
		rt.Submit(2, 1, func(th *core.Thread) {
			if _, err := b.Exec(th, "add", []Value{int64(7)}); err != nil {
				t.Errorf("b.add: %v", err)
			}
		}, g.Done)
		g.Wait()
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out")
	}
	if a.GetField("count") != int64(5) || b.GetField("count") != int64(7) {
		t.Fatalf("states a=%v b=%v", a.GetField("count"), b.GetField("count"))
	}
}

func TestParserEdgeCases(t *testing.T) {
	// Exercise the remaining grammar branches.
	obj := MustParse(`
object Edge {
    monitor m[2];
    field f;
    method a(p) {
        f = (p + 1) * 2;
        m2(p, 0);
        var z = m2(p, 1) + 0;
        f = z;
        repeat i : p {
            notify(m[i % 2]);
        }
        return;
    }
    method m2(x, y) {
        if (x >= y) {
            return x - y;
        }
        return y;
    }
}
`)
	if obj.Lookup("a") == nil || obj.Lookup("m2") == nil {
		t.Fatal("methods missing")
	}
	printed := Print(obj)
	if Print(MustParse(printed)) != printed {
		t.Fatal("round trip unstable")
	}
}

func TestParserErrorBranches(t *testing.T) {
	cases := []string{
		"object X { method m(,) {} }",
		"object X { method m(a {} }",
		"object X { method m() { if (1 == 1 { } } }",
		"object X { method m() { while 1 { } } }",
		"object X { method m() { repeat i 3 { } } }",
		"object X { method m() { sync (a { } } }",
		"object X { method m() { notify(a; } }",
		"object X { method m() { compute(1ms; } }",
		"object X { method m() { nested(1; } }",
		"object X { method m() { return 1 } }",
		"object X { method m() { a[1 = 2; } }",
		"object X { method m() { x = (1; } }",
		"object X { method m() { h(1; } }",
		"object X { method m() { lock(a; } }",
		"object X { method m() { var x = nested(1; } }",
		"object X { monitor m[x]; }",
		"object X { method m() { wait(a, 5ms; } }",
		"object X { method m() { x = 1 + ; } }",
		"object X { method m() { @ } }",
		"object X { method m() { x = 99999999999999999999; } }",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on bad source")
		}
	}()
	MustParse("not valid")
}
