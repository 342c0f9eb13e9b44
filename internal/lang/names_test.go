package lang

import (
	"testing"
)

// namesSrc exercises the interpreter's scoping rules: a name is a local
// once its var, repeat variable or nested result has run in this call,
// else a parameter, else a field; repeat restores or drops its variable
// afterwards; a helper call starts with a fresh frame.
const namesSrc = `
object Names {
    monitor gate;
    monitor cells[2];
    field x;
    field probe;
    field t;

    method fieldThenLocal() {
        var a = x;
        var x = 9;
        x = x + 1;
        return a * 100 + x;
    }

    method repeatOverParam(i) {
        var s = 0;
        repeat i : 3 {
            s = s + i;
            i = 50;
        }
        return s * 100 + i;
    }

    method repeatOverLocal() {
        var j = 40;
        var s = 0;
        repeat j : 4 {
            s = s + j;
        }
        return s * 100 + j;
    }

    method repeatOverField() {
        var s = 0;
        repeat x : 3 {
            s = s + x;
        }
        return s * 100 + x;
    }

    method nestedOverParam(y) {
        var before = y;
        var y = nested(y + 1);
        y = y + 1;
        return before * 1000 + y;
    }

    method assignParam(p) {
        p = p + 1;
        var q = p * 2;
        return q * 100 + p;
    }

    method outer(a) {
        var probe = 1;
        var first = inner(a);
        var second = inner(0);
        return first * 10000 + second * 100 + probe;
    }

    method inner(b) {
        if (b > 0) {
            var t = b;
        }
        return t + probe;
    }

    method dup(a, a) {
        return a;
    }

    method unknownName(c) {
        if (c == 1) {
            return nosuch;
        }
        return 0;
    }

    method assignMonitor(c) {
        if (c == 1) {
            gate = 5;
        }
        return 1;
    }

    method assignUndeclared(c) {
        if (c == 1) {
            nosuch = 5;
        }
        return 2;
    }

    method callUnknown(c) {
        if (c == 1) {
            return nomethod(c);
        }
        return 3;
    }

    method arrays(c) {
        if (c == 1) {
            return cells;
        }
        if (c == 2) {
            return x[0];
        }
        if (c == 3) {
            return cells[2];
        }
        return cells[1] == cells[c + 1];
    }

    method mapKey(ns, k) {
        mapput(ns, k, 1);
        return mapget(ns, k);
    }
}
`

// TestNameResolution pins how the interpreter resolves names, so that the
// way it looks them up can change without changing what a program
// computes.
func TestNameResolution(t *testing.T) {
	obj := MustParse(namesSrc)
	type call struct {
		method string
		args   []Value
		want   Value
		err    string
	}
	cases := []call{
		// A field read before a same-named var runs sees the field; after
		// it, the local. The field itself is untouched (checked below).
		{method: "fieldThenLocal", want: int64(5*100 + 10)},
		// A repeat variable shadows a parameter during the loop only, and
		// an assignment to it in the body lasts one iteration.
		{method: "repeatOverParam", args: []Value{int64(7)}, want: int64(3*100 + 7)},
		// ... and an outer local, whose value it restores afterwards.
		{method: "repeatOverLocal", want: int64(6*100 + 40)},
		// ... and a field, which is visible again after the loop.
		{method: "repeatOverField", want: int64(3*100 + 5)},
		// A nested result bound over a parameter: the parameter until the
		// binding runs, the local after it.
		{method: "nestedOverParam", args: []Value{int64(4)}, want: int64(4*1000 + 6)},
		{method: "assignParam", args: []Value{int64(3)}, want: int64(8*100 + 4)},
		// A helper sees neither its caller's locals nor a local of an
		// earlier call of its own.
		{method: "outer", args: []Value{int64(5)}, want: int64((5+33)*10000 + (11+33)*100 + 1)},
		// A duplicated parameter name binds the last argument.
		{method: "dup", args: []Value{int64(1), int64(2)}, want: int64(2)},
		// Name errors are raised when the offending statement runs, not
		// before.
		{method: "unknownName", args: []Value{int64(0)}, want: int64(0)},
		{method: "unknownName", args: []Value{int64(1)}, err: `lang: unknown name "nosuch"`},
		{method: "assignMonitor", args: []Value{int64(0)}, want: int64(1)},
		{method: "assignMonitor", args: []Value{int64(1)}, err: `lang: cannot assign to monitor field "gate"`},
		{method: "assignUndeclared", args: []Value{int64(0)}, want: int64(2)},
		{method: "assignUndeclared", args: []Value{int64(1)}, err: `lang: assignment to undeclared name "nosuch"`},
		{method: "callUnknown", args: []Value{int64(0)}, want: int64(3)},
		{method: "callUnknown", args: []Value{int64(1)}, err: `lang: call to unknown method "nomethod"`},
		{method: "dup", args: []Value{int64(1)}, err: "lang: dup expects 2 args, got 1"},
		{method: "arrays", args: []Value{int64(0)}, want: true},
		{method: "arrays", args: []Value{int64(1)}, err: `lang: monitor array "cells" used without index`},
		{method: "arrays", args: []Value{int64(2)}, err: `lang: "x" is not a monitor array`},
		{method: "arrays", args: []Value{int64(3)}, err: "lang: index 2 out of range for cells[2]"},
		{method: "mapKey", args: []Value{int64(3), int64(-7)}, want: int64(1)},
		{method: "mapKey", args: []Value{int64(0), int64(123456789012)}, want: int64(1)},
	}
	in := runE(t, obj, func(in *Instance, exec func(string, ...Value) (Value, error)) {
		in.SetField("x", int64(5))
		in.SetField("probe", int64(33))
		in.SetField("t", int64(11))
		for _, c := range cases {
			got, err := exec(c.method, c.args...)
			if c.err != "" {
				if err == nil || err.Error() != c.err {
					t.Errorf("%s%v: error %v, want %q", c.method, c.args, err, c.err)
				}
				continue
			}
			if err != nil || got != c.want {
				t.Errorf("%s%v = %v, %v; want %v", c.method, c.args, got, err, c.want)
			}
		}
	})
	want := map[string]Value{
		"x": int64(5), "probe": int64(33), "t": int64(11),
		// The map builtins' entries: kv<ns>:<key>, decimal.
		"kv3:-7": int64(1), "kv0:123456789012": int64(1),
	}
	snap := in.Snapshot()
	if len(snap) != len(want) {
		t.Errorf("snapshot %v, want %v", snap, want)
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("snapshot[%q] = %v, want %v (snapshot %v)", k, snap[k], v, snap)
		}
	}
}

// TestDuplicateDeclarations pins what a name declared twice means: its
// first declaration decides the kind, a monitor read yields the last
// monitor of that name, and the plain field is one value.
func TestDuplicateDeclarations(t *testing.T) {
	obj := MustParse(`
object D {
    monitor m;
    monitor m;
    field f;
    monitor f;
    field f;

    method readM() { return m; }
    method bump() { f = f + 1; return f; }
}
`)
	in := runE(t, obj, func(in *Instance, exec func(string, ...Value) (Value, error)) {
		if got, err := exec("readM"); err != nil || got != Monitor(1) {
			t.Errorf("readM = %v, %v; want monitor 1", got, err)
		}
		for want := int64(1); want <= 2; want++ {
			if got, err := exec("bump"); err != nil || got != want {
				t.Errorf("bump = %v, %v; want %d", got, err, want)
			}
		}
	})
	if snap := in.Snapshot(); len(snap) != 1 || snap["f"] != int64(2) {
		t.Errorf("snapshot %v, want f=2", snap)
	}
}
