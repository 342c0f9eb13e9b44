package lang

import (
	"testing"

	"detmt/internal/core"
	"detmt/internal/ids"
	"detmt/internal/vclock"
)

// The map builtins back the KV facade workload: a namespaced integer
// key/value store stored beside the instance's plain fields, so snapshots
// and checkpoints cover it exactly like declared fields.

const mapSrc = `
object M {
    monitor m;

    method put(ns, k, v) {
        sync (m) {
            mapput(ns, k, v);
        }
    }

    method get(ns, k) {
        var v = null;
        sync (m) {
            v = mapget(ns, k);
        }
        return v;
    }

    method del(ns, k) {
        sync (m) {
            mapdel(ns, k);
        }
    }
}
`

func TestMapBuiltins(t *testing.T) {
	obj := MustParse(mapSrc)
	in := run(t, obj, func(in *Instance, exec func(string, ...Value) Value) {
		if got := exec("get", int64(0), int64(7)); got != nil {
			t.Errorf("mapget of absent key = %v, want null", got)
		}
		exec("put", int64(0), int64(7), int64(42))
		if got := exec("get", int64(0), int64(7)); got != int64(42) {
			t.Errorf("mapget after put = %v, want 42", got)
		}
		// Namespaces are disjoint key spaces.
		if got := exec("get", int64(1), int64(7)); got != nil {
			t.Errorf("mapget in other namespace = %v, want null", got)
		}
		// Negative keys are ordinary keys.
		exec("put", int64(0), int64(-3), int64(9))
		if got := exec("get", int64(0), int64(-3)); got != int64(9) {
			t.Errorf("mapget of negative key = %v, want 9", got)
		}
		exec("put", int64(0), int64(7), int64(43))
		if got := exec("get", int64(0), int64(7)); got != int64(43) {
			t.Errorf("mapput must overwrite, got %v", got)
		}
		exec("del", int64(0), int64(7))
		if got := exec("get", int64(0), int64(7)); got != nil {
			t.Errorf("mapget after del = %v, want null", got)
		}
	})
	// Map entries sit beside the plain fields under un-declarable names,
	// so Snapshot (and therefore checkpoints) carries them for free.
	snap := in.Snapshot()
	if v, ok := snap["kv0:-3"]; !ok || v != int64(9) {
		t.Fatalf("snapshot missing map entry: %v", snap)
	}
	if _, ok := snap["kv0:7"]; ok {
		t.Fatalf("deleted entry survived in snapshot: %v", snap)
	}
}

func TestMapBuiltinsAreBuiltins(t *testing.T) {
	for _, n := range []string{"iserr", "mapget", "mapput", "mapdel"} {
		if !IsBuiltin(n) {
			t.Errorf("IsBuiltin(%q) = false", n)
		}
	}
	if IsBuiltin("work") {
		t.Error("IsBuiltin(work) = true")
	}
}

func TestMapBuiltinArity(t *testing.T) {
	obj := MustParse(`
object B {
    method shortput() { mapput(1, 2); return 0; }
    method shortget() { return mapget(1); }
    method longdel() { mapdel(1, 2, 3); return 0; }
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
		expectErr := func(method string) {
			tid++
			g.Add(1)
			rt.Submit(ids.ThreadID(tid), 1, func(th *core.Thread) {
				if _, err := in.Exec(th, method, nil); err == nil {
					t.Errorf("%s: expected arity error", method)
				}
			}, g.Done)
			g.Wait()
		}
		expectErr("shortput")
		expectErr("shortget")
		expectErr("longdel")
	})
	<-done
}
