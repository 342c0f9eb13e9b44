package analysis

import (
	"math"

	"detmt/internal/lang"
)

// iv is a (possibly unknown) inclusive integer interval.
type iv struct {
	lo, hi int64
	ok     bool
}

func top() iv { return iv{} }

// addOK returns a+c, or false when it wraps: the interpreter's integers
// wrap around, so an interval that overflows bounds nothing.
func addOK(a, c int64) (int64, bool) {
	s := a + c
	return s, (c >= 0) == (s >= a)
}

// intervalOf bounds an index expression whose names are all unknown.
// Unknown operands still narrow through %, which is what makes the family
// workloads' double-mod idiom ("((d % P) + P) % P + BASE") classify
// without knowing d. Sound against evalIndex (FuzzIntervalSound): whenever
// both succeed, the value lies inside the interval.
func intervalOf(e lang.Expr) iv {
	n, isBinary := e.(*lang.Binary)
	if lit, ok := e.(*lang.IntLit); ok {
		return iv{lo: lit.Value, hi: lit.Value, ok: true}
	}
	if !isBinary {
		return top()
	}
	l, r := intervalOf(n.L), intervalOf(n.R)
	if n.Op == "%" {
		// x % k is bounded by k even when x is unknown, and takes x's sign.
		if !r.ok || r.lo < 1 {
			return top()
		}
		bound := r.hi - 1
		switch {
		case !l.ok || l.lo < 0:
			return iv{lo: -bound, hi: bound, ok: true}
		case l.hi < r.lo:
			return l // below every divisor: unchanged
		}
		return iv{lo: 0, hi: min(l.hi, bound), ok: true}
	}
	if !l.ok || !r.ok {
		return top()
	}
	switch n.Op {
	case "+":
		lo, ok1 := addOK(l.lo, r.lo)
		hi, ok2 := addOK(l.hi, r.hi)
		return iv{lo: lo, hi: hi, ok: ok1 && ok2}
	case "-":
		if r.lo == math.MinInt64 { // has no negation
			return top()
		}
		lo, ok1 := addOK(l.lo, -r.hi)
		hi, ok2 := addOK(l.hi, -r.lo)
		return iv{lo: lo, hi: hi, ok: ok1 && ok2}
	case "*":
		const lim = int64(1) << 31
		if l.lo < -lim || l.hi > lim || r.lo < -lim || r.hi > lim {
			return top()
		}
		ps := [4]int64{l.lo * r.lo, l.lo * r.hi, l.hi * r.lo, l.hi * r.hi}
		out := iv{lo: ps[0], hi: ps[0], ok: true}
		for _, p := range ps[1:] {
			out.lo, out.hi = min(out.lo, p), max(out.hi, p)
		}
		return out
	}
	return top()
}

// evalIndex evaluates an index expression against concrete arguments,
// mirroring the interpreter's integer semantics (wrap-around; division or
// modulo by zero fails rather than guessing).
func evalIndex(e lang.Expr, params []string, args []lang.Value) (int64, bool) {
	switch n := e.(type) {
	case *lang.IntLit:
		return n.Value, true
	case *lang.VarRef:
		for i, p := range params {
			if p == n.Name && i < len(args) {
				v, ok := args[i].(int64)
				return v, ok
			}
		}
	case *lang.Binary:
		l, ok := evalIndex(n.L, params, args)
		if !ok {
			return 0, false
		}
		r, ok := evalIndex(n.R, params, args)
		if !ok {
			return 0, false
		}
		switch n.Op {
		case "+":
			return l + r, true
		case "-":
			return l - r, true
		case "*":
			return l * r, true
		case "/":
			if r != 0 {
				return l / r, true
			}
		case "%":
			if r != 0 {
				return l % r, true
			}
		}
	}
	return 0, false
}
