package analysis

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"detmt/internal/lang"
	"detmt/internal/workload"
)

// Index expressions travel through the fuzzer as postfix byte programs
// over the one parameter p: opcode%7 = 0 pushes p, 1 a literal from the
// next byte (signed), 2 a literal from the next eight bytes, 3..6 apply
// + - * % to the two topmost operands. Operands missing for an operator,
// or bytes missing for a literal, skip the opcode; the result is what is
// left on top of the stack.
var fuzzOps = []string{"+", "-", "*", "%"}

func decodeIndex(prog []byte) lang.Expr {
	var stack []lang.Expr
	for len(prog) > 0 {
		op := prog[0] % 7
		prog = prog[1:]
		switch {
		case op == 0:
			stack = append(stack, &lang.VarRef{Name: "p"})
		case op == 1 && len(prog) >= 1:
			stack = append(stack, &lang.IntLit{Value: int64(int8(prog[0]))})
			prog = prog[1:]
		case op == 2 && len(prog) >= 8:
			stack = append(stack, &lang.IntLit{Value: int64(binary.LittleEndian.Uint64(prog))})
			prog = prog[8:]
		case op >= 3 && len(stack) >= 2:
			l, r := stack[len(stack)-2], stack[len(stack)-1]
			stack = append(stack[:len(stack)-2], &lang.Binary{Op: fuzzOps[op-3], L: l, R: r})
		}
	}
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}

// encodeIndex is decodeIndex's inverse on the expressions it can build,
// so the seed corpus can be written as source text.
func encodeIndex(e lang.Expr) []byte {
	switch n := e.(type) {
	case *lang.VarRef:
		return []byte{0}
	case *lang.IntLit:
		if n.Value == int64(int8(n.Value)) {
			return []byte{1, byte(n.Value)}
		}
		return binary.LittleEndian.AppendUint64([]byte{2}, uint64(n.Value))
	case *lang.Binary:
		for i, op := range fuzzOps {
			if op == n.Op {
				return append(append(encodeIndex(n.L), encodeIndex(n.R)...), byte(3+i))
			}
		}
	}
	panic(fmt.Sprintf("encodeIndex: %s is outside the fuzzed grammar", lang.PrintExpr(e)))
}

// parseIndex parses an index expression over p.
func parseIndex(t testing.TB, src string) lang.Expr {
	t.Helper()
	obj, err := lang.Parse("object F { monitor a[1]; method m(p) { sync (a[" + src + "]) { } } }")
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return obj.Methods[0].Body.Stmts[0].(*lang.Sync).Param.(*lang.Index).Index
}

// FuzzIntervalSound checks the interval domain against the concrete
// evaluation it abstracts: whenever intervalOf bounds an expression and
// evalIndex evaluates it for some argument, the value lies inside the
// bounds — with the sign of %, wrap-around, and % by zero all in play.
// (That evalIndex agrees with the interpreter is checked end to end by
// earlysched's TestClassDisjointnessProperty: every lock a request
// actually takes lies inside its predicted footprint.)
func FuzzIntervalSound(f *testing.F) {
	fam, kv, fig1 := workload.DefaultFamilies(), workload.DefaultKV(), workload.DefaultFig1()
	seeds := []string{
		// The double-mod idioms of workload/families.go, kv.go and fig1.go.
		fmt.Sprintf("((p %% %d) + %d) %% %d", fam.PerFamily, fam.PerFamily, fam.PerFamily),
		fmt.Sprintf("((p %% %d) + %d) %% %d + %d", fam.PerFamily, fam.PerFamily, fam.PerFamily, 3*fam.PerFamily),
		fmt.Sprintf("p %% %d", fam.Mutexes()),
		fmt.Sprintf("(((p %% %d) + %d) %% %d)", kv.Buckets, kv.Buckets, kv.Buckets),
		fmt.Sprintf("(p * %d) + (((p %% %d) + %d) %% %d)", kv.Buckets, kv.Buckets, kv.Buckets, kv.Buckets),
		fmt.Sprintf("p %% %d", fig1.Mutexes),
		// Wrap-around: the interpreter's integers wrap, bounds must not saturate.
		"9223372036854775807 + 1",
		"0 - 9223372036854775807 - 2",
		"(p % 4) + 9223372036854775807",
	}
	for _, src := range seeds {
		prog := encodeIndex(parseIndex(f, src))
		if got := lang.PrintExpr(decodeIndex(prog)); got != lang.PrintExpr(parseIndex(f, src)) {
			f.Fatalf("seed %q round-trips to %s", src, got)
		}
		for _, arg := range []int64{0, 1, -1, 7, -7, math.MaxInt64, math.MinInt64} {
			f.Add(prog, arg)
		}
	}
	f.Fuzz(func(t *testing.T, prog []byte, arg int64) {
		e := decodeIndex(prog)
		if e == nil {
			return
		}
		r := intervalOf(e)
		v, ok := evalIndex(e, []string{"p"}, []lang.Value{arg})
		if r.ok && ok && (v < r.lo || v > r.hi) {
			t.Fatalf("%s with p=%d is %d, outside its interval [%d,%d]", lang.PrintExpr(e), arg, v, r.lo, r.hi)
		}
	})
}
