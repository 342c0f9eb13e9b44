// Package analysis implements the paper's static code analysis (Sect. 4):
// it assigns a globally unique syncid to every synchronized block,
// enumerates execution paths, finds the last assignment of every lock
// parameter, classifies loops, and injects the scheduler calls
// (lock/unlock, lockinfo, ignore, loopdone) into a transformed copy of
// the object — the Go analogue of the TPL transformation whose outcome
// the paper shows in Fig. 4.
//
// Classification rules (paper Sect. 4.2 and 4.4, adapted to the mini
// language):
//
//   - A lock parameter is *announceable* when its value at the sync block
//     is fixed by method entry or by a unique earlier assignment: it
//     mentions only (a) method parameters that are never reassigned,
//     (b) locals with exactly one top-level assignment, and (c) monitor
//     fields / monitor-array elements (which are immutable by
//     construction in this language — the "final" case of the paper).
//   - Everything else — plain (mutable) instance fields, helper-call
//     results, locals with conditional or repeated assignments — is
//     *spontaneous*: the mutex stays unknown until the lock happens.
//   - A sync block inside a loop whose parameter is announceable and
//     assigned before the loop locks the same mutex in every iteration
//     (LoopFixed); otherwise the mutex may change per iteration
//     (LoopVariable) and the thread is only predicted after passing the
//     loop. A loopdone call is injected after every loop containing sync
//     blocks.
//   - For every if statement outside loops, an ignore call for each
//     syncid exclusive to one branch is injected at the top of the other
//     branch.
//
// From the same syncid list and the same assignment census the analysis
// also resolves each method's Footprint (footprint.go): per lock site the
// monitors its parameter can denote — single-assignment locals substituted,
// index expressions bounded by the interval domain of interval.go — plus
// the plain fields the method touches and whether it waits, notifies or
// locks raw. That is the one place the tree derives "which monitors may
// this method lock": package earlysched turns the footprint into conflict
// classes, Result.Interferes into the interference matrix, and the paper's
// other Sect. 5 item — upper bounds for loops — is SyncReport.Bound.
//
// Restrictions (paper Sect. 4, with our documented adaptation): helper
// methods invoked from other methods must not contain synchronisation or
// nested invocations, and the call graph must be acyclic (the paper's
// "all methods final, no recursion").
package analysis

import (
	"fmt"
	"sort"

	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/lockpred"
)

// SyncReport describes the classification of one synchronized block.
type SyncReport struct {
	SyncID       ids.SyncID
	Method       string
	Param        string // source form of the lock parameter
	Announceable bool
	Loop         lockpred.LoopKind
	// AnnouncedAt describes where the lockinfo call was injected
	// ("method entry", `after "var m = ..."`, or "" for spontaneous).
	AnnouncedAt string
	// Bound is the statically known upper bound on how often the block
	// can execute per invocation (paper Sect. 5: "determine upper bounds
	// for loops"); 0 means unbounded/unknown.
	Bound int64
}

// MethodReport is the per-method analysis outcome.
type MethodReport struct {
	Method string
	Syncs  []SyncReport
	// Paths enumerates the syncid sequences of all execution paths
	// (loop bodies contribute their syncids once, marked by the loop
	// classification in Syncs). Capped at MaxPaths.
	Paths          [][]ids.SyncID
	PathsTruncated bool
	// Footprint is what the method may lock and touch, resolved once for
	// every consumer (conflict classes, the interference matrix).
	Footprint
}

// MaxPaths caps path enumeration per method.
const MaxPaths = 64

// Result is the full analysis outcome for one object.
type Result struct {
	// Object is the transformed copy: sync blocks expanded to
	// lock/unlock and the scheduler announcements injected.
	Object *lang.Object
	// Static is the initialisation data for the scheduler's bookkeeping
	// module.
	Static *lockpred.StaticInfo
	// Reports holds per-method classification details and footprints,
	// in method order (Reports[i] describes Object.Methods[i]).
	Reports []*MethodReport
}

// Report returns the report for one method, or nil.
func (r *Result) Report(method string) *MethodReport {
	for _, mr := range r.Reports {
		if mr.Method == method {
			return mr
		}
	}
	return nil
}

// Analyze validates, classifies, and transforms obj. The input object is
// not modified.
func Analyze(obj *lang.Object) (*Result, error) {
	if err := validate(obj); err != nil {
		return nil, err
	}
	copy := copyObject(obj)
	a := &analyzer{
		obj:      copy,
		static:   lockpred.NewStaticInfo(),
		monitors: monitorLayout(copy),
		fields:   map[string][]string{},
	}
	for _, m := range copy.Methods {
		if err := a.method(m); err != nil {
			return nil, err
		}
	}
	return &Result{Object: copy, Static: a.static, Reports: a.reports}, nil
}

// MustAnalyze panics on error; for fixed fixtures.
func MustAnalyze(obj *lang.Object) *Result {
	r, err := Analyze(obj)
	if err != nil {
		panic(err)
	}
	return r
}

// ---- validation ----

func validate(obj *lang.Object) error {
	// Helper methods (call targets) must not synchronise, and the call
	// graph must be acyclic.
	callees := map[string]bool{}
	graph := map[string][]string{}
	for _, m := range obj.Methods {
		var calls []string
		collectCalls(m.Body, &calls)
		graph[m.Name] = calls
		for _, c := range calls {
			if obj.Lookup(c) == nil {
				// Builtins (e.g. iserr) are interpreter-provided pure
				// functions, not methods: nothing to validate or visit.
				if lang.IsBuiltin(c) {
					continue
				}
				return fmt.Errorf("analysis: %s calls unknown method %q", m.Name, c)
			}
			callees[c] = true
		}
	}
	for name := range callees {
		m := obj.Lookup(name)
		if hasSyncOps(m.Body) {
			return fmt.Errorf("analysis: helper method %q contains synchronisation; only start methods may synchronise", name)
		}
	}
	// Cycle detection (DFS, three colours).
	state := map[string]int{}
	var visit func(string) error
	visit = func(n string) error {
		switch state[n] {
		case 1:
			return fmt.Errorf("analysis: recursion through method %q is not supported", n)
		case 2:
			return nil
		}
		state[n] = 1
		for _, c := range graph[n] {
			if err := visit(c); err != nil {
				return err
			}
		}
		state[n] = 2
		return nil
	}
	names := make([]string, 0, len(graph))
	for n := range graph {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := visit(n); err != nil {
			return err
		}
	}
	return nil
}

func collectCalls(s lang.Stmt, out *[]string) {
	walkStmt(s, func(n lang.Stmt) {
		if cs, ok := n.(*lang.CallStmt); ok {
			*out = append(*out, cs.Call.Name)
		}
	}, func(e lang.Expr) {
		if c, ok := e.(*lang.CallExpr); ok {
			*out = append(*out, c.Name)
		}
	})
}

func hasSyncOps(s lang.Stmt) bool {
	found := false
	walkStmt(s, func(n lang.Stmt) {
		switch n.(type) {
		case *lang.Sync, *lang.Wait, *lang.Notify, *lang.NestedCall,
			*lang.RawLock, *lang.RawUnlock:
			found = true
		}
	}, nil)
	return found
}

// walkStmt visits every statement (and optionally every expression) in a
// source subtree, pre-order. It does not know the injected scheduler calls:
// every walk runs before the structural transform, or over a helper, which
// has no synchronisation to transform.
func walkStmt(s lang.Stmt, fs func(lang.Stmt), fe func(lang.Expr)) {
	if s == nil {
		return
	}
	if fs != nil {
		fs(s)
	}
	visitExpr := func(e lang.Expr) {
		if e != nil && fe != nil {
			walkExpr(e, fe)
		}
	}
	switch n := s.(type) {
	case *lang.Block:
		for _, c := range n.Stmts {
			walkStmt(c, fs, fe)
		}
	case *lang.VarDecl:
		visitExpr(n.Init)
	case *lang.Assign:
		visitExpr(n.Target)
		visitExpr(n.Value)
	case *lang.If:
		visitExpr(n.Cond)
		walkStmt(n.Then, fs, fe)
		if n.Else != nil {
			walkStmt(n.Else, fs, fe)
		}
	case *lang.While:
		visitExpr(n.Cond)
		walkStmt(n.Body, fs, fe)
	case *lang.Repeat:
		visitExpr(n.Count)
		walkStmt(n.Body, fs, fe)
	case *lang.Sync:
		visitExpr(n.Param)
		walkStmt(n.Body, fs, fe)
	case *lang.Wait:
		visitExpr(n.Monitor)
	case *lang.Notify:
		visitExpr(n.Monitor)
	case *lang.Compute:
		visitExpr(n.Dur)
	case *lang.NestedCall:
		visitExpr(n.Arg)
	case *lang.CallStmt:
		visitExpr(n.Call)
	case *lang.Return:
		visitExpr(n.Value)
	case *lang.RawLock:
		visitExpr(n.Param)
	case *lang.RawUnlock:
		visitExpr(n.Param)
	}
}

func walkExpr(e lang.Expr, f func(lang.Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch n := e.(type) {
	case *lang.Index:
		walkExpr(n.Index, f)
	case *lang.Binary:
		walkExpr(n.L, f)
		walkExpr(n.R, f)
	case *lang.CallExpr:
		for _, a := range n.Args {
			walkExpr(a, f)
		}
	}
}
