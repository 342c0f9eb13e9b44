package analysis

import (
	"fmt"
	"slices"
	"strings"

	"detmt/internal/ids"
	"detmt/internal/lang"
)

// Footprint is the one static answer to "which monitors and fields may a
// request of this method touch": the paper's lock-parameter analysis
// (Sect. 4.2) plus the data flow its future-work list asks for (Sect. 5) —
// single-assignment locals are resolved through their definitions and
// index expressions are bounded by intervals. It holds facts only; what a
// ⊤ site or a wait means — escalate, serialise, refuse — is the consumer's
// policy (earlysched turns the facts into conflict classes,
// Result.Interferes into the interference matrix).
type Footprint struct {
	// Sites lists every place the method names a monitor to lock: its
	// sync blocks in syncid order, then its raw lock statements.
	Sites []Site
	// Fields are the plain (mutable) fields the method reads or writes,
	// directly or through helper calls; sorted.
	Fields []string
	// WaitNotify marks methods that wait on or notify a monitor.
	WaitNotify bool
	// RawLocking marks methods that use explicit lock/unlock statements
	// (the java.util.concurrent extension). The analysis cannot pair
	// such acquisitions, so the method runs without a bookkeeping table
	// and its threads are never predicted — safe but maximally
	// pessimistic under prediction-based schedulers.
	RawLocking bool
}

// Site is one lock site and the monitors its parameter can denote: either
// ⊤ with the reason, or the elements Lo..Hi of one monitor field.
type Site struct {
	Sync        ids.SyncID // 0 for a raw lock statement
	Param       string     // source form of the lock parameter
	Spontaneous bool       // not announceable (Sect. 4.2): unknown until the lock happens
	InLoop      bool

	Top    bool   // resolves to no monitor field of the object
	Reason string // why, when Top

	Name   string      // the monitor field or monitor array
	Size   int         // array length; 0 for a monitor field
	Base   ids.MutexID // id of the field, or of element 0
	Lo, Hi int64       // index range, clamped to the array (0, 0 for a field)
	// Index is the index expression once single-assignment locals are
	// substituted; nil when it folds to a constant. ParamOnly says it
	// mentions nothing but literals and never-reassigned parameters, so a
	// request's arguments decide the one monitor (Monitor).
	Index     lang.Expr
	ParamOnly bool
}

// Whole reports a non-constant index the analysis could not narrow below
// the array's bounds.
func (s *Site) Whole() bool { return s.Index != nil && s.Lo == 0 && s.Hi == int64(s.Size)-1 }

// Monitor evaluates a ParamOnly site against one request's arguments.
// ok is false when the index cannot be evaluated or leaves Lo..Hi (the
// lock would fail at run time).
func (s *Site) Monitor(params []string, args []lang.Value) (_ ids.MutexID, ok bool) {
	idx, ok := evalIndex(s.Index, params, args)
	if !ok || idx < s.Lo || idx > s.Hi {
		return 0, false
	}
	return s.Base + ids.MutexID(idx), true
}

func (s *Site) String() string {
	switch {
	case s.Top:
		return "⊤"
	case s.Size == 0:
		return s.Name
	case s.Whole():
		return s.Name + "[*]"
	case s.Lo == s.Hi:
		return fmt.Sprintf("%s[%d]", s.Name, s.Lo)
	}
	return fmt.Sprintf("%s[%d..%d]", s.Name, s.Lo, s.Hi)
}

// Monitors returns the sorted set of monitors the method may lock; top
// means "any monitor" (some site is ⊤).
func (f *Footprint) Monitors() (set []ids.MutexID, top bool) {
	for i := range f.Sites {
		s := &f.Sites[i]
		if s.Top {
			return nil, true
		}
		for j := s.Lo; j <= s.Hi; j++ {
			set = append(set, s.Base+ids.MutexID(j))
		}
	}
	slices.Sort(set)
	return slices.Compact(set), false
}

// Describe renders the monitor set for reports.
func (f *Footprint) Describe() string {
	var parts []string
	for i := range f.Sites {
		if f.Sites[i].Top {
			return "⊤ (any monitor)"
		}
		parts = append(parts, f.Sites[i].String())
	}
	if len(parts) == 0 {
		return "∅"
	}
	slices.Sort(parts)
	return "{" + strings.Join(slices.Compact(parts), ", ") + "}"
}

// monitorField locates one monitor field in the instance's id space.
type monitorField struct {
	base ids.MutexID
	size int // 0 for a single monitor
}

// monitorLayout replicates lang.NewInstance(obj, 0): dense ids in field
// declaration order, which is how every replica allocates its instance.
func monitorLayout(obj *lang.Object) map[string]monitorField {
	out := map[string]monitorField{}
	next := ids.MutexID(0)
	for _, f := range obj.Fields {
		switch f.Kind {
		case lang.FieldMonitor:
			out[f.Name] = monitorField{base: next}
			next++
		case lang.FieldMonitorArray:
			out[f.Name] = monitorField{base: next, size: f.Size}
			next += ids.MutexID(f.Size)
		}
	}
	return out
}

// resolve maps one lock parameter to the monitors it can denote — the only
// place that does.
func (a *analyzer) resolve(m *lang.Method, param lang.Expr, assigns map[string]*assignInfo) Site {
	s := Site{Param: lang.PrintExpr(param)}
	top := func(format string, args ...interface{}) Site {
		s.Top, s.Reason = true, fmt.Sprintf(format, args...)
		return s
	}
	switch n := a.subst(m, param, assigns, 0).(type) {
	case *lang.VarRef:
		mon, ok := a.monitors[n.Name]
		if !ok || mon.size > 0 {
			return top("unresolvable lock parameter %q", n.Name)
		}
		s.Name, s.Base = n.Name, mon.base
	case *lang.Index:
		mon, ok := a.monitors[n.Base]
		if !ok || mon.size == 0 {
			return top("unresolvable lock parameter %s[...]", n.Base)
		}
		s.Name, s.Base, s.Size = n.Base, mon.base, mon.size
		last := int64(mon.size) - 1
		if v, ok := evalIndex(n.Index, nil, nil); ok {
			if v < 0 || v > last {
				return top("constant lock index %d out of range", v)
			}
			s.Lo, s.Hi = v, v
			return s
		}
		s.Index, s.ParamOnly = n.Index, a.paramOnly(m, n.Index, assigns)
		s.Lo, s.Hi = 0, last
		if r := intervalOf(n.Index); r.ok {
			s.Lo, s.Hi = max(r.lo, 0), min(r.hi, last)
			if s.Lo > s.Hi {
				return top("lock index provably out of range")
			}
		}
	default:
		return top("unresolvable lock parameter")
	}
	return s
}

// substDepth bounds chains of local definitions (and cuts cyclic ones).
const substDepth = 8

// subst resolves single-assignment locals through their definitions — one
// step of copy propagation per local, the same rule that makes a lock
// parameter announceable. Fields are mutable and parameters carry their
// entry value besides any assignment, so neither is ever substituted.
func (a *analyzer) subst(m *lang.Method, e lang.Expr, assigns map[string]*assignInfo, depth int) lang.Expr {
	switch n := e.(type) {
	case *lang.VarRef:
		if a.obj.Field(n.Name) != nil || a.isParam(m, n.Name) || depth >= substDepth {
			return e
		}
		if ai := assigns[n.Name]; ai != nil && ai.count == 1 {
			switch def := ai.defStmt.(type) {
			case *lang.VarDecl:
				return a.subst(m, def.Init, assigns, depth+1)
			case *lang.Assign:
				return a.subst(m, def.Value, assigns, depth+1)
			}
		}
	case *lang.Index:
		return &lang.Index{Base: n.Base, Index: a.subst(m, n.Index, assigns, depth)}
	case *lang.Binary:
		return &lang.Binary{Op: n.Op, L: a.subst(m, n.L, assigns, depth), R: a.subst(m, n.R, assigns, depth)}
	}
	return e
}

// paramOnly reports whether a request's arguments alone decide e: literals
// and parameters the method never assigns.
func (a *analyzer) paramOnly(m *lang.Method, e lang.Expr, assigns map[string]*assignInfo) bool {
	switch n := e.(type) {
	case *lang.IntLit:
		return true
	case *lang.VarRef:
		return a.isParam(m, n.Name) && assigns[n.Name] == nil
	case *lang.Binary:
		return a.paramOnly(m, n.L, assigns) && a.paramOnly(m, n.R, assigns)
	}
	return false
}

// fieldsOf returns the plain fields a method touches, transitively through
// helper calls (the call graph is acyclic by validation); sorted.
func (a *analyzer) fieldsOf(m *lang.Method) []string {
	if got, ok := a.fields[m.Name]; ok {
		return got
	}
	set := map[string]bool{}
	walkStmt(m.Body, nil, func(e lang.Expr) {
		switch n := e.(type) {
		case *lang.VarRef:
			if f := a.obj.Field(n.Name); f != nil && f.Kind == lang.FieldPlain {
				set[n.Name] = true
			}
		case *lang.CallExpr:
			if callee := a.obj.Lookup(n.Name); callee != nil { // not a builtin
				for _, f := range a.fieldsOf(callee) {
					set[f] = true
				}
			}
		}
	})
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	slices.Sort(out)
	a.fields[m.Name] = out
	return out
}

// Interferes reports whether two methods can ever lock a common monitor —
// if not, their requests never contend for a lock under any scheduler,
// which a request analyser could exploit (paper Sect. 5). It compares
// monitors only: two methods that write the same plain field under
// different monitors do not "interfere" here, although they race. Whether
// every field access sits under a common lock is the lockset check of
// ROADMAP item 1(iv), which will read the same Footprint (Fields, Sites).
func (r *Result) Interferes(method1, method2 string) bool {
	r1, r2 := r.Report(method1), r.Report(method2)
	if r1 == nil || r2 == nil {
		return true // unknown method: be conservative
	}
	s1, top1 := r1.Monitors()
	s2, top2 := r2.Monitors()
	if (!top1 && len(s1) == 0) || (!top2 && len(s2) == 0) {
		return false // provably lock-free
	}
	if top1 || top2 {
		return true
	}
	for i, j := 0, 0; i < len(s1) && j < len(s2); {
		switch {
		case s1[i] == s2[j]:
			return true
		case s1[i] < s2[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// InterferenceMatrix renders the pairwise interference of all methods.
func (r *Result) InterferenceMatrix() string {
	var b strings.Builder
	b.WriteString("method possible-mutex sets:\n")
	for _, rep := range r.Reports {
		fmt.Fprintf(&b, "  %-16s %s\n", rep.Method, rep.Describe())
	}
	b.WriteString("pairs that can never interfere:\n")
	any := false
	for i, r1 := range r.Reports {
		for _, r2 := range r.Reports[i:] {
			if !r.Interferes(r1.Method, r2.Method) {
				fmt.Fprintf(&b, "  %s ⟂ %s\n", r1.Method, r2.Method)
				any = true
			}
		}
	}
	if !any {
		b.WriteString("  (none)\n")
	}
	return b.String()
}
