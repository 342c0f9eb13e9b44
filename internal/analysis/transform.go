package analysis

import (
	"fmt"

	"detmt/internal/ids"
	"detmt/internal/lang"
	"detmt/internal/lockpred"
)

type analyzer struct {
	obj      *lang.Object
	static   *lockpred.StaticInfo
	reports  []*MethodReport
	nextSync ids.SyncID
	monitors map[string]monitorField // id layout of the monitor fields
	fields   map[string][]string     // fieldsOf memo, by method name
}

// syncInfo is the per-sync classification gathered before transformation.
type syncInfo struct {
	node         *lang.Sync
	id           ids.SyncID
	loops        []lang.Stmt // enclosing loop statements, outermost first
	announceable bool
	loopKind     lockpred.LoopKind
	announceAt   lang.Stmt // defining statement to inject after (nil = method entry)
	announceDesc string
	bound        int64 // static execution bound (0 = unknown)
}

// assignInfo tracks how a name is written within one method.
type assignInfo struct {
	count    int
	defStmt  lang.Stmt   // the single defining statement (if count==1)
	topLevel bool        // defStmt sits directly in the method body block
	inLoops  []lang.Stmt // loops enclosing any assignment to the name
}

func (a *analyzer) method(m *lang.Method) error {
	// 1. Assignment census.
	assigns := a.census(m)

	// 2. Assign syncids in source order; resolve the raw lock statements
	// and note whether the method waits or notifies on the way.
	var syncs []*syncInfo
	var loopStack []lang.Stmt
	fp := Footprint{Fields: a.fieldsOf(m)}
	var rawSites []Site
	var collect func(s lang.Stmt)
	collect = func(s lang.Stmt) {
		switch n := s.(type) {
		case *lang.Block:
			for _, c := range n.Stmts {
				collect(c)
			}
		case *lang.If:
			collect(n.Then)
			if n.Else != nil {
				collect(n.Else)
			}
		case *lang.While:
			loopStack = append(loopStack, n)
			collect(n.Body)
			loopStack = loopStack[:len(loopStack)-1]
		case *lang.Repeat:
			loopStack = append(loopStack, n)
			collect(n.Body)
			loopStack = loopStack[:len(loopStack)-1]
		case *lang.Sync:
			a.nextSync++
			n.SyncID = a.nextSync
			syncs = append(syncs, &syncInfo{
				node:  n,
				id:    n.SyncID,
				loops: append([]lang.Stmt(nil), loopStack...),
			})
			collect(n.Body)
		case *lang.Wait, *lang.Notify:
			fp.WaitNotify = true
		case *lang.RawLock:
			fp.RawLocking = true
			site := a.resolve(m, n.Param, assigns)
			site.Spontaneous, site.InLoop = true, len(loopStack) > 0
			rawSites = append(rawSites, site)
		case *lang.RawUnlock:
			fp.RawLocking = true
		}
	}
	collect(m.Body)

	// 3. Classify each sync block, and resolve it to monitors for the
	// footprint while the defining statements are still in place.
	for _, si := range syncs {
		a.classify(m, si, assigns)
		site := a.resolve(m, si.node.Param, assigns)
		site.Sync, site.Spontaneous, site.InLoop = si.id, !si.announceable, len(si.loops) > 0
		fp.Sites = append(fp.Sites, site)
	}
	fp.Sites = append(fp.Sites, rawSites...)

	// 4. Inject lockinfo calls (before the structural transform, so the
	// defining statements are still identifiable by pointer).
	a.injectLockInfo(m, syncs)

	// 5. Structural transform: expand syncs, inject ignores + loopdones.
	m.Body = &lang.Block{Stmts: a.transformStmts(m.Body.Stmts, false)}

	// 6. Static info for the bookkeeping module. Methods with explicit
	// lock/unlock statements get no table at all: an unpairable
	// acquisition would make the table lie about the future lock set,
	// so conservative no-table bookkeeping (never predicted) is the only
	// sound choice.
	if !fp.RawLocking {
		mi := &lockpred.MethodInfo{Method: m.ID}
		for _, si := range syncs {
			mi.Entries = append(mi.Entries, lockpred.StaticEntry{
				Sync:        si.id,
				Loop:        si.loopKind,
				Spontaneous: !si.announceable,
			})
		}
		a.static.Add(mi)
	}

	// 7. Report with path enumeration.
	rep := &MethodReport{Method: m.Name, Footprint: fp}
	for i, si := range syncs {
		rep.Syncs = append(rep.Syncs, SyncReport{
			SyncID:       si.id,
			Method:       m.Name,
			Param:        fp.Sites[i].Param, // the sync sites come first
			Announceable: si.announceable,
			Loop:         si.loopKind,
			AnnouncedAt:  si.announceDesc,
			Bound:        si.bound,
		})
	}
	rep.Paths, rep.PathsTruncated = enumeratePaths(m.Body)
	a.reports = append(a.reports, rep)
	return nil
}

// census records every write to every name.
func (a *analyzer) census(m *lang.Method) map[string]*assignInfo {
	out := map[string]*assignInfo{}
	get := func(name string) *assignInfo {
		ai := out[name]
		if ai == nil {
			ai = &assignInfo{}
			out[name] = ai
		}
		return ai
	}
	var loops []lang.Stmt
	var walk func(s lang.Stmt, topLevel bool)
	record := func(name string, def lang.Stmt, topLevel bool) {
		ai := get(name)
		ai.count++
		ai.defStmt = def
		ai.topLevel = ai.count == 1 && topLevel
		ai.inLoops = append(ai.inLoops, loops...)
	}
	walk = func(s lang.Stmt, topLevel bool) {
		switch n := s.(type) {
		case *lang.Block:
			for _, c := range n.Stmts {
				walk(c, false)
			}
		case *lang.VarDecl:
			record(n.Name, n, topLevel)
		case *lang.Assign:
			if vr, ok := n.Target.(*lang.VarRef); ok {
				record(vr.Name, n, topLevel)
			}
		case *lang.NestedCall:
			if n.Result != "" {
				record(n.Result, n, topLevel)
			}
		case *lang.If:
			walk(n.Then, false)
			if n.Else != nil {
				walk(n.Else, false)
			}
		case *lang.While:
			loops = append(loops, n)
			walk(n.Body, false)
			loops = loops[:len(loops)-1]
		case *lang.Repeat:
			loops = append(loops, n)
			// The loop variable is (re)assigned by every iteration.
			record(n.Var, n, false)
			get(n.Var).count++ // force multi-assignment
			walk(n.Body, false)
			loops = loops[:len(loops)-1]
		case *lang.Sync:
			walk(n.Body, false)
		}
	}
	for _, s := range m.Body.Stmts {
		walk(s, true)
	}
	return out
}

// classify decides announceability, the loop kind, and the injection
// point of one sync block.
func (a *analyzer) classify(m *lang.Method, si *syncInfo, assigns map[string]*assignInfo) {
	type dep struct {
		name string
		ai   *assignInfo
	}
	spontaneous := false
	var deps []dep

	var inspect func(e lang.Expr)
	inspect = func(e lang.Expr) {
		switch n := e.(type) {
		case *lang.VarRef:
			if a.isParam(m, n.Name) {
				if ai := assigns[n.Name]; ai != nil && ai.count > 0 {
					// Reassigned parameter: treat like a local.
					deps = append(deps, dep{n.Name, ai})
				}
				return
			}
			if ai, ok := assigns[n.Name]; ok {
				deps = append(deps, dep{n.Name, ai})
				return
			}
			f := a.obj.Field(n.Name)
			if f == nil {
				spontaneous = true // unknown name; be safe
				return
			}
			switch f.Kind {
			case lang.FieldMonitor:
				// Immutable monitor field: statically known ("final").
			default:
				// Plain instance field: spontaneous (paper Sect. 4.2).
				spontaneous = true
			}
		case *lang.Index:
			f := a.obj.Field(n.Base)
			if f == nil || f.Kind != lang.FieldMonitorArray {
				spontaneous = true
				return
			}
			inspect(n.Index)
		case *lang.Binary:
			inspect(n.L)
			inspect(n.R)
		case *lang.CallExpr:
			// Return value of a method call: spontaneous (Sect. 4.2).
			spontaneous = true
		case *lang.IntLit, *lang.NullLit:
		}
	}
	inspect(si.node.Param)

	// Locals must have exactly one assignment to pin the value.
	var lastDef lang.Stmt
	lastDefName := ""
	for _, d := range deps {
		if d.ai.count != 1 || d.ai.defStmt == nil {
			spontaneous = true
			break
		}
		if !d.ai.topLevel {
			// Defined under a branch or loop: the value is not fixed on
			// every path through the announcement point; be conservative.
			spontaneous = true
			break
		}
		lastDef = d.ai.defStmt // census walks in source order; later wins
		lastDefName = d.name
	}

	// Loop bound (paper Sect. 5 future work): the product of constant
	// repeat counts; any while loop or computed count makes it unknown.
	si.bound = 1
	for _, l := range si.loops {
		rep, isRepeat := l.(*lang.Repeat)
		if !isRepeat {
			si.bound = 0
			break
		}
		lit, isConst := rep.Count.(*lang.IntLit)
		if !isConst || lit.Value < 0 {
			si.bound = 0
			break
		}
		si.bound *= lit.Value
	}

	// Loop classification.
	switch {
	case len(si.loops) == 0:
		si.loopKind = lockpred.LoopNone
	default:
		variable := spontaneous
		for _, d := range deps {
			for _, l := range d.ai.inLoops {
				for _, enclosing := range si.loops {
					if l == enclosing {
						variable = true // parameter assigned inside the loop
					}
				}
			}
		}
		// A repeat variable used as index makes the mutex change per
		// iteration: the census marked it multi-assignment already, so
		// `spontaneous` is set; classify as variable.
		if variable {
			si.loopKind = lockpred.LoopVariable
		} else {
			si.loopKind = lockpred.LoopFixed
		}
	}

	if si.loopKind == lockpred.LoopVariable {
		si.announceable = false
		return
	}
	si.announceable = !spontaneous
	if !si.announceable {
		return
	}
	si.announceAt = lastDef
	if lastDef == nil {
		si.announceDesc = "method entry"
	} else {
		si.announceDesc = fmt.Sprintf("after the assignment to %q", lastDefName)
	}
}

func (a *analyzer) isParam(m *lang.Method, name string) bool {
	for _, p := range m.Params {
		if p == name {
			return true
		}
	}
	return false
}

// injectLockInfo inserts announcement calls: at method entry for
// parameters and monitor fields, or right after the single top-level
// defining statement for locals.
func (a *analyzer) injectLockInfo(m *lang.Method, syncs []*syncInfo) {
	var atEntry []lang.Stmt
	after := map[lang.Stmt][]lang.Stmt{}
	for _, si := range syncs {
		if !si.announceable {
			continue
		}
		info := &lang.LockInfoStmt{SyncID: si.id, Param: copyExpr(si.node.Param)}
		if si.announceAt == nil {
			atEntry = append(atEntry, info)
		} else {
			after[si.announceAt] = append(after[si.announceAt], info)
		}
	}
	var out []lang.Stmt
	out = append(out, atEntry...)
	for _, s := range m.Body.Stmts {
		out = append(out, s)
		if extra := after[s]; extra != nil {
			out = append(out, extra...)
		}
	}
	m.Body.Stmts = out
}

// transformStmts expands sync blocks into lock/unlock pairs and injects
// ignore and loopdone calls. inLoop suppresses ignore injection (loop
// entries complete via loopdone instead).
func (a *analyzer) transformStmts(stmts []lang.Stmt, inLoop bool) []lang.Stmt {
	var out []lang.Stmt
	for _, s := range stmts {
		switch n := s.(type) {
		case *lang.Sync:
			out = append(out, &lang.LockStmt{SyncID: n.SyncID, Param: n.Param})
			out = append(out, a.transformStmts(n.Body.Stmts, inLoop)...)
			out = append(out, &lang.UnlockStmt{SyncID: n.SyncID, Param: copyExpr(n.Param)})
		case *lang.If:
			thenIDs := syncIDsIn(n.Then)
			var elseIDs []ids.SyncID
			if n.Else != nil {
				elseIDs = syncIDsIn(n.Else)
			}
			tn := &lang.Block{Stmts: a.transformStmts(n.Then.Stmts, inLoop)}
			var en *lang.Block
			if n.Else != nil {
				en = &lang.Block{Stmts: a.transformStmts(n.Else.Stmts, inLoop)}
			}
			if !inLoop {
				// Paths through one branch must tell the bookkeeping
				// module about the other branch's skipped blocks.
				tn.Stmts = append(ignoreStmts(elseIDs), tn.Stmts...)
				if len(thenIDs) > 0 {
					if en == nil {
						en = &lang.Block{}
					}
					en.Stmts = append(ignoreStmts(thenIDs), en.Stmts...)
				} else if en != nil {
					en.Stmts = append(ignoreStmts(thenIDs), en.Stmts...)
				}
			}
			out = append(out, &lang.If{Cond: n.Cond, Then: tn, Else: en})
		case *lang.While:
			body := &lang.Block{Stmts: a.transformStmts(n.Body.Stmts, true)}
			out = append(out, &lang.While{Cond: n.Cond, Body: body})
			for _, id := range syncIDsIn(n.Body) {
				out = append(out, &lang.LoopDoneStmt{SyncID: id})
			}
		case *lang.Repeat:
			body := &lang.Block{Stmts: a.transformStmts(n.Body.Stmts, true)}
			out = append(out, &lang.Repeat{Var: n.Var, Count: n.Count, Body: body})
			for _, id := range syncIDsIn(n.Body) {
				out = append(out, &lang.LoopDoneStmt{SyncID: id})
			}
		case *lang.Block:
			out = append(out, &lang.Block{Stmts: a.transformStmts(n.Stmts, inLoop)})
		default:
			out = append(out, s)
		}
	}
	return out
}

func ignoreStmts(idsList []ids.SyncID) []lang.Stmt {
	var out []lang.Stmt
	for _, id := range idsList {
		out = append(out, &lang.IgnoreStmt{SyncID: id})
	}
	return out
}

// syncIDsIn lists the syncids of all sync blocks in a subtree, in source
// order.
func syncIDsIn(s lang.Stmt) []ids.SyncID {
	var out []ids.SyncID
	walkStmt(s, func(n lang.Stmt) {
		if sy, ok := n.(*lang.Sync); ok {
			out = append(out, sy.SyncID)
		}
	}, nil)
	return out
}

// enumeratePaths lists the syncid sequences of all acyclic paths through
// a (transformed) method body. Loops contribute their contained syncids
// once. The result is capped at MaxPaths.
func enumeratePaths(b *lang.Block) ([][]ids.SyncID, bool) {
	paths := [][]ids.SyncID{{}}
	truncated := false
	appendToAll(&paths, &truncated, b)
	// Normalise: drop the empty marker representation.
	out := make([][]ids.SyncID, len(paths))
	copy(out, paths)
	return out, truncated
}

func appendToAll(paths *[][]ids.SyncID, truncated *bool, s lang.Stmt) {
	switch n := s.(type) {
	case *lang.Block:
		for _, c := range n.Stmts {
			appendToAll(paths, truncated, c)
		}
	case *lang.LockStmt:
		for i := range *paths {
			(*paths)[i] = append((*paths)[i], n.SyncID)
		}
	case *lang.Sync:
		for i := range *paths {
			(*paths)[i] = append((*paths)[i], n.SyncID)
		}
		appendToAll(paths, truncated, n.Body)
	case *lang.If:
		thenPaths := clonePaths(*paths)
		appendToAll(&thenPaths, truncated, n.Then)
		elsePaths := *paths
		if n.Else != nil {
			appendToAll(&elsePaths, truncated, n.Else)
		}
		merged := append(thenPaths, elsePaths...)
		if len(merged) > MaxPaths {
			merged = merged[:MaxPaths]
			*truncated = true
		}
		*paths = merged
	case *lang.While:
		appendToAll(paths, truncated, n.Body)
	case *lang.Repeat:
		appendToAll(paths, truncated, n.Body)
	}
}

func clonePaths(in [][]ids.SyncID) [][]ids.SyncID {
	out := make([][]ids.SyncID, len(in))
	for i, p := range in {
		out[i] = append([]ids.SyncID(nil), p...)
	}
	return out
}
