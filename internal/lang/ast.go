// Package lang defines a miniature object language standing in for the
// Java subset that the paper's TPL toolchain transforms (Sect. 4).
//
// One source file declares one replicated object: its fields (plain
// value fields, monitor fields, monitor arrays) and its methods. Method
// bodies use Java-monitor-style synchronisation:
//
//	object Account {
//	    monitor balanceLock;
//	    monitor cells[100];
//	    field myo;
//	    field balance;
//
//	    method deposit(amount, cell) {
//	        var m = cells[cell];
//	        sync (m) {
//	            balance = balance + amount;
//	        }
//	        compute(1ms);
//	        nested(12ms);
//	    }
//	}
//
// The analysis package enumerates paths, assigns syncids, classifies lock
// parameters (announceable vs spontaneous) and loops, and injects the
// scheduler calls lockinfo / ignore / loopdone, turning every sync block
// into explicit lock/unlock pairs — exactly the transformation of the
// paper's Fig. 4. The interpreter (interp.go) then executes transformed
// methods against a core.Runtime thread.
package lang

import (
	"sync"
	"time"

	"detmt/internal/ids"
)

// Object is a parsed object declaration.
type Object struct {
	Name    string
	Fields  []*FieldDecl
	Methods []*Method

	resolveOnce sync.Once
	plain       []string // distinct plain-field names: an instance's value slots
}

// FieldKind distinguishes the three field flavours.
type FieldKind int

const (
	// FieldPlain holds an arbitrary value (int, monitor reference, null).
	FieldPlain FieldKind = iota
	// FieldMonitor is a dedicated monitor object.
	FieldMonitor
	// FieldMonitorArray is a fixed-size array of monitors.
	FieldMonitorArray
)

// FieldDecl declares one object field.
type FieldDecl struct {
	Name string
	Kind FieldKind
	Size int // for FieldMonitorArray
}

// Method is one (public) method of the object. All methods are start
// methods in the sense of the paper; helper methods that other methods
// call must not contain synchronisation (a documented restriction of the
// static analysis).
type Method struct {
	ID     ids.MethodID // assigned in declaration order by the parser
	Name   string
	Params []string
	Body   *Block

	slots      int   // frame size: one slot per distinct parameter or local name
	paramSlots []int // the slot each parameter position binds
}

// Lookup finds a method by name, or nil.
func (o *Object) Lookup(name string) *Method {
	for _, m := range o.Methods {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Field finds a field declaration by name, or nil.
func (o *Object) Field(name string) *FieldDecl {
	for _, f := range o.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// ---- statements ----

// Stmt is implemented by all statement nodes.
type Stmt interface{ stmt() }

// Block is a brace-delimited statement sequence.
type Block struct {
	Stmts []Stmt
}

// VarDecl declares (and initialises) a method-local variable.
type VarDecl struct {
	Name string
	Init Expr

	slot int
}

// Assign writes to a local, a field, or a monitor-array element.
type Assign struct {
	Target Expr // VarRef or Index
	Value  Expr
}

// If is a two-way branch; Else may be nil.
type If struct {
	Cond Expr
	Then *Block
	Else *Block
}

// While loops while Cond is true.
type While struct {
	Cond Expr
	Body *Block
}

// Repeat runs Body Count times with Var bound to 0..Count-1.
type Repeat struct {
	Var   string
	Count Expr
	Body  *Block

	slot int
}

// Sync is a synchronized block on the monitor that Param evaluates to.
// The analysis replaces it by Lock/Unlock around the body.
type Sync struct {
	Param Expr
	Body  *Block
	// SyncID is assigned by the analysis (0 before).
	SyncID ids.SyncID
}

// Wait blocks on the condition variable of Monitor (which must be held).
// Timeout zero means wait forever.
type Wait struct {
	Monitor Expr
	Timeout time.Duration
}

// Notify wakes one (or all) waiters of Monitor (which must be held).
type Notify struct {
	Monitor Expr
	All     bool
}

// Compute models a local computation.
type Compute struct {
	Dur Expr // duration value (microseconds when numeric)
}

// NestedCall performs a nested invocation; the reply is discarded or
// bound to a local.
type NestedCall struct {
	Arg    Expr   // argument passed to the external service (may be nil)
	Result string // local to bind the reply to ("" to discard)

	slot int // Result's slot
}

// CallStmt invokes a helper method for effect.
type CallStmt struct {
	Call *CallExpr
}

// Return ends the method, optionally yielding a value.
type Return struct {
	Value Expr // may be nil
}

// RawLock is an explicit, non-block-structured lock statement — the
// java.util.concurrent-style extension the paper lists as future work.
// Static analysis cannot pair it with its unlock, so methods using it
// are executed with conservative (never-predicted) bookkeeping.
type RawLock struct {
	Param Expr
}

// RawUnlock releases an explicitly locked monitor.
type RawUnlock struct {
	Param Expr
}

// ---- injected statements (produced by package analysis) ----

// LockStmt is the transformed entry of a synchronized block.
type LockStmt struct {
	SyncID ids.SyncID
	Param  Expr
}

// UnlockStmt is the transformed exit of a synchronized block.
type UnlockStmt struct {
	SyncID ids.SyncID
	Param  Expr
}

// LockInfoStmt announces the future mutex of a syncid (paper Sect. 4.2),
// injected right after the lock parameter's last assignment.
type LockInfoStmt struct {
	SyncID ids.SyncID
	Param  Expr
}

// IgnoreStmt tells the scheduler that this path skips a syncid (Sect. 4.1).
type IgnoreStmt struct {
	SyncID ids.SyncID
}

// LoopDoneStmt tells the scheduler that the loop containing a syncid has
// been passed (Sect. 4.4).
type LoopDoneStmt struct {
	SyncID ids.SyncID
}

func (*Block) stmt()        {}
func (*VarDecl) stmt()      {}
func (*Assign) stmt()       {}
func (*If) stmt()           {}
func (*While) stmt()        {}
func (*Repeat) stmt()       {}
func (*Sync) stmt()         {}
func (*Wait) stmt()         {}
func (*Notify) stmt()       {}
func (*Compute) stmt()      {}
func (*NestedCall) stmt()   {}
func (*CallStmt) stmt()     {}
func (*Return) stmt()       {}
func (*RawLock) stmt()      {}
func (*RawUnlock) stmt()    {}
func (*LockStmt) stmt()     {}
func (*UnlockStmt) stmt()   {}
func (*LockInfoStmt) stmt() {}
func (*IgnoreStmt) stmt()   {}
func (*LoopDoneStmt) stmt() {}

// ---- expressions ----

// Expr is implemented by all expression nodes.
type Expr interface{ expr() }

// IntLit is an integer literal; durations ("12ms") parse into the
// microsecond count with IsDur set.
type IntLit struct {
	Value int64
	IsDur bool
}

// NullLit is the null literal.
type NullLit struct{}

// VarRef names a parameter, local, or field: a local once its binding
// has run in this call, else a parameter, else a field.
type VarRef struct {
	Name string

	slot  int // -1 when no parameter or local has this name
	field fieldRef
}

// Index subscripts a monitor-array field.
type Index struct {
	Base  string
	Index Expr

	array int // declaration index of the array, -1 when Base names none
}

// Binary is a binary operation: + - * / % == != < <= > >= && ||.
type Binary struct {
	Op   string
	L, R Expr
}

// CallExpr invokes a helper method and yields its return value.
type CallExpr struct {
	Name string
	Args []Expr

	callee  *Method // nil for a builtin or an unknown name
	builtin builtin
}

func (*IntLit) expr()   {}
func (*NullLit) expr()  {}
func (*VarRef) expr()   {}
func (*Index) expr()    {}
func (*Binary) expr()   {}
func (*CallExpr) expr() {}
