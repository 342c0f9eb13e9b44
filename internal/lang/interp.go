package lang

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"detmt/internal/core"
	"detmt/internal/ids"
)

// Value is a runtime value of the mini language: int64, bool, Monitor,
// ErrValue, or nil (null).
type Value interface{}

// Monitor is a reference to a runtime monitor (mutex + condition
// variable).
type Monitor ids.MutexID

// ErrValue is a first-class error value: the deterministic in-language
// representation of a failed nested invocation. The performing replica
// turns a backend error or timeout into an ErrValue and spreads it
// through the total order, so every replica observes the same failure.
// Programs bind it with `var r = nested(x);` and test it with the
// `iserr(r)` builtin; a statement-form `nested(x);` that receives an
// ErrValue aborts the method with that error instead (there is no name
// to bind the failure to, and silently dropping it would hide a
// half-completed external call).
type ErrValue string

// Error makes ErrValue usable as a Go error as well.
func (e ErrValue) Error() string { return string(e) }

// IsBuiltin reports whether name is a built-in function of the language
// rather than a method of the object. Builtins are only consulted when
// the object does not define a method of the same name.
func IsBuiltin(name string) bool { return builtinOf(name) != notBuiltin }

// Instance is one replica's live copy of an object: its field values and
// its monitor identities. All replicas construct instances from the same
// Object in the same way, so monitor ids agree across replicas.
//
// Field access is physically protected by an internal mutex; *logical*
// protection is the program's own responsibility via sync blocks, exactly
// as the paper's system model assumes.
type Instance struct {
	Obj *Object

	mu    sync.Mutex
	plain []Value // plain fields, by the object's value slot
	// entries holds the map builtins' entries and whatever SetField
	// stores under a name no plain field declares.
	entries  map[string]Value
	monitors []ids.MutexID // by declaration: a monitor's id, an array's first
}

// NewInstance allocates field storage and monitor identities. Monitor ids
// are assigned densely in field declaration order starting at base, which
// lets several instances coexist on one runtime without collisions.
// The first instance of an object resolves the names its methods use.
func NewInstance(obj *Object, base ids.MutexID) *Instance {
	obj.resolve()
	in := &Instance{
		Obj:      obj,
		plain:    make([]Value, len(obj.plain)),
		entries:  map[string]Value{},
		monitors: make([]ids.MutexID, len(obj.Fields)),
	}
	for i := range in.plain {
		// Plain fields start at integer zero (the language's natural
		// default); programs can still assign null explicitly.
		in.plain[i] = int64(0)
	}
	next := base
	for i, f := range obj.Fields {
		switch f.Kind {
		case FieldMonitor:
			in.monitors[i] = next
			next++
		case FieldMonitorArray:
			in.monitors[i] = next
			next += ids.MutexID(f.Size)
		}
	}
	return in
}

// MonitorCount returns how many monitor ids the instance allocated.
func (in *Instance) MonitorCount() int {
	n := 0
	for _, f := range in.Obj.Fields {
		switch f.Kind {
		case FieldMonitor:
			n++
		case FieldMonitorArray:
			n += f.Size
		}
	}
	return n
}

// GetField reads a plain field (for assertions in tests and examples).
func (in *Instance) GetField(name string) Value {
	in.mu.Lock()
	defer in.mu.Unlock()
	if i := in.Obj.plainSlot(name); i >= 0 {
		return in.plain[i]
	}
	return in.entries[name]
}

// SetField writes a plain field (typically for initial state).
func (in *Instance) SetField(name string, v Value) {
	in.mu.Lock()
	if i := in.Obj.plainSlot(name); i >= 0 {
		in.plain[i] = v
	} else {
		in.entries[name] = v
	}
	in.mu.Unlock()
}

// Snapshot returns a copy of all plain fields — the object state used for
// replica-consistency assertions.
func (in *Instance) Snapshot() map[string]Value {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]Value, len(in.plain)+len(in.entries))
	for i, name := range in.Obj.plain {
		out[name] = in.plain[i]
	}
	for k, v := range in.entries {
		out[k] = v
	}
	return out
}

// execLimit bounds interpreter steps per invocation, so buggy programs
// fail loudly instead of hanging the virtual clock.
const execLimit = 10_000_000

type interp struct {
	in    *Instance
	th    *core.Thread
	frame []Value // the method's parameters and locals, by slot
}

type returned struct{ v Value }

func (returned) Error() string { return "return" }

// Exec runs the named method with the given positional arguments on the
// (scheduler-managed) thread th and returns the method's return value.
func (in *Instance) Exec(th *core.Thread, method string, args []Value) (Value, error) {
	m := in.Obj.Lookup(method)
	if m == nil {
		return nil, fmt.Errorf("lang: unknown method %q", method)
	}
	return in.exec(th, m, args, new(int))
}

func (in *Instance) exec(th *core.Thread, m *Method, args []Value, steps *int) (Value, error) {
	if len(args) != len(m.Params) {
		return nil, arityError(m, len(args))
	}
	frame := m.newFrame()
	for i, s := range m.paramSlots {
		frame[s] = args[i]
	}
	return in.run(th, m, frame, steps)
}

func arityError(m *Method, got int) error {
	return fmt.Errorf("lang: %s expects %d args, got %d", m.Name, len(m.Params), got)
}

// newFrame returns a frame with every slot unbound; the caller binds the
// parameters. A duplicated parameter name binds its last argument.
func (m *Method) newFrame() []Value {
	frame := make([]Value, m.slots)
	for i := range frame {
		frame[i] = unbound{}
	}
	return frame
}

func (in *Instance) run(th *core.Thread, m *Method, frame []Value, steps *int) (Value, error) {
	it := interp{in: in, th: th, frame: frame}
	err := it.block(m.Body, steps)
	if r, ok := err.(returned); ok {
		return r.v, nil
	}
	return nil, err
}

// local returns the value a frame slot binds; ok is false when the
// reference has no slot or its slot is unbound in this call.
func (it *interp) local(slot int) (v Value, ok bool) {
	if slot < 0 {
		return nil, false
	}
	v = it.frame[slot]
	_, isUnbound := v.(unbound)
	return v, !isUnbound
}

func (it *interp) block(b *Block, steps *int) error {
	for _, s := range b.Stmts {
		if err := it.stmt(s, steps); err != nil {
			return err
		}
	}
	return nil
}

func (it *interp) stmt(s Stmt, steps *int) error {
	*steps++
	if *steps > execLimit {
		return fmt.Errorf("lang: execution step limit exceeded (infinite loop?)")
	}
	switch n := s.(type) {
	case *Block:
		return it.block(n, steps)
	case *VarDecl:
		v, err := it.eval(n.Init, steps)
		if err != nil {
			return err
		}
		it.frame[n.slot] = v
		return nil
	case *Assign:
		v, err := it.eval(n.Value, steps)
		if err != nil {
			return err
		}
		return it.assign(n.Target, v, steps)
	case *If:
		c, err := it.evalBool(n.Cond, steps)
		if err != nil {
			return err
		}
		if c {
			return it.block(n.Then, steps)
		}
		if n.Else != nil {
			return it.block(n.Else, steps)
		}
		return nil
	case *While:
		for {
			c, err := it.evalBool(n.Cond, steps)
			if err != nil {
				return err
			}
			if !c {
				return nil
			}
			if err := it.block(n.Body, steps); err != nil {
				return err
			}
			*steps++
			if *steps > execLimit {
				return fmt.Errorf("lang: execution step limit exceeded (infinite loop?)")
			}
		}
	case *Repeat:
		count, err := it.evalInt(n.Count, steps)
		if err != nil {
			return err
		}
		// The variable shadows whatever its name bound (an outer local
		// or a parameter) only while the loop runs, and unbinds again if
		// its name bound nothing.
		saved := it.frame[n.slot]
		for i := int64(0); i < count; i++ {
			it.frame[n.slot] = i
			if err := it.block(n.Body, steps); err != nil {
				return err
			}
		}
		it.frame[n.slot] = saved
		return nil
	case *Sync:
		// Untransformed sync: behave like lock/body/unlock with the
		// node's syncid (NoSync when analysis has not run).
		mid, err := it.evalMonitor(n.Param, steps)
		if err != nil {
			return err
		}
		sid := n.SyncID
		if sid == 0 {
			sid = ids.NoSync
		}
		it.th.Lock(sid, mid)
		err = it.block(n.Body, steps)
		it.th.Unlock(sid, mid)
		return err
	case *LockStmt:
		mid, err := it.evalMonitor(n.Param, steps)
		if err != nil {
			return err
		}
		it.th.Lock(n.SyncID, mid)
		return nil
	case *UnlockStmt:
		mid, err := it.evalMonitor(n.Param, steps)
		if err != nil {
			return err
		}
		it.th.Unlock(n.SyncID, mid)
		return nil
	case *LockInfoStmt:
		mid, err := it.evalMonitor(n.Param, steps)
		if err != nil {
			return err
		}
		it.th.LockInfo(n.SyncID, mid)
		return nil
	case *IgnoreStmt:
		it.th.Ignore(n.SyncID)
		return nil
	case *LoopDoneStmt:
		it.th.LoopDone(n.SyncID)
		return nil
	case *Wait:
		mid, err := it.evalMonitor(n.Monitor, steps)
		if err != nil {
			return err
		}
		if n.Timeout > 0 {
			it.th.WaitTimeout(mid, n.Timeout)
		} else {
			it.th.Wait(mid)
		}
		return nil
	case *Notify:
		mid, err := it.evalMonitor(n.Monitor, steps)
		if err != nil {
			return err
		}
		if n.All {
			it.th.NotifyAll(mid)
		} else {
			it.th.Notify(mid)
		}
		return nil
	case *Compute:
		us, err := it.evalInt(n.Dur, steps)
		if err != nil {
			return err
		}
		it.th.Compute(time.Duration(us) * time.Microsecond)
		return nil
	case *NestedCall:
		var arg Value
		if n.Arg != nil {
			v, err := it.eval(n.Arg, steps)
			if err != nil {
				return err
			}
			arg = v
		}
		reply := it.th.Nested(arg)
		if n.Result != "" {
			it.frame[n.slot] = reply
			return nil
		}
		if ev, ok := reply.(ErrValue); ok {
			// Statement form discards the reply, so a failed external
			// call has nowhere to land: abort the method with the error
			// (deterministically — every replica resumed with the same
			// ErrValue from the total order).
			return fmt.Errorf("lang: nested invocation failed: %s", string(ev))
		}
		return nil
	case *RawLock:
		mid, err := it.evalMonitor(n.Param, steps)
		if err != nil {
			return err
		}
		it.th.Lock(ids.NoSync, mid)
		return nil
	case *RawUnlock:
		mid, err := it.evalMonitor(n.Param, steps)
		if err != nil {
			return err
		}
		it.th.Unlock(ids.NoSync, mid)
		return nil
	case *CallStmt:
		_, err := it.call(n.Call, steps)
		return err
	case *Return:
		if n.Value == nil {
			return returned{}
		}
		v, err := it.eval(n.Value, steps)
		if err != nil {
			return err
		}
		return returned{v}
	default:
		return fmt.Errorf("lang: unknown statement %T", s)
	}
}

func (it *interp) assign(target Expr, v Value, steps *int) error {
	switch t := target.(type) {
	case *VarRef:
		if _, ok := it.local(t.slot); ok {
			it.frame[t.slot] = v
			return nil
		}
		switch t.field.kind {
		case refNone:
			return fmt.Errorf("lang: assignment to undeclared name %q", t.Name)
		case refMonitor, refArray:
			return fmt.Errorf("lang: cannot assign to monitor field %q", t.Name)
		}
		it.in.mu.Lock()
		it.in.plain[t.field.idx] = v
		it.in.mu.Unlock()
		return nil
	default:
		return fmt.Errorf("lang: invalid assignment target %T", target)
	}
}

func (it *interp) call(c *CallExpr, steps *int) (Value, error) {
	callee := c.callee
	if callee == nil {
		if c.builtin != notBuiltin {
			return it.builtin(c, steps)
		}
		return nil, fmt.Errorf("lang: call to unknown method %q", c.Name)
	}
	// The arguments are evaluated straight into the callee's frame. On an
	// arity mismatch they are still all evaluated, then the call fails.
	frame := callee.newFrame()
	fits := len(c.Args) == len(callee.Params)
	for i, a := range c.Args {
		v, err := it.eval(a, steps)
		if err != nil {
			return nil, err
		}
		if fits {
			frame[callee.paramSlots[i]] = v
		}
	}
	if !fits {
		return nil, arityError(callee, len(c.Args))
	}
	return it.in.run(it.th, callee, frame, steps)
}

// builtin evaluates a built-in function call (object methods of the same
// name shadow builtins; see call).
func (it *interp) builtin(c *CallExpr, steps *int) (Value, error) {
	switch c.builtin {
	case builtinIsErr:
		if len(c.Args) != 1 {
			return nil, fmt.Errorf("lang: iserr expects 1 argument, got %d", len(c.Args))
		}
		v, err := it.eval(c.Args[0], steps)
		if err != nil {
			return nil, err
		}
		_, isErr := v.(ErrValue)
		return isErr, nil
	case builtinMapGet:
		ns, key, err := it.mapKey(c, steps)
		if err != nil {
			return nil, err
		}
		var buf [mapKeyLen]byte
		it.in.mu.Lock()
		v := it.in.entries[string(appendMapKey(buf[:0], ns, key))]
		it.in.mu.Unlock()
		return v, nil
	case builtinMapPut:
		if len(c.Args) != 3 {
			return nil, fmt.Errorf("lang: mapput expects 3 arguments, got %d", len(c.Args))
		}
		ns, key, err := it.mapKey(c, steps)
		if err != nil {
			return nil, err
		}
		v, err := it.eval(c.Args[2], steps)
		if err != nil {
			return nil, err
		}
		if _, bad := v.(Monitor); bad {
			return nil, fmt.Errorf("lang: mapput cannot store a monitor reference")
		}
		var buf [mapKeyLen]byte
		k := string(appendMapKey(buf[:0], ns, key))
		it.in.mu.Lock()
		it.in.entries[k] = v
		it.in.mu.Unlock()
		return nil, nil
	case builtinMapDel:
		ns, key, err := it.mapKey(c, steps)
		if err != nil {
			return nil, err
		}
		var buf [mapKeyLen]byte
		it.in.mu.Lock()
		delete(it.in.entries, string(appendMapKey(buf[:0], ns, key)))
		it.in.mu.Unlock()
		return nil, nil
	default:
		return nil, fmt.Errorf("lang: unknown builtin %q", c.Name)
	}
}

// appendMapKey appends the name "kv<ns>:<key>" under which one entry of
// the builtin key/value map is stored. The ':' keeps generated keys
// disjoint from any declarable identifier, so Snapshot/recovery cover map
// entries exactly like declared fields.
func appendMapKey(dst []byte, ns, key int64) []byte {
	dst = append(dst, "kv"...)
	dst = strconv.AppendInt(dst, ns, 10)
	dst = append(dst, ':')
	return strconv.AppendInt(dst, key, 10)
}

// mapKeyLen holds any map key: "kv", ':' and two int64s of up to 20
// bytes each.
const mapKeyLen = 2 + 20 + 1 + 20

// mapKey evaluates the leading (namespace, key) argument pair shared by
// the map builtins. mapget/mapdel take exactly those two; mapput's third
// argument is handled by the caller.
func (it *interp) mapKey(c *CallExpr, steps *int) (int64, int64, error) {
	if c.builtin != builtinMapPut && len(c.Args) != 2 {
		return 0, 0, fmt.Errorf("lang: %s expects 2 arguments, got %d", c.Name, len(c.Args))
	}
	ns, err := it.evalInt(c.Args[0], steps)
	if err != nil {
		return 0, 0, err
	}
	key, err := it.evalInt(c.Args[1], steps)
	if err != nil {
		return 0, 0, err
	}
	return ns, key, nil
}

func (it *interp) eval(e Expr, steps *int) (Value, error) {
	*steps++
	if *steps > execLimit {
		return nil, fmt.Errorf("lang: execution step limit exceeded (infinite loop?)")
	}
	switch n := e.(type) {
	case *IntLit:
		return n.Value, nil
	case *NullLit:
		return nil, nil
	case *VarRef:
		if v, ok := it.local(n.slot); ok {
			return v, nil
		}
		switch n.field.kind {
		case refNone:
			return nil, fmt.Errorf("lang: unknown name %q", n.Name)
		case refMonitor:
			return Monitor(it.in.monitors[n.field.idx]), nil
		case refArray:
			return nil, fmt.Errorf("lang: monitor array %q used without index", n.Name)
		}
		it.in.mu.Lock()
		v := it.in.plain[n.field.idx]
		it.in.mu.Unlock()
		return v, nil
	case *Index:
		if n.array < 0 {
			return nil, fmt.Errorf("lang: %q is not a monitor array", n.Base)
		}
		idx, err := it.evalInt(n.Index, steps)
		if err != nil {
			return nil, err
		}
		size := it.in.Obj.Fields[n.array].Size
		if idx < 0 || idx >= int64(size) {
			return nil, fmt.Errorf("lang: index %d out of range for %s[%d]", idx, n.Base, size)
		}
		return Monitor(it.in.monitors[n.array] + ids.MutexID(idx)), nil
	case *Binary:
		return it.evalBinary(n, steps)
	case *CallExpr:
		return it.call(n, steps)
	default:
		return nil, fmt.Errorf("lang: unknown expression %T", e)
	}
}

func (it *interp) evalBinary(n *Binary, steps *int) (Value, error) {
	// Short-circuit logicals first.
	if n.Op == "&&" || n.Op == "||" {
		l, err := it.evalBool(n.L, steps)
		if err != nil {
			return nil, err
		}
		if n.Op == "&&" && !l {
			return false, nil
		}
		if n.Op == "||" && l {
			return true, nil
		}
		return it.evalBool(n.R, steps)
	}
	l, err := it.eval(n.L, steps)
	if err != nil {
		return nil, err
	}
	r, err := it.eval(n.R, steps)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case "==":
		return valueEqual(l, r), nil
	case "!=":
		return !valueEqual(l, r), nil
	}
	li, lok := l.(int64)
	ri, rok := r.(int64)
	if !lok || !rok {
		return nil, fmt.Errorf("lang: operator %q needs integers, got %T and %T", n.Op, l, r)
	}
	switch n.Op {
	case "+":
		return li + ri, nil
	case "-":
		return li - ri, nil
	case "*":
		return li * ri, nil
	case "/":
		if ri == 0 {
			return nil, fmt.Errorf("lang: division by zero")
		}
		return li / ri, nil
	case "%":
		if ri == 0 {
			return nil, fmt.Errorf("lang: modulo by zero")
		}
		return li % ri, nil
	case "<":
		return li < ri, nil
	case "<=":
		return li <= ri, nil
	case ">":
		return li > ri, nil
	case ">=":
		return li >= ri, nil
	default:
		return nil, fmt.Errorf("lang: unknown operator %q", n.Op)
	}
}

func valueEqual(l, r Value) bool {
	if l == nil || r == nil {
		return l == nil && r == nil
	}
	switch lv := l.(type) {
	case int64:
		rv, ok := r.(int64)
		return ok && lv == rv
	case Monitor:
		rv, ok := r.(Monitor)
		return ok && lv == rv
	case bool:
		rv, ok := r.(bool)
		return ok && lv == rv
	case ErrValue:
		rv, ok := r.(ErrValue)
		return ok && lv == rv
	default:
		return false
	}
}

func (it *interp) evalBool(e Expr, steps *int) (bool, error) {
	v, err := it.eval(e, steps)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("lang: condition is %T, want bool", v)
	}
	return b, nil
}

func (it *interp) evalInt(e Expr, steps *int) (int64, error) {
	v, err := it.eval(e, steps)
	if err != nil {
		return 0, err
	}
	i, ok := v.(int64)
	if !ok {
		return 0, fmt.Errorf("lang: expected integer, got %T", v)
	}
	return i, nil
}

func (it *interp) evalMonitor(e Expr, steps *int) (ids.MutexID, error) {
	v, err := it.eval(e, steps)
	if err != nil {
		return ids.NoMutex, err
	}
	m, ok := v.(Monitor)
	if !ok {
		return ids.NoMutex, fmt.Errorf("lang: sync parameter is %T, want monitor", v)
	}
	return ids.MutexID(m), nil
}
