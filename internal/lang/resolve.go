package lang

// Name resolution. Every name a method uses is resolved once per object,
// when the first instance is made (after analysis has transformed the
// bodies), so the interpreter looks no name up by string while a request
// runs:
//
//   - each distinct parameter or local name of a method gets one slot of
//     the method's frame, which holds the name's value while it is bound
//     and the unbound marker otherwise. A parameter starts bound; a local
//     is bound when its var, repeat or nested binding runs. Parameter and
//     local of one name share the slot: a local shadows its parameter for
//     good once bound, except that repeat puts back what it shadowed.
//   - every other reading of a name resolves to the first field declared
//     with it, which is what the name means when no slot binds it;
//   - a call resolves to the method or builtin it names.
//
// A name that resolves to nothing fails only when it is evaluated, so an
// error on a branch that never runs stays silent.

// unbound marks a frame slot whose local has not been bound in this call
// (or that repeat has dropped again).
type unbound struct{}

// refKind is what a name means when no frame slot binds it.
type refKind uint8

const (
	refNone    refKind = iota // no field of that name: "unknown name"
	refPlain                  // a plain field: an instance value slot
	refMonitor                // a monitor field
	refArray                  // a monitor array, which needs an index
)

// fieldRef is a name resolved against the object's fields. idx is the
// plain-field slot for refPlain and the declaration index for refMonitor.
type fieldRef struct {
	kind refKind
	idx  int
}

// builtin identifies an interpreter-provided function.
type builtin uint8

const (
	notBuiltin builtin = iota
	builtinIsErr
	builtinMapGet
	builtinMapPut
	builtinMapDel
)

func builtinOf(name string) builtin {
	switch name {
	case "iserr":
		return builtinIsErr
	case "mapget":
		return builtinMapGet
	case "mapput":
		return builtinMapPut
	case "mapdel":
		return builtinMapDel
	}
	return notBuiltin
}

// resolve annotates every method of o; it runs once per object.
func (o *Object) resolve() {
	o.resolveOnce.Do(func() {
		for _, f := range o.Fields {
			if f.Kind == FieldPlain && o.plainSlot(f.Name) < 0 {
				o.plain = append(o.plain, f.Name)
			}
		}
		for _, m := range o.Methods {
			o.resolveMethod(m)
		}
	})
}

func (o *Object) resolveMethod(m *Method) {
	r := &resolver{obj: o, slots: map[string]int{}}
	m.paramSlots = make([]int, len(m.Params))
	for i, p := range m.Params {
		m.paramSlots[i] = r.slot(p)
	}
	r.block(m.Body)
	// Every binding has its slot now; a reference may precede the
	// binding it reads (in a later iteration of a loop), so references
	// are annotated last.
	for _, ref := range r.refs {
		ref.slot = -1
		if s, ok := r.slots[ref.Name]; ok {
			ref.slot = s
		}
		ref.field = o.fieldRef(ref.Name)
	}
	m.slots = len(r.slots)
}

// plainSlot returns the instance value slot of a plain field, or -1.
func (o *Object) plainSlot(name string) int {
	for i, n := range o.plain {
		if n == name {
			return i
		}
	}
	return -1
}

// fieldRef resolves a name that no frame slot binds. A name declared more
// than once means what its first declaration makes it; a monitor read
// then yields the last monitor declared with that name.
func (o *Object) fieldRef(name string) fieldRef {
	f := o.Field(name)
	switch {
	case f == nil:
		return fieldRef{kind: refNone}
	case f.Kind == FieldMonitor:
		return fieldRef{kind: refMonitor, idx: o.lastDecl(name, FieldMonitor)}
	case f.Kind == FieldMonitorArray:
		return fieldRef{kind: refArray}
	}
	return fieldRef{kind: refPlain, idx: o.plainSlot(name)}
}

// lastDecl returns the index of the last field declared with name and
// kind, or -1.
func (o *Object) lastDecl(name string, kind FieldKind) int {
	for i := len(o.Fields) - 1; i >= 0; i-- {
		if f := o.Fields[i]; f.Name == name && f.Kind == kind {
			return i
		}
	}
	return -1
}

// resolver walks one method body: bindings claim their slots as they are
// met, references are collected for annotation once all slots are known.
type resolver struct {
	obj   *Object
	slots map[string]int
	refs  []*VarRef
}

func (r *resolver) slot(name string) int {
	s, ok := r.slots[name]
	if !ok {
		s = len(r.slots)
		r.slots[name] = s
	}
	return s
}

func (r *resolver) block(b *Block) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		r.stmt(s)
	}
}

func (r *resolver) stmt(s Stmt) {
	switch n := s.(type) {
	case *Block:
		r.block(n)
	case *VarDecl:
		r.expr(n.Init)
		n.slot = r.slot(n.Name)
	case *Assign:
		r.expr(n.Target)
		r.expr(n.Value)
	case *If:
		r.expr(n.Cond)
		r.block(n.Then)
		r.block(n.Else)
	case *While:
		r.expr(n.Cond)
		r.block(n.Body)
	case *Repeat:
		r.expr(n.Count)
		n.slot = r.slot(n.Var)
		r.block(n.Body)
	case *Sync:
		r.expr(n.Param)
		r.block(n.Body)
	case *Wait:
		r.expr(n.Monitor)
	case *Notify:
		r.expr(n.Monitor)
	case *Compute:
		r.expr(n.Dur)
	case *NestedCall:
		r.expr(n.Arg)
		if n.Result != "" {
			n.slot = r.slot(n.Result)
		}
	case *CallStmt:
		r.expr(n.Call)
	case *Return:
		r.expr(n.Value)
	case *RawLock:
		r.expr(n.Param)
	case *RawUnlock:
		r.expr(n.Param)
	case *LockStmt:
		r.expr(n.Param)
	case *UnlockStmt:
		r.expr(n.Param)
	case *LockInfoStmt:
		r.expr(n.Param)
	}
}

func (r *resolver) expr(e Expr) {
	switch n := e.(type) {
	case *VarRef:
		r.refs = append(r.refs, n)
	case *Index:
		n.array = r.obj.lastDecl(n.Base, FieldMonitorArray)
		r.expr(n.Index)
	case *Binary:
		r.expr(n.L)
		r.expr(n.R)
	case *CallExpr:
		n.callee = r.obj.Lookup(n.Name)
		if n.callee == nil {
			n.builtin = builtinOf(n.Name)
		}
		for _, a := range n.Args {
			r.expr(a)
		}
	}
}
