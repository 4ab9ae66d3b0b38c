package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The lock model and the lock-flow walk (DESIGN.md §8.6): one walk of
// every function body tracks the set of held locks in statement order
// and records, with the held set at each, the acquisitions, releases,
// calls, field accesses and channel sends. guarded-by and mutex-hygiene
// only read those records.
//
// The walk is a static under-approximation: branches join by
// intersection (a lock is held after a branch only if every path that
// falls through holds it), a deferred unlock releases at return and so
// changes nothing, calls through interfaces and function values
// contribute no acquisitions, a function literal inherits the held set
// of its creation point and a `go` body starts with none. The
// `-tags lockcheck` runtime is the cross-check for what this cannot
// resolve, rank inversions included.

// isLockPkg reports whether path is a package whose Lock/Unlock methods
// manage a mutex: the stdlib sync package or Dodo's rank-ordered
// wrapper (internal/locks).
func isLockPkg(path string) bool {
	return path == "sync" || path == "dodo/internal/locks" || strings.HasSuffix(path, "/internal/locks")
}

// lockRef names the mutex of a Lock/Unlock call in the forms the passes
// read. key is its program-wide identity — "pkgpath.Type.field" by the
// struct that declares the field, "pkgpath.var" for a package-level
// mutex, "pkgpath.Type" for a local or parameter (so two functions
// locking the same struct's embedded mutex agree) — or "" when the
// expression cannot be named statically. path is the receiver as
// written ("c.mu"), which is what resource-lifecycle matches a release
// to its acquisition by: it tracks instances, not classes.
type lockRef struct{ key, path string }

// lockOp recognises a (R)Lock/(R)Unlock call on a sync or locks mutex.
func lockOp(pass *Pass, call *ast.CallExpr) (ref lockRef, acquire, exclusive, ok bool) {
	fn := funcFor(pass.Info, call)
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if fn == nil || !isSel || fn.Pkg() == nil || !isLockPkg(fn.Pkg().Path()) {
		return ref, false, false, false
	}
	switch fn.Name() {
	case "Lock":
		acquire, exclusive = true, true
	case "RLock":
		acquire = true
	case "Unlock":
		exclusive = true
	case "RUnlock":
	default:
		return ref, false, false, false
	}
	return lockRefOf(pass, sel.X), acquire, exclusive, true
}

func lockRefOf(pass *Pass, recv ast.Expr) lockRef {
	ref := lockRef{path: rlExprPath(recv)}
	name := func(pkg *types.Package, name string) {
		if pkg != nil {
			ref.key = pkg.Path() + "." + name
		}
	}
	pkgVar := func(id *ast.Ident) bool {
		v, ok := pass.Info.Uses[id].(*types.Var)
		if ok = ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope(); ok {
			name(v.Pkg(), v.Name())
		}
		return ok
	}
	switch e := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if owner := fieldOwner(sel); owner != nil {
				name(owner.Obj().Pkg(), owner.Obj().Name()+"."+sel.Obj().Name())
			}
		} else {
			pkgVar(e.Sel)
		}
	case *ast.Ident:
		if v, ok := pass.Info.Uses[e].(*types.Var); ok && !pkgVar(e) {
			if named := namedOf(v.Type()); named != nil {
				name(named.Obj().Pkg(), named.Obj().Name())
			}
		}
	}
	return ref
}

// namedOf unwraps pointers to the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// fieldOwner resolves a field selection to the named struct type that
// declares the field, walking the selection's index path through
// embedded structs; nil when the owner cannot be named (anonymous
// structs).
func fieldOwner(sel *types.Selection) *types.Named {
	t := sel.Recv()
	index := sel.Index()
	for i, idx := range index {
		named := namedOf(t)
		if named == nil || named.Obj().Pkg() == nil {
			return nil
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok || idx >= st.NumFields() {
			return nil
		}
		if i == len(index)-1 {
			return named
		}
		t = st.Field(idx).Type()
	}
	return nil
}

// fieldKey is the "pkgpath.Type.field" identity of a selected field, ""
// when its owner cannot be named.
func fieldKey(sel *types.Selection) string {
	owner := fieldOwner(sel)
	if owner == nil {
		return ""
	}
	return owner.Obj().Pkg().Path() + "." + owner.Obj().Name() + "." + sel.Obj().Name()
}

// heldLock is one lock of a held set. Held sets are immutable slices,
// in acquisition order.
type heldLock struct {
	key   string
	excl  bool // Lock rather than RLock
	outer bool // inherited by a function literal from its creation point
}

func heldAdd(held []heldLock, h heldLock) []heldLock {
	return append(held[:len(held):len(held)], h)
}

// heldRemove drops the most recent hold on h's lock in h's mode; after
// a mode-mismatched unlock, the most recent hold on it in any mode
// rather than tracking garbage.
func heldRemove(held []heldLock, h heldLock) []heldLock {
	at := -1
	for i, have := range held {
		if have.key == h.key && (have.excl == h.excl || at < 0 || held[at].excl != h.excl) {
			at = i
		}
	}
	if at < 0 {
		return held
	}
	return append(held[:at:at], held[at+1:]...)
}

// heldJoin is the join of the lock-flow walk: the locks of the first
// set that every other set holds too, in the same mode.
func heldJoin(sets [][]heldLock) []heldLock {
	out := sets[0][:0:0]
	for _, h := range sets[0] {
		everywhere := true
		for _, s := range sets[1:] {
			found := false
			for _, have := range s {
				found = found || have.key == h.key && have.excl == h.excl
			}
			everywhere = everywhere && found
		}
		if everywhere {
			out = append(out, h)
		}
	}
	return out
}

// heldSatisfies reports whether held covers an access to state guarded
// by key: any hold for a read, an exclusive one for a write.
func heldSatisfies(held []heldLock, key string, write bool) bool {
	for _, h := range held {
		if h.key == key && (h.excl || !write) {
			return true
		}
	}
	return false
}

// lockFlow is what one walk learned about one function body or literal.
type lockFlow struct {
	pass    *Pass
	fn      *types.Func     // nil for a literal
	root    *lockFlow       // the record of the enclosing unit; itself for a unit
	unlocks map[string]bool // keys released anywhere in the body
	calls   []callSite
	uses    []fieldUse
	sends   []sendSite
}

// callSite is one call to a resolved function other than a lock
// operation. A spawned site is the call of a go statement: the callee
// runs with no locks, on its own goroutine.
type callSite struct {
	fn      *types.Func
	held    []heldLock
	call    *ast.CallExpr
	spawned bool
}

type useKind int

const (
	useRead   useKind = iota
	useWrite          // assignment target, inc/dec, delete/copy destination
	useAddr           // &x.f outside a sync/atomic call
	useAtomic         // x.f.Add(1), atomic.AddInt64(&x.f, 1)
)

// fieldUse is one touch of a struct field. fresh marks an access
// through a local allocated in the same function (&T{...}, T{}, new(T)):
// a struct that has not escaped its constructor needs no lock.
type fieldUse struct {
	sel   *ast.SelectorExpr
	at    ast.Node // where a finding about it anchors
	kind  useKind
	via   string // the sync/atomic function, for useAtomic
	held  []heldLock
	fresh bool
}

type sendSite struct {
	stmt *ast.SendStmt
	held []heldLock
}

// lockFlows walks every unit of the program once.
func (prog *program) lockFlows() []*lockFlow {
	if prog.flows == nil {
		for _, u := range prog.units {
			w := &lockWalker{pass: u.pass, fresh: freshLocals(u.pass, u.body), sink: &prog.flows}
			w.run(u.obj, u.body, nil, nil)
		}
	}
	return prog.flows
}

// lockWalker is the lock-flow instance of the skeleton.
type lockWalker struct {
	walker[[]heldLock]
	pass  *Pass
	rec   *lockFlow
	fresh map[types.Object]bool
	sink  *[]*lockFlow
}

// run walks one body from the held set it starts with and files the
// record; literals inside file theirs after it, under the same root.
func (w *lockWalker) run(fn *types.Func, body *ast.BlockStmt, held []heldLock, root *lockFlow) {
	w.rec = &lockFlow{pass: w.pass, fn: fn, root: root, unlocks: make(map[string]bool)}
	if root == nil {
		w.rec.root = w.rec
	}
	*w.sink = append(*w.sink, w.rec)
	w.walker = walker[[]heldLock]{flow: flow[[]heldLock]{
		clone: func(h []heldLock) []heldLock { return h },
		join:  heldJoin,
		stmt:  w.stmt,
		expr:  func(e ast.Expr, held []heldLock) []heldLock { w.scan(e, false, held); return held },
		ret: func(s *ast.ReturnStmt, held []heldLock) {
			for _, r := range s.Results {
				w.scan(r, false, held)
			}
		},
	}}
	w.walk(body.List, held)
}

// lit walks a function literal as its own record, with the held set it
// inherits marked as the enclosing function's.
func (w *lockWalker) lit(lit *ast.FuncLit, held []heldLock) {
	outer := make([]heldLock, len(held))
	for i, h := range held {
		h.outer = true
		outer[i] = h
	}
	sub := &lockWalker{pass: w.pass, fresh: w.fresh, sink: w.sink}
	sub.run(nil, lit.Body, outer, w.rec.root)
}

func (w *lockWalker) stmt(s ast.Stmt, held []heldLock) []heldLock {
	switch s := s.(type) {
	case *ast.ExprStmt:
		// Lock operations count in statement position only.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if ref, acquire, excl, ok := lockOp(w.pass, call); ok {
				w.scan(call.Fun, false, held)
				h := heldLock{key: ref.key, excl: excl}
				if acquire {
					return heldAdd(held, h)
				}
				w.rec.unlocks[ref.key] = true
				return heldRemove(held, h)
			}
		}
		w.scan(s.X, false, held)
	case *ast.AssignStmt:
		for _, l := range s.Lhs {
			// A plain local assignment touches no field.
			if _, isIdent := ast.Unparen(l).(*ast.Ident); !isIdent {
				w.scan(l, true, held)
			}
		}
		for _, r := range s.Rhs {
			w.scan(r, false, held)
		}
	case *ast.IncDecStmt:
		w.scan(s.X, true, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scan(v, false, held)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.rec.sends = append(w.rec.sends, sendSite{s, held})
		w.scan(s.Chan, false, held)
		w.scan(s.Value, false, held)
	case *ast.DeferStmt:
		// A deferred unlock releases at return, so the held set is
		// unchanged for the rest of the body. Other deferred calls and
		// literals run with the locks held at return time, approximated
		// by the current set.
		if _, _, _, isLock := lockOp(w.pass, s.Call); !isLock {
			w.scan(s.Call, false, held)
		}
	case *ast.GoStmt:
		// The goroutine starts with no locks: the call site is recorded
		// with none and a literal body is walked from none, but the
		// receiver and arguments are evaluated here, by the spawner.
		if fn := funcFor(w.pass.Info, s.Call); fn != nil {
			w.rec.calls = append(w.rec.calls, callSite{fn, nil, s.Call, true})
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.lit(lit, nil)
		} else if sel, ok := ast.Unparen(s.Call.Fun).(*ast.SelectorExpr); ok {
			w.scan(sel.X, false, held)
		}
		for _, arg := range s.Call.Args {
			w.scan(arg, false, held)
		}
	}
	return held
}

// freshLocals pre-scans a body for local variables holding a freshly
// allocated value (&T{...}, T{}, new(T)).
func freshLocals(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	isAlloc := func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.CompositeLit:
			return true
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				_, ok := ast.Unparen(x.X).(*ast.CompositeLit)
				return ok
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				b, ok := pass.Info.Uses[id].(*types.Builtin)
				return ok && b.Name() == "new"
			}
		}
		return false
	}
	mark := func(lhs ast.Expr, rhs ast.Expr) {
		if id, ok := lhs.(*ast.Ident); ok && isAlloc(rhs) {
			if obj := pass.Info.ObjectOf(id); obj != nil {
				fresh[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i, r := range st.Rhs {
					mark(st.Lhs[i], r)
				}
			}
		case *ast.ValueSpec:
			if len(st.Names) == len(st.Values) {
				for i, r := range st.Values {
					mark(st.Names[i], r)
				}
			}
		}
		return true
	})
	return fresh
}

// rootIdent returns the identifier at the root of a selector/index
// path, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// use records a touch of sel if it selects a struct field.
func (w *lockWalker) use(sel *ast.SelectorExpr, at ast.Node, kind useKind, via string, held []heldLock) bool {
	if s, ok := w.pass.Info.Selections[sel]; !ok || s.Kind() != types.FieldVal {
		return false
	}
	id := rootIdent(sel)
	fresh := id != nil && w.fresh[w.pass.Info.Uses[id]]
	w.rec.uses = append(w.rec.uses, fieldUse{sel, at, kind, via, held, fresh})
	return true
}

// scan walks an expression under the given held set, recording field
// uses and call sites; write marks it as an assignment target. Function
// literals are walked as records of their own.
func (w *lockWalker) scan(e ast.Expr, write bool, held []heldLock) {
	if e == nil {
		return
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		kind := useRead
		if write {
			kind = useWrite
		}
		w.use(x, x, kind, "", held)
		w.scan(x.X, write, held)
	case *ast.IndexExpr:
		w.scan(x.X, write, held)
		w.scan(x.Index, false, held)
	case *ast.IndexListExpr:
		w.scan(x.X, write, held)
		for _, i := range x.Indices {
			w.scan(i, false, held)
		}
	case *ast.SliceExpr:
		w.scan(x.X, false, held)
		w.scan(x.Low, false, held)
		w.scan(x.High, false, held)
		w.scan(x.Max, false, held)
	case *ast.StarExpr:
		w.scan(x.X, false, held)
	case *ast.UnaryExpr:
		// Taking a field's address defeats the static proof; outside the
		// sync/atomic call forms (atomicCall) it is a use of its own kind.
		if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok && x.Op == token.AND && w.use(sel, x, useAddr, "", held) {
			w.scan(sel.X, false, held)
			return
		}
		w.scan(x.X, false, held)
	case *ast.BinaryExpr:
		w.scan(x.X, false, held)
		w.scan(x.Y, false, held)
	case *ast.CallExpr:
		w.call(x, held)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			w.scan(elt, false, held)
		}
	case *ast.TypeAssertExpr:
		w.scan(x.X, false, held)
	case *ast.KeyValueExpr:
		w.scan(x.Key, false, held)
		w.scan(x.Value, false, held)
	case *ast.FuncLit:
		w.lit(x, held)
	}
}

// call handles a call expression: sync/atomic forms are field uses of
// their own kind, delete and copy write their first operand, and every
// other resolved callee but a lock operation is a call site.
func (w *lockWalker) call(call *ast.CallExpr, held []heldLock) {
	fn := funcFor(w.pass.Info, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
		w.atomicCall(call, fn, held)
		return
	}
	writesFirst := false
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && fn == nil {
		if b, ok := w.pass.Info.Uses[id].(*types.Builtin); ok {
			writesFirst = b.Name() == "delete" || b.Name() == "copy"
		}
	}
	if _, _, _, isLock := lockOp(w.pass, call); fn != nil && !isLock {
		w.rec.calls = append(w.rec.calls, callSite{fn, held, call, false})
	}
	w.scan(call.Fun, false, held)
	for i, arg := range call.Args {
		w.scan(arg, writesFirst && i == 0, held)
	}
}

// atomicCall records the two sync/atomic access forms — a method call
// on an atomic.XXX field and a free function taking &field — as atomic
// uses of the field, and scans everything else as usual.
func (w *lockWalker) atomicCall(call *ast.CallExpr, fn *types.Func, held []heldLock) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok && w.use(field, call, useAtomic, fn.Name(), held) {
			w.scan(field.X, false, held)
		} else {
			w.scan(sel.X, false, held)
		}
	}
	for _, arg := range call.Args {
		if un, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && un.Op == token.AND {
			if field, ok := ast.Unparen(un.X).(*ast.SelectorExpr); ok && w.use(field, call, useAtomic, fn.Name(), held) {
				w.scan(field.X, false, held)
				continue
			}
		}
		w.scan(arg, false, held)
	}
}
