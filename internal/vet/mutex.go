package vet

import (
	"go/ast"
	"go/types"
)

// MutexHygiene enforces three rules about lock-bearing types:
//
//  1. methods on types containing a sync.Mutex/sync.RWMutex must use
//     pointer receivers (a value receiver locks a copy, guarding
//     nothing);
//  2. values of such types must not be copied — by assignment,
//     dereference, parameter passing or range — for the same reason;
//  3. no channel send may happen while a mutex is held: the receiver
//     may be arbitrarily slow (or itself blocked on the same lock),
//     turning a critical section into a deadlock.
//
// The send check reads the lock-flow records (lockflow.go): a send is
// flagged when the walk has the sending function itself holding any
// lock there, nameable or not. A function literal's sends answer for
// the locks the literal takes, not the ones around its creation point.
// It under-reports in convoluted flows but never needs annotations.
var MutexHygiene = &Analyzer{
	Name:       "mutex-hygiene",
	Doc:        "flag value receivers/copies of mutex-bearing types and channel sends under a held lock",
	RunProgram: runMutexHygiene,
}

// containsMutex reports whether a value of type t directly embeds a
// sync.Mutex or sync.RWMutex (possibly through nested structs and
// arrays). Pointers, slices, maps and interfaces stop the walk: copying
// a pointer to a lock is fine.
func containsMutex(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Named:
		if obj := u.Obj(); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
			(obj.Name() == "Mutex" || obj.Name() == "RWMutex") {
			return true
		}
		return containsMutex(u.Underlying(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsMutex(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsMutex(u.Elem(), seen)
	}
	return false
}

func hasMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	return containsMutex(t, make(map[types.Type]bool))
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func runMutexHygiene(prog *program) []Finding {
	var findings []Finding
	for _, pass := range prog.passes {
		findings = append(findings, checkMutexCopies(pass)...)
	}
	for _, flow := range prog.lockFlows() {
		for _, send := range flow.sends {
			for _, h := range send.held {
				if !h.outer {
					findings = append(findings, findingAt(flow.pass, "mutex-hygiene", send.stmt,
						"channel send while holding a mutex; the receiver can stall (or deadlock) the critical section — send after unlocking"))
					break
				}
			}
		}
	}
	return findings
}

// checkMutexCopies enforces the receiver and copy rules on one package.
func checkMutexCopies(pass *Pass) []Finding {
	var findings []Finding
	report := func(n ast.Node, format string, args ...any) {
		findings = append(findings, findingAt(pass, "mutex-hygiene", n, format, args...))
	}

	checkParams := func(ft *ast.FuncType) {
		if ft.Params == nil {
			return
		}
		for _, field := range ft.Params.List {
			tv, ok := pass.Info.Types[field.Type]
			if !ok {
				continue
			}
			if _, isPtr := tv.Type.(*types.Pointer); isPtr {
				continue
			}
			if hasMutex(tv.Type) {
				report(field.Type, "parameter of type %s passes a lock by value; use a pointer", tv.Type)
			}
		}
	}

	// copySource reports whether expr reads an existing value (so that
	// assigning it copies), as opposed to creating one (composite
	// literal, function call) — constructors legitimately return
	// zero-valued lock-bearing structs.
	copySource := func(expr ast.Expr) bool {
		switch ast.Unparen(expr).(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			return true
		}
		return false
	}
	checkCopy := func(rhs ast.Expr) {
		if !copySource(rhs) {
			return
		}
		tv, ok := pass.Info.Types[rhs]
		if !ok {
			return
		}
		if _, isPtr := tv.Type.(*types.Pointer); isPtr {
			return
		}
		if hasMutex(tv.Type) {
			report(rhs, "assignment copies a value of type %s, which contains a mutex; use a pointer", tv.Type)
		}
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.FuncDecl:
				if node.Recv != nil && len(node.Recv.List) == 1 {
					if fn, ok := pass.Info.Defs[node.Name].(*types.Func); ok {
						recv := fn.Type().(*types.Signature).Recv()
						if recv != nil {
							if _, isPtr := recv.Type().(*types.Pointer); !isPtr && hasMutex(recv.Type()) {
								report(node.Recv.List[0].Type,
									"method %s has a value receiver but %s contains a mutex; use a pointer receiver", node.Name.Name, recv.Type())
							}
						}
					}
				}
				checkParams(node.Type)
			case *ast.FuncLit:
				checkParams(node.Type)
			case *ast.AssignStmt:
				for i, rhs := range node.Rhs {
					// `_ = x` discards the value; no lock escapes.
					if len(node.Lhs) == len(node.Rhs) && isBlank(node.Lhs[i]) {
						continue
					}
					checkCopy(rhs)
				}
			case *ast.ValueSpec:
				for i, rhs := range node.Values {
					if len(node.Names) == len(node.Values) && node.Names[i].Name == "_" {
						continue
					}
					checkCopy(rhs)
				}
			case *ast.RangeStmt:
				if node.Value != nil && !isBlank(node.Value) {
					// In a `for _, v := range` the value ident is being
					// defined, so its type lives in Defs, not Types.
					var t types.Type
					if tv, ok := pass.Info.Types[node.Value]; ok {
						t = tv.Type
					} else if id, ok := node.Value.(*ast.Ident); ok {
						if obj := pass.Info.Defs[id]; obj != nil {
							t = obj.Type()
						}
					}
					if hasMutex(t) {
						report(node.Value, "range copies values of type %s, which contains a mutex; range over indices or pointers", t)
					}
				}
			}
			return true
		})
	}
	return findings
}
