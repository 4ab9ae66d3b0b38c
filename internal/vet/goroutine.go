package vet

import (
	"go/ast"
	"go/types"
)

// GoroutineLifecycle flags `go` statements in the daemon packages (see
// scopes, program.go) that are tied to no lifecycle mechanism. A launch
// passes when the goroutine body (for function literals) receives from
// a channel, selects, touches a sync.WaitGroup or uses a
// context.Context — or when a named callee is handed (or carries on
// its receiver) a channel, WaitGroup or context through which it can
// be stopped or awaited.
var GoroutineLifecycle = &Analyzer{
	Name: "goroutine-lifecycle",
	Doc:  "flag goroutines in daemon packages not tied to a done-channel, context or WaitGroup",
	Run:  runGoroutineLifecycle,
}

func runGoroutineLifecycle(pass *Pass) []Finding {
	var findings []Finding
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if goHasLifecycle(pass.Info, g) {
				return true
			}
			findings = append(findings, findingAt(pass, "goroutine-lifecycle", g,
				"goroutine in a daemon package captures no done-channel, context.Context or sync.WaitGroup; it cannot be stopped or awaited at shutdown"))
			return true
		})
	}
	return findings
}

func goHasLifecycle(info *types.Info, g *ast.GoStmt) bool {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return litHasLifecycle(info, lit)
	}
	// Named function or method: accept a lifecycle-typed argument...
	for _, arg := range g.Call.Args {
		if tv, ok := info.Types[arg]; ok && isLifecycleType(tv.Type) {
			return true
		}
	}
	// ...or a method receiver that carries one in its struct (the
	// `go ep.recvLoop()` pattern, where Endpoint holds stop+wg fields).
	if sel, ok := ast.Unparen(g.Call.Fun).(*ast.SelectorExpr); ok {
		if tv, ok := info.Types[sel.X]; ok && typeCarriesLifecycle(tv.Type) {
			return true
		}
	}
	return false
}

// litHasLifecycle reports whether the goroutine body contains any
// shutdown/await signal: a channel receive (includes select recv
// cases), a sync.WaitGroup method call, or any use of a
// context.Context value.
func litHasLifecycle(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch node := n.(type) {
		case *ast.UnaryExpr:
			if node.Op.String() == "<-" {
				found = true
				return false
			}
		case *ast.CallExpr:
			if fn := funcFor(info, node); fn != nil && fn.Pkg() != nil {
				if fn.Pkg().Path() == "sync" {
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && isWaitGroup(recv.Type()) {
						found = true
						return false
					}
				}
			}
		case *ast.Ident:
			if obj := info.Uses[node]; obj != nil && isContext(obj.Type()) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isContext(t types.Type) bool { return isNamed(t, "context", "Context") }

func isWaitGroup(t types.Type) bool { return isNamed(t, "sync", "WaitGroup") }

// isLifecycleType reports whether t can act as a shutdown/await handle
// when passed as an argument: any channel, a context.Context, or a
// (pointer to) sync.WaitGroup.
func isLifecycleType(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	return isContext(t) || isWaitGroup(t)
}

// typeCarriesLifecycle reports whether the (possibly pointer) struct
// type has any field of lifecycle type, searching one level of nesting.
func typeCarriesLifecycle(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isLifecycleType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}
