package vet

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// WireExhaustiveness keeps the wire protocol closed under extension:
// in the packages that dispatch on it (wire, bulk, imd, manager and
// core; see scopes, program.go), every type switch over
// wire.Message must list every registered message type. A default
// clause does not count as coverage — it is exactly how a newly added
// type gets silently dropped. Narrow correlation switches that
// intentionally match a message subset (a sender draining its own
// response channel) are marked //vet:ignore wire-exhaustiveness.
//
// That a wire.Type constant has a name, a constructor and a message is
// not checked here: internal/wire keeps all three in one table, and its
// TestTypeTable walks it. Together with FuzzWireRoundTrip this means a
// new wire.Type fails the wire tests until its row exists, and fails
// vet until every dispatcher has decided what to do with it.
var WireExhaustiveness = &Analyzer{
	Name: "wire-exhaustiveness",
	Doc:  "every wire.Message type switch handles or explicitly ignores every registered message type",
	Run:  runWireExhaustiveness,
}

func isWirePkg(path string) bool {
	return strings.HasSuffix(path, "/internal/wire")
}

// wireWorld locates the wire package visible from pass (the package
// itself, or one of its direct imports) and extracts the Message
// interface and the set of registered message types (named types whose
// pointer implements Message).
type wireWorld struct {
	pkg      *types.Package
	message  *types.Named
	iface    *types.Interface
	messages map[string]bool // type names, e.g. "AllocReq"
}

func findWireWorld(pass *Pass) *wireWorld {
	var wirePkg *types.Package
	if isWirePkg(pass.Pkg.Path()) {
		wirePkg = pass.Pkg
	} else {
		for _, imp := range pass.Pkg.Imports() {
			if isWirePkg(imp.Path()) {
				wirePkg = imp
				break
			}
		}
	}
	if wirePkg == nil {
		return nil
	}
	obj, ok := wirePkg.Scope().Lookup("Message").(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return nil
	}
	iface, ok := named.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	w := &wireWorld{pkg: wirePkg, message: named, iface: iface, messages: make(map[string]bool)}
	for _, name := range wirePkg.Scope().Names() {
		tn, ok := wirePkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		nt, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := nt.Underlying().(*types.Interface); isIface {
			continue
		}
		if types.Implements(types.NewPointer(nt), iface) {
			w.messages[name] = true
		}
	}
	if len(w.messages) == 0 {
		return nil
	}
	return w
}

func runWireExhaustiveness(pass *Pass) []Finding {
	w := findWireWorld(pass)
	if w == nil {
		return nil
	}
	return checkWireDispatch(pass, w)
}

// checkWireDispatch flags type switches over wire.Message that do not
// enumerate every registered message type.
func checkWireDispatch(pass *Pass, w *wireWorld) []Finding {
	var findings []Finding
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSwitchStmt)
			if !ok {
				return true
			}
			// The switched expression must have static type wire.Message.
			var subject ast.Expr
			switch a := ts.Assign.(type) {
			case *ast.ExprStmt:
				if ta, ok := a.X.(*ast.TypeAssertExpr); ok {
					subject = ta.X
				}
			case *ast.AssignStmt:
				if len(a.Rhs) == 1 {
					if ta, ok := a.Rhs[0].(*ast.TypeAssertExpr); ok {
						subject = ta.X
					}
				}
			}
			if subject == nil {
				return true
			}
			tv, ok := pass.Info.Types[subject]
			if !ok || !types.Identical(tv.Type, w.message) {
				return true
			}
			covered := make(map[string]bool)
			for _, clause := range ts.Body.List {
				cc, ok := clause.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, e := range cc.List {
					t, ok := pass.Info.Types[e]
					if !ok {
						continue
					}
					ptr, ok := t.Type.(*types.Pointer)
					if !ok {
						continue
					}
					if named, ok := ptr.Elem().(*types.Named); ok && named.Obj().Pkg() == w.pkg {
						covered[named.Obj().Name()] = true
					}
				}
			}
			var missing []string
			for name := range w.messages {
				if !covered[name] {
					missing = append(missing, name)
				}
			}
			if len(missing) == 0 {
				return true
			}
			sort.Strings(missing)
			shown := missing
			const maxShown = 4
			suffix := ""
			if len(shown) > maxShown {
				suffix = fmt.Sprintf(", … %d more", len(shown)-maxShown)
				shown = shown[:maxShown]
			}
			findings = append(findings, findingAt(pass, "wire-exhaustiveness", ts,
				"type switch over wire.Message misses %d of %d message types (%s%s); handle or explicitly ignore every type, or mark a narrow correlation switch with //vet:ignore wire-exhaustiveness",
				len(missing), len(w.messages), strings.Join(shown, ", "), suffix))
			return true
		})
	}
	return findings
}
