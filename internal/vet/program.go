package vet

import (
	"go/ast"
	"go/types"
	"strings"
)

// program is the index the whole-program analyzers share (DESIGN.md
// §8.6): every non-test function once, the parsed directives, and the
// lock-flow records, built the first time a pass asks for them.
type program struct {
	passes     []*Pass
	units      []*funcUnit
	directives *directiveIndex
	flows      []*lockFlow // lockFlows() fills it
}

// funcUnit is one analyzable function: a declaration with a body, or a
// function literal outside any declaration (a package-level
// initializer). Literals inside a unit belong to that unit's walk.
type funcUnit struct {
	pass *Pass
	decl *ast.FuncDecl // nil for a package-level literal
	obj  *types.Func   // nil for a package-level literal
	typ  *ast.FuncType
	body *ast.BlockStmt
}

// name is the unit's types.Func.FullName — the key call sites resolve
// to across packages — or "" for a literal.
func (u *funcUnit) name() string {
	if u.obj == nil {
		return ""
	}
	return u.obj.FullName()
}

func newProgram(passes []*Pass) *program {
	prog := &program{passes: passes, directives: parseDirectives(passes)}
	for _, pass := range passes {
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch fn := n.(type) {
				case *ast.FuncDecl:
					if obj, ok := pass.Info.Defs[fn.Name].(*types.Func); ok && fn.Body != nil {
						prog.units = append(prog.units, &funcUnit{pass, fn, obj, fn.Type, fn.Body})
					}
					return false
				case *ast.FuncLit:
					prog.units = append(prog.units, &funcUnit{pass, nil, nil, fn.Type, fn.Body})
					return false
				}
				return true
			})
		}
	}
	return prog
}

// scopes is the one table of which packages each scoped pass analyzes:
// paths ending in one of only when that is set, otherwise every path
// (under internal/ when internal is set) not ending in one of except. A
// rule with no row analyzes every package. Analyzer.run hands a
// per-package pass only the packages in its scope (vet.go); a
// whole-program pass reads the table for the units it checks.
var scopes = map[string]struct {
	internal     bool
	only, except []string
}{
	// sim implements the Clock abstraction itself, and the transport and
	// usocket substrates sit below it (kernel socket deadlines and
	// condition-variable polling are inherently wall-clock).
	"clock-discipline": {except: []string{"/internal/sim", "/internal/transport", "/internal/usocket"}},
	// cmd and examples hold no annotated shared state by policy, and
	// internal/locks is the mechanism, not a class. internal/sim's
	// clock mutex is unranked, but its fields still deserve
	// classification.
	"guarded-by": {internal: true, except: []string{"/internal/locks"}},
	// The zero-copy packet path.
	"buffer-ownership": {only: []string{"/internal/usocket", "/internal/bulk", "/internal/transport"}},
}

// inScope reports whether the named pass analyzes the package at path.
func inScope(rule, path string) bool {
	sc := scopes[rule]
	hasSuffix := func(list []string) bool {
		for _, suf := range list {
			if strings.HasSuffix(path, suf) {
				return true
			}
		}
		return false
	}
	if sc.only != nil {
		return hasSuffix(sc.only)
	}
	return (!sc.internal || strings.Contains(path, "/internal/")) && !hasSuffix(sc.except)
}

// unitsFor returns the units of the packages the named pass analyzes.
func (prog *program) unitsFor(rule string) []*funcUnit {
	var out []*funcUnit
	for _, u := range prog.units {
		if inScope(rule, u.pass.Pkg.Path()) {
			out = append(out, u)
		}
	}
	return out
}

// untilStable is the summary fixpoint every inter-procedural pass runs:
// round folds callee summaries into callers (or callers' facts into
// callees) and reports whether anything changed; limit bounds the
// rounds, 0 meaning until none does.
func untilStable(limit int, round func() (changed bool)) {
	for i := 0; (limit == 0 || i < limit) && round(); i++ {
	}
}
