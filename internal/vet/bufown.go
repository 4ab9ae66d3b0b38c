package vet

import (
	"go/ast"
	"go/types"
	"maps"
)

// BufferOwnership enforces the zero-copy contract in the packet-path
// packages (internal/usocket, internal/bulk, internal/transport). Two
// rules, both intra-procedural, the first path-sensitive:
//
//  1. use-after-send: once a byte slice has been passed to a zero-copy
//     Send/SendTo/SendIovec call, the caller no longer owns it — the
//     transport (or the receiver it delivered to synchronously) may
//     still be reading it. Writing into the slice, copy()ing over it,
//     or storing it into longer-lived state after the send is flagged.
//     Wholesale reassignment of the variable re-establishes ownership.
//  2. borrowed parameters: a []byte parameter in these packages is a
//     loan from the caller, valid for the duration of the call —
//     receive paths hand the same backing array to every handler.
//     Storing the parameter (or a subslice of it) into a field, map,
//     slice element, channel or composite literal retains it beyond
//     the callback and is flagged; retain a copy instead
//     (append([]byte(nil), p...) is fresh and never flagged).
//
// Where a parameter's ownership really is transferred by documented
// contract — the caller hands the buffer over and must not touch it
// until the API's own rules give it back (bulk.ExpectBulkInto's
// destination buffer is the canonical case) — annotate the function
// with `dodo:adopts(param)` in its doc comment; the named parameter is
// then exempt from the borrowed-parameter rule. The directive is
// deliberately narrow: it only silences retention of that one
// parameter, and a name that matches no []byte parameter is itself a
// finding so a typo cannot silently disable checking. For one-off
// transfers that are not part of a function's contract, mark the site
// with //vet:ignore buffer-ownership and say so.
var BufferOwnership = &Analyzer{
	Name:       "buffer-ownership",
	Doc:        "flag writes to or retention of byte slices after zero-copy sends, and retention of borrowed []byte parameters",
	RunProgram: runBufferOwnership,
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// bareVar resolves expr to the object it reads when expr is the bare
// variable or a subslice of it (p, p[i:j]); nil otherwise. Function
// call results — including copying appends — are fresh values.
func bareVar(info *types.Info, expr ast.Expr) *types.Var {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok {
			return v
		}
	case *ast.SliceExpr:
		return bareVar(info, e.X)
	}
	return nil
}

// storesVar reports whether expr, used as a stored value, retains v:
// the bare variable, a subslice, a composite literal carrying either,
// or an append whose appended elements carry it. append's spread form
// over the bare slice (append(dst, p...)) copies the bytes and is
// fresh; appending a struct that holds p copies only the slice header
// and retains the backing array.
func storesVar(info *types.Info, expr ast.Expr, v *types.Var) bool {
	if bareVar(info, expr) == v {
		return true
	}
	switch e := ast.Unparen(expr).(type) {
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			val := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				val = kv.Value
			}
			if storesVar(info, val, v) {
				return true
			}
		}
	case *ast.CallExpr:
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		if !ok || id.Name != "append" || len(e.Args) < 2 {
			return false
		}
		for i, arg := range e.Args[1:] {
			spread := e.Ellipsis.IsValid() && i == len(e.Args)-2
			if spread && bareVar(info, arg) == v {
				continue // append(dst, p...) copies the bytes
			}
			if storesVar(info, arg, v) {
				return true
			}
		}
	}
	return false
}

// isLongLivedTarget reports whether an assignment LHS outlives the
// enclosing call: a struct field, or an element of a map/slice reached
// through one.
func isLongLivedTarget(expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return isLongLivedTarget(e.X) || isIdent(e.X)
	case *ast.StarExpr:
		return true
	}
	return false
}

func isIdent(expr ast.Expr) bool {
	_, ok := ast.Unparen(expr).(*ast.Ident)
	return ok
}

func runBufferOwnership(prog *program) []Finding {
	var findings []Finding
	for _, u := range prog.unitsFor("buffer-ownership") {
		var doc *ast.CommentGroup
		if u.decl != nil {
			doc = u.decl.Doc
		}
		findings = append(findings, checkBufferOwnership(u.pass, prog.directives.of(doc), u.typ, u.body)...)
	}
	return findings
}

// checkBufferOwnership checks one function body, and each function
// literal inside it as a function of its own.
func checkBufferOwnership(pass *Pass, doc []*directive, ftype *ast.FuncType, body *ast.BlockStmt) []Finding {
	var findings []Finding
	report := func(n ast.Node, format string, args ...any) {
		findings = append(findings, findingAt(pass, "buffer-ownership", n, format, args...))
	}

	// Borrowed []byte parameters, minus those the function adopts by
	// documented contract.
	adopted := make(map[string]bool)
	for _, d := range doc {
		if d.verb != "dodo:adopts" {
			continue
		}
		if d.problem != "" {
			report(d.comment, "%s", d.problem)
		}
		for _, name := range d.args {
			adopted[name] = true
		}
	}
	borrowed := make(map[*types.Var]bool)
	if ftype.Params != nil {
		for _, field := range ftype.Params.List {
			for _, name := range field.Names {
				if v, ok := pass.Info.Defs[name].(*types.Var); ok && isByteSlice(v.Type()) {
					if adopted[v.Name()] {
						delete(adopted, v.Name())
						continue
					}
					borrowed[v] = true
				}
			}
		}
	}
	for name := range adopted {
		report(ftype, "dodo:adopts(%s) names no []byte parameter", name)
	}

	// The lent set is the state of a walk on the flow.go skeleton: a
	// buffer is lent once a zero-copy send took it on the path so far,
	// paths join by union (lent on any path reaching a statement is not
	// the caller's to touch there), and a wholesale reassignment returns
	// it on its own path only.
	var lent lentSet // the path's state at the node visited
	visit := func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			findings = append(findings, checkBufferOwnership(pass, nil, node.Type, node.Body)...)
			return false
		case *ast.AssignStmt:
			for i, lhs := range node.Lhs {
				// Wholesale reassignment returns ownership.
				if v := directIdentVar(pass.Info, lhs); v != nil && lent[v] {
					delete(lent, v)
					continue
				}
				// Writes into a lent buffer: buf[i] = x.
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if v := bareVar(pass.Info, idx.X); v != nil && lent[v] {
						report(lhs, "write into %s after it was passed to a zero-copy send; the transport may still be reading it", v.Name())
					}
				}
				// Retention of lent buffers or borrowed parameters into
				// long-lived state.
				if i < len(node.Rhs) && isLongLivedTarget(lhs) {
					rhs := node.Rhs[i]
					for v := range lent {
						if storesVar(pass.Info, rhs, v) {
							report(rhs, "%s stored after it was passed to a zero-copy send; copy before retaining", v.Name())
						}
					}
					for v := range borrowed {
						if storesVar(pass.Info, rhs, v) {
							report(rhs, "borrowed []byte parameter %s stored beyond the call; the caller reuses its backing array — retain a copy (append([]byte(nil), %s...))", v.Name(), v.Name())
						}
					}
				}
			}
			// Multi-value or mismatched assigns: scan rhs for sends below.
		case *ast.SendStmt:
			for v := range borrowed {
				if storesVar(pass.Info, node.Value, v) {
					report(node.Value, "borrowed []byte parameter %s sent on a channel; the receiver outlives the call — send a copy", v.Name())
				}
			}
			for v := range lent {
				if storesVar(pass.Info, node.Value, v) {
					report(node.Value, "%s sent on a channel after a zero-copy send; copy before sharing", v.Name())
				}
			}
		case *ast.CallExpr:
			fn := funcFor(pass.Info, node)
			// copy(dst, ...) over a lent buffer rewrites bytes in flight.
			if id, ok := ast.Unparen(node.Fun).(*ast.Ident); ok && id.Name == "copy" && len(node.Args) == 2 {
				if v := bareVar(pass.Info, node.Args[0]); v != nil && lent[v] {
					report(node.Args[0], "copy into %s after it was passed to a zero-copy send; the transport may still be reading it", v.Name())
				}
			}
			if _, lends := netCall(fn); lends {
				for _, arg := range node.Args {
					if v := bareVar(pass.Info, arg); v != nil && isByteSlice(v.Type()) {
						lent[v] = true
					}
				}
			}
		}
		return true
	}
	scan := func(root ast.Node, st lentSet) {
		lent = st
		ast.Inspect(root, visit)
	}
	w := walker[lentSet]{flow: flow[lentSet]{
		clone: maps.Clone[lentSet],
		join: func(sets []lentSet) lentSet {
			out := maps.Clone(sets[0])
			for _, s := range sets[1:] {
				maps.Copy(out, s)
			}
			return out
		},
		stmt: func(s ast.Stmt, st lentSet) lentSet { scan(s, st); return st },
		expr: func(e ast.Expr, st lentSet) lentSet { scan(e, st); return st },
		ret:  func(s *ast.ReturnStmt, st lentSet) { scan(s, st) },
	}}
	w.walk(body.List, lentSet{})
	return findings
}

// lentSet holds the buffers a path has lent to zero-copy sends.
type lentSet = map[*types.Var]bool

// directIdentVar returns the variable when expr is exactly a bare
// identifier.
func directIdentVar(info *types.Info, expr ast.Expr) *types.Var {
	if id, ok := ast.Unparen(expr).(*ast.Ident); ok {
		if v, ok := info.Uses[id].(*types.Var); ok {
			return v
		}
	}
	return nil
}
