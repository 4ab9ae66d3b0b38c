package vet

import (
	"go/ast"
	"go/token"
)

// The control-flow skeleton (DESIGN.md §8.4). A flow analysis here is a
// structured walk: statements in order, a copy of the state into every
// branch, a join where branches meet, and "this path ended" propagated
// upward so a branch that returns does not pollute the fall-through
// state. The skeleton owns that shape — sequence, if/else, for/range,
// switch/type-switch/select, labels, blocks, break/continue/goto — and
// visits every expression position a statement has; an analysis
// supplies the state type and the transfer hooks. It is instantiated
// twice: the lock-flow walk (lockflow.go, join = intersection) and
// resource-lifecycle (lifecycle.go, join = union).

// flow is what an analysis plugs into the skeleton.
type flow[S any] struct {
	// clone copies a state before paths diverge from it; join merges the
	// states (at least one) of the paths that meet again.
	clone func(S) S
	join  func([]S) S
	// stmt is the transfer function of a statement with no control flow
	// of its own: expression, assignment, declaration, inc/dec, send, go
	// and defer statements.
	stmt func(ast.Stmt, S) S
	// expr is the transfer function of an expression evaluated in a
	// control position: an if or for condition, a switch tag or case
	// value, a range operand.
	expr func(ast.Expr, S) S
	// ret sees every return statement with the state that reaches it.
	ret func(*ast.ReturnStmt, S)
	// split, when set, refines (in place) the states entering the two
	// arms of an if by what its condition proves on each.
	split func(cond ast.Expr, then, els S)
	// backEdge, when set, sees (and may prune in place) the state
	// heading back to the top of a loop, at a continue and at the end of
	// the body.
	backEdge func(loop *frame[S], st S, at ast.Node)
}

// frame is one enclosing statement a break can leave.
type frame[S any] struct {
	label  string
	body   *ast.BlockStmt // the loop body; nil for switch and select
	entry  S              // state on entering the loop
	breaks []S            // states at the breaks that target this frame
}

// arm is one step of the lexical path to the statement being walked:
// an arm of an if (neg marks the else), a loop body, or one clause of a
// switch or select.
type arm struct {
	stmt   ast.Stmt
	clause ast.Stmt // *ast.CaseClause or *ast.CommClause; nil for if and loops
	neg    bool
}

// walker runs one analysis over one function body.
type walker[S any] struct {
	flow[S]
	path    []arm
	frames  []*frame[S]
	labeled *ast.LabeledStmt // the last label seen, for the frame of the statement it names
}

// walk processes stmts in order from state st and returns the
// fall-through state plus whether every path ended (returned, broke out,
// jumped) before falling through.
func (w *walker[S]) walk(stmts []ast.Stmt, st S) (S, bool) {
	for _, s := range stmts {
		var ended bool
		if st, ended = w.walkStmt(s, st); ended {
			return st, true
		}
	}
	return st, false
}

// inArm walks stmts as the given arm of the lexical path.
func (w *walker[S]) inArm(a arm, stmts []ast.Stmt, st S) (S, bool) {
	w.path = append(w.path, a)
	defer func() { w.path = w.path[:len(w.path)-1] }()
	return w.walk(stmts, st)
}

func (w *walker[S]) push(s ast.Stmt, body *ast.BlockStmt, entry S) *frame[S] {
	fr := &frame[S]{body: body, entry: entry}
	if w.labeled != nil && w.labeled.Stmt == s {
		fr.label = w.labeled.Label.Name
	}
	w.frames = append(w.frames, fr)
	return fr
}

func (w *walker[S]) pop() { w.frames = w.frames[:len(w.frames)-1] }

// target resolves a break or continue to its frame: the innermost one
// carrying the label, or without a label the innermost (loop, for
// continue).
func (w *walker[S]) target(label *ast.Ident, loop bool) *frame[S] {
	for i := len(w.frames) - 1; i >= 0; i-- {
		fr := w.frames[i]
		if label != nil && fr.label != label.Name || loop && fr.body == nil {
			continue
		}
		return fr
	}
	return nil
}

func (w *walker[S]) walkStmt(s ast.Stmt, st S) (S, bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.walk(s.List, st)

	case *ast.LabeledStmt:
		w.labeled = s
		return w.walkStmt(s.Stmt, st)

	case *ast.ReturnStmt:
		w.ret(s, st)
		return st, true

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if fr := w.target(s.Label, false); fr != nil {
				fr.breaks = append(fr.breaks, w.clone(st))
			}
		case token.CONTINUE:
			if fr := w.target(s.Label, true); fr != nil && w.backEdge != nil {
				w.backEdge(fr, st, s)
			}
		case token.FALLTHROUGH:
			// Approximated as leaving the switch with this state.
			return st, false
		}
		return st, true

	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		st = w.expr(s.Cond, st)
		thenSt, elseSt := w.clone(st), w.clone(st)
		if w.split != nil {
			w.split(s.Cond, thenSt, elseSt)
		}
		thenSt, thenEnded := w.inArm(arm{stmt: s}, s.Body.List, thenSt)
		elseEnded := false
		if s.Else != nil {
			elseSt, elseEnded = w.inArm(arm{stmt: s, neg: true}, []ast.Stmt{s.Else}, elseSt)
		}
		switch {
		case thenEnded && elseEnded:
			return st, true
		case thenEnded:
			return elseSt, false
		case elseEnded:
			return thenSt, false
		}
		return w.join([]S{thenSt, elseSt}), false

	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			st = w.expr(s.Cond, st)
		}
		return w.loop(s, s.Body, s.Post, st, s.Cond != nil)

	case *ast.RangeStmt:
		return w.loop(s, s.Body, nil, w.expr(s.X, st), true)

	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			st = w.expr(s.Tag, st)
		}
		return w.clauses(s, s.Body, st)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		st, _ = w.walkStmt(s.Assign, st)
		return w.clauses(s, s.Body, st)

	case *ast.SelectStmt:
		return w.clauses(s, s.Body, st)

	case *ast.EmptyStmt:
		return st, false
	}
	return w.stmt(s, st), false
}

// loop walks a loop body. What follows the loop is reached by skipping
// the body (when the loop has a condition to fail), by a break, or by
// falling off the body's end; with none of those the loop never exits.
func (w *walker[S]) loop(s ast.Stmt, body *ast.BlockStmt, post ast.Stmt, st S, mayskip bool) (S, bool) {
	fr := w.push(s, body, w.clone(st))
	out, ended := w.inArm(arm{stmt: s}, body.List, w.clone(st))
	if !ended && post != nil {
		out, _ = w.walkStmt(post, out)
	}
	w.pop()
	var outs []S
	if mayskip {
		outs = append(outs, st)
	}
	outs = append(outs, fr.breaks...)
	if !ended {
		if w.backEdge != nil {
			w.backEdge(fr, out, body)
		}
		outs = append(outs, out)
	}
	if len(outs) == 0 {
		return st, true
	}
	return w.join(outs), false
}

// clauses walks the clauses of a switch, type switch or select, each
// from a copy of st. The statement is left by a clause falling off its
// end, by a break, or — a switch with no default — by matching nothing;
// a select always runs one of its clauses.
func (w *walker[S]) clauses(s ast.Stmt, body *ast.BlockStmt, st S) (S, bool) {
	fr := w.push(s, nil, st)
	_, isSwitch := s.(*ast.SwitchStmt)
	_, isSelect := s.(*ast.SelectStmt)
	mayskip := !isSelect
	var outs []S
	for _, c := range body.List {
		cs := w.clone(st)
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				mayskip = false
			}
			for _, e := range c.List {
				if isSwitch { // a type switch lists types, not values
					cs = w.expr(e, cs)
				}
			}
			list = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				cs, _ = w.walkStmt(c.Comm, cs)
			}
			list = c.Body
		}
		if out, ended := w.inArm(arm{stmt: s, clause: c}, list, cs); !ended {
			outs = append(outs, out)
		}
	}
	w.pop()
	outs = append(outs, fr.breaks...)
	if mayskip {
		outs = append(outs, st)
	}
	if len(outs) == 0 {
		return st, len(body.List) > 0
	}
	return w.join(outs), false
}
