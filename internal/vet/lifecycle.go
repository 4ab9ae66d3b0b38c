package vet

// resource-lifecycle: whole-program, path-sensitive must-release
// analysis (DESIGN.md §12).
//
// Dodo's correctness rests on paired operations the compiler cannot
// see: every fd clone, manager grant, region pend marker, worker-pool
// slot and WaitGroup.Add must be matched on every path — including the
// error returns that reviews keep finding leaks on. This pass tracks
// acquired resources through each function body, merges branches with
// a union (a resource leaks if it is live on ANY path reaching a
// return), and reports every return a live resource can flow to,
// together with the acquisition site and the path condition.
//
// A small built-in registry seeds the tracking structurally:
//
//	os.Open/Create/OpenFile/CreateTemp  -> acquires kind "file"
//	(*os.File).Close                    -> releases "file"
//	(*sync.WaitGroup).Add / Done        -> acquires/releases "wg"
//	locks/sync (R)Lock / (R)Unlock      -> acquires/releases "lock"
//
// User code extends it with function annotations in doc comments:
//
//	// dodo:acquires(kind)   the caller receives ownership of one
//	//                       <kind> via the results (or, for expr-keyed
//	//                       kinds, the function intentionally leaves
//	//                       the counter elevated for its caller)
//	// dodo:releases(kind)   the function consumes a <kind> passed in
//	//                       via receiver or arguments
//	// dodo:transfers(kind)  ownership moves to a struct field, map,
//	//                       channel or collection inside this function
//	//                       (the region cache's r.pend markers and the
//	//                       manager's draining grants are the motivating
//	//                       cases)
//
// Per-function summaries (net resource delta per kind per return path,
// error vs nil-error returns distinguished) are inferred bottom-up and
// iterated to a fixpoint, so a helper that returns an os.File it opened
// is understood as an acquirer without any annotation.
//
// Deliberate approximations (documented in DESIGN.md §12):
//   - branch joins are unions, so correlated conditionals
//     ("if ok { acquire } ... if ok { release }") can report a false
//     leak; restructure or annotate — never //vet:ignore this pass.
//   - expr-keyed kinds (wg, lock) match across calls by the textual
//     receiver path ("c.prefetchWG"), so a release only discharges a
//     go-launched obligation when the receiver names line up.
//   - resources stored into collections are tracked as one obligation
//     on the collection variable, not per element.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

var ResourceLifecycle = &Analyzer{
	Name:       "resource-lifecycle",
	Doc:        "acquired resources (fds, grants, WaitGroup counts, locks) must be released or transferred on every path, including error returns",
	RunProgram: runResourceLifecycle,
}

// ---------------------------------------------------------------------
// Annotations.

type rlAnnotation struct {
	acquires  map[string]bool
	releases  map[string]bool
	transfers map[string]bool
}

// rlCollectAnnotations gathers the dodo:acquires/releases/transfers
// directives of every function declaration and interface method in the
// program, keyed by the function object's full name (so a call through
// region.Dodo picks up the interface method's annotation). Malformed
// kind lists are reported so a typo cannot silently disable checking.
func rlCollectAnnotations(prog *program) (map[string]rlAnnotation, []Finding) {
	anns := make(map[string]rlAnnotation)
	var findings []Finding
	record := func(pass *Pass, obj types.Object, groups ...*ast.CommentGroup) {
		ann := rlAnnotation{map[string]bool{}, map[string]bool{}, map[string]bool{}}
		sets := map[string]map[string]bool{"dodo:acquires": ann.acquires, "dodo:releases": ann.releases, "dodo:transfers": ann.transfers}
		for _, d := range prog.directives.of(groups...) {
			set := sets[d.verb]
			if set == nil {
				continue // adopts is buffer-ownership's verb
			}
			if d.problem != "" {
				findings = append(findings, findingAt(pass, "resource-lifecycle", d.comment, "%s", d.problem))
			}
			for _, kind := range d.args {
				set[kind] = true
			}
		}
		if fn, ok := obj.(*types.Func); ok && len(ann.acquires)+len(ann.releases)+len(ann.transfers) > 0 {
			anns[fn.FullName()] = ann
		}
	}
	for _, pass := range prog.passes {
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					record(pass, pass.Info.Defs[n.Name], n.Doc)
				case *ast.InterfaceType:
					for _, f := range n.Methods.List {
						if len(f.Names) == 1 {
							record(pass, pass.Info.Defs[f.Names[0]], f.Doc, f.Comment)
						}
					}
				}
				return true
			})
		}
	}
	return anns, findings
}

// ---------------------------------------------------------------------
// Summaries.

// rlSummary is a function's externally visible lifecycle behaviour:
// the union of its annotation and what the walker inferred from its
// body.
type rlSummary struct {
	acquires  map[string]bool // kinds the caller receives via the results
	releases  map[string]bool // kinds consumed via receiver/arguments
	transfers map[string]bool // kinds whose stores are sanctioned

	// releasesExprs holds textual receiver paths of expr-keyed releases
	// in the body ("c.prefetchWG"): a go statement launching this
	// function discharges a matching live obligation.
	releasesExprs map[string]bool

	// paramReleases maps parameter index -> kind for parameters the
	// body provably releases (an *os.File parameter that is Closed).
	paramReleases map[int]string
}

func newRLSummary() *rlSummary {
	return &rlSummary{
		acquires:      map[string]bool{},
		releases:      map[string]bool{},
		transfers:     map[string]bool{},
		releasesExprs: map[string]bool{},
		paramReleases: map[int]string{},
	}
}

// merge folds src into s and reports whether s changed.
func (s *rlSummary) merge(src *rlSummary) bool {
	changed := false
	for _, pair := range []struct{ dst, src map[string]bool }{
		{s.acquires, src.acquires},
		{s.releases, src.releases},
		{s.transfers, src.transfers},
		{s.releasesExprs, src.releasesExprs},
	} {
		for k := range pair.src {
			if !pair.dst[k] {
				pair.dst[k] = true
				changed = true
			}
		}
	}
	for i, k := range src.paramReleases {
		if s.paramReleases[i] != k {
			s.paramReleases[i] = k
			changed = true
		}
	}
	return changed
}

// ---------------------------------------------------------------------
// Built-in registry.

// rlFileAcquirers are stdlib functions whose (non-error) result is an
// open *os.File the caller owns.
var rlFileAcquirers = map[string]bool{
	"os.Open":       true,
	"os.Create":     true,
	"os.OpenFile":   true,
	"os.CreateTemp": true,
}

// rlMethodOn reports whether fn is the named method of pkg.typ (or of
// a pointer to it); atomic counters named Add resolve to other
// receivers.
func rlMethodOn(fn *types.Func, pkg, typ, method string) bool {
	sig, _ := fn.Type().(*types.Signature)
	return fn.Name() == method && sig != nil && sig.Recv() != nil && isNamed(sig.Recv().Type(), pkg, typ)
}

// rlExprPath renders the textual receiver path of an expression
// ("c.prefetchWG", "wg"); "" when it has no stable ident root.
func rlExprPath(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := rlExprPath(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.StarExpr:
		return rlExprPath(x.X)
	}
	return ""
}

// ---------------------------------------------------------------------
// Per-path state.

// rlRes is one live obligation.
type rlRes struct {
	kind   string
	obj    types.Object // binding variable; nil for expr-keyed kinds
	expr   string       // textual path for expr-keyed kinds ("c.mu")
	mode   string       // lock mode "r"/"w"
	pos    token.Pos    // acquisition site
	errObj types.Object // paired error result: non-nil error means not acquired
	okObj  types.Object // paired bool result: false means not acquired
	cond   string       // innermost if-guard at acquisition ("d != nil"):
	//                     a later branch on the same text prunes the
	//                     opposite arm (correlated-conditional pattern)
}

func (r rlRes) key() string {
	if r.obj != nil {
		return fmt.Sprintf("v:%p", r.obj)
	}
	return "e:" + r.kind + ":" + r.mode + ":" + r.expr
}

func (r rlRes) what() string {
	if r.expr != "" {
		return r.kind + " " + r.expr
	}
	if r.obj != nil {
		return r.kind + " " + r.obj.Name()
	}
	return r.kind
}

const (
	rlErrNonNil = iota + 1
	rlErrNil
)

// rlState is the per-path analysis state: live obligations plus what is
// known about error variables on this path.
type rlState struct {
	live map[string]rlRes
	err  map[types.Object]int // error idents: rlErrNonNil / rlErrNil

	// debt records expr-keyed resources released below the baseline the
	// function was entered with (CondWaitTimeout's cond.L.Unlock): the
	// matching re-acquire repays the debt instead of creating a new
	// obligation, so the lock-juggling idiom nets to zero.
	debt map[string]bool
}

func newRLState() rlState {
	return rlState{live: map[string]rlRes{}, err: map[types.Object]int{}, debt: map[string]bool{}}
}

func (s rlState) clone() rlState {
	return rlState{maps.Clone(s.live), maps.Clone(s.err), maps.Clone(s.debt)}
}

// rlUnion merges path states: obligations union (leak if live on any
// path), fact maps intersect (kept only where paths agree).
func rlUnion(states []rlState) rlState {
	out := states[0].clone()
	for _, s := range states[1:] {
		for k, v := range s.live {
			if _, dup := out.live[k]; !dup {
				out.live[k] = v
			}
		}
		maps.DeleteFunc(out.err, func(obj types.Object, v int) bool { return s.err[obj] != v })
		maps.DeleteFunc(out.debt, func(k string, _ bool) bool { return !s.debt[k] })
	}
	return out
}

// dropPaired removes obligations whose paired error/ok variable proves
// the acquisition did not happen on this path.
func (s rlState) dropPaired(errObj types.Object) {
	for k, r := range s.live {
		if (r.errObj != nil && r.errObj == errObj) || (r.okObj != nil && r.okObj == errObj) {
			delete(s.live, k)
		}
	}
}

// ---------------------------------------------------------------------
// Walker.

// rlWalker is the resource-lifecycle instance of the skeleton: the
// state is the per-path obligation set, joined by union.
type rlWalker struct {
	walker[rlState]
	pass      *Pass
	summaries map[string]*rlSummary
	anns      map[string]rlAnnotation
	findings  *[]Finding
	report    bool

	ann     rlAnnotation     // the function's own annotation
	sig     *types.Signature // for return classification
	results []*ast.Ident     // named results, for bare returns
	// entryPoint marks main.main: returning from it exits the process,
	// which releases every OS-backed resource, so end-of-path leak
	// reports are suppressed there (loop back-edge leaks still fire —
	// those accumulate while the process runs).
	entryPoint bool

	inferred *rlSummary // built during the walk
	params   []types.Object

	backReported map[rlBackEdge]bool // back-edge leaks already reported
	inlineRet    []*[]rlState        // collectors for inline-invoked literals
}

// rlBackEdge is one obligation lost on one loop's back-edge.
type rlBackEdge struct {
	body *ast.BlockStmt
	key  string
}

// newRLWalker plugs the pass's hooks into a skeleton.
func newRLWalker(w *rlWalker) *rlWalker {
	w.inferred = newRLSummary()
	w.backReported = make(map[rlBackEdge]bool)
	w.walker = walker[rlState]{flow: flow[rlState]{
		clone:    rlState.clone,
		join:     rlUnion,
		stmt:     w.stmt,
		expr:     func(e ast.Expr, st rlState) rlState { w.scanExprCalls(e, st); return st },
		ret:      w.ret,
		split:    w.split,
		backEdge: w.backEdge,
	}}
	return w
}

// armText renders one step of the lexical path, for diagnostics and for
// correlating guards.
func (w *rlWalker) armText(a arm) string {
	switch s := a.stmt.(type) {
	case *ast.ForStmt:
		return rlCondText(w.pass, s.Cond)
	case *ast.RangeStmt:
		return "range " + rlCondText(w.pass, s.X)
	case *ast.SwitchStmt:
		return rlCaseText(s.Tag, a.clause.(*ast.CaseClause))
	case *ast.TypeSwitchStmt:
		return "case …"
	case *ast.SelectStmt:
		return "select-case"
	}
	cond := rlCondText(w.pass, a.stmt.(*ast.IfStmt).Cond)
	if a.neg {
		return "!(" + cond + ")"
	}
	return cond
}

// guard returns the innermost enclosing if-branch condition, used to
// correlate "if d != nil { acquire }" with a later "if d != nil {
// release }" over the same untouched condition.
func (w *rlWalker) guard() string {
	for i := len(w.path) - 1; i >= 0; i-- {
		if _, isIf := w.path[i].stmt.(*ast.IfStmt); isIf {
			return w.armText(w.path[i])
		}
	}
	return ""
}

func (w *rlWalker) condString() string {
	if len(w.path) == 0 {
		return ""
	}
	conds := make([]string, len(w.path))
	for i, a := range w.path {
		conds[i] = w.armText(a)
	}
	return " [path: " + strings.Join(conds, " && ") + "]"
}

func (w *rlWalker) leak(retPos ast.Node, r rlRes, class string) {
	if !w.report || w.entryPoint {
		return
	}
	at := w.pass.Fset.Position(r.pos)
	*w.findings = append(*w.findings, findingAt(w.pass, "resource-lifecycle", retPos,
		"%s acquired at %s:%d is neither released nor transferred on this %s%s",
		r.what(), at.Filename, at.Line, class, w.condString()))
}

func (w *rlWalker) reportf(n ast.Node, format string, args ...any) {
	if !w.report {
		return
	}
	*w.findings = append(*w.findings, findingAt(w.pass, "resource-lifecycle", n, format, args...))
}

func (w *rlWalker) objOf(id *ast.Ident) types.Object { return w.pass.Info.ObjectOf(id) }

// summaryFor resolves the effective summary of a called function:
// annotation first, then whatever the inference rounds produced.
func (w *rlWalker) summaryFor(fn *types.Func) (rlAnnotation, *rlSummary) {
	if fn == nil {
		return rlAnnotation{}, nil
	}
	name := fn.FullName()
	return w.anns[name], w.summaries[name]
}

// callEffects describes what one call does in lifecycle terms.
type rlCallEffect struct {
	acquires []string // var-kinds to bind to the result
	exprAcq  *rlRes   // expr-keyed acquisition (wg/lock), nil if none
	exprRel  string   // key of expr-keyed release, "" if none
	relKinds []string // kinds released via args/receiver
	trnKinds []string // kinds consumed (transferred into) via args
	parRel   map[int]string
}

func (w *rlWalker) effectOf(call *ast.CallExpr) rlCallEffect {
	var eff rlCallEffect
	fn := funcFor(w.pass.Info, call)
	if fn == nil {
		return eff
	}
	// Structural built-ins.
	if rlFileAcquirers[fn.FullName()] {
		eff.acquires = append(eff.acquires, "file")
		return eff
	}
	if rlMethodOn(fn, "os", "File", "Close") {
		eff.relKinds = append(eff.relKinds, "file")
		return eff
	}
	// Expr-keyed kinds: a WaitGroup count, a lock.
	r, acquire := rlRes{pos: call.Pos()}, false
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && (rlMethodOn(fn, "sync", "WaitGroup", "Add") || rlMethodOn(fn, "sync", "WaitGroup", "Done")) {
		r.kind, r.expr, acquire = "wg", rlExprPath(sel.X), fn.Name() == "Add"
	} else if ref, acq, exclusive, ok := lockOp(w.pass, call); ok {
		r.kind, r.expr, r.mode, acquire = "lock", ref.path, "r", acq
		if exclusive {
			r.mode = "w"
		}
	}
	if r.kind != "" {
		if r.expr != "" && acquire {
			eff.exprAcq = &r
		} else if r.expr != "" {
			eff.exprRel = r.key()
		}
		return eff
	}
	// Annotations and inferred summaries.
	ann, sum := w.summaryFor(fn)
	for k := range ann.acquires {
		eff.acquires = append(eff.acquires, k)
	}
	for k := range ann.releases {
		eff.relKinds = append(eff.relKinds, k)
	}
	for k := range ann.transfers {
		eff.trnKinds = append(eff.trnKinds, k)
	}
	if sum != nil {
		for k := range sum.acquires {
			if !ann.acquires[k] {
				eff.acquires = append(eff.acquires, k)
			}
		}
		for k := range sum.releases {
			if !ann.releases[k] {
				eff.relKinds = append(eff.relKinds, k)
			}
		}
		eff.parRel = sum.paramReleases
	}
	sort.Strings(eff.acquires)
	return eff
}

// argExprs returns the receiver (if a method call) followed by the
// arguments: the expressions through which obligations can be handed to
// a callee.
func rlArgExprs(call *ast.CallExpr) []ast.Expr {
	var out []ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		out = append(out, sel.X)
	}
	out = append(out, call.Args...)
	return out
}

// rlRootIdent is rootIdent plus &-unwrapping: settle(&victims[i])
// hands the obligation riding victims to the callee.
func rlRootIdent(e ast.Expr) *ast.Ident {
	if ue, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && ue.Op == token.AND {
		e = ue.X
	}
	return rootIdent(e)
}

// discharge removes every live obligation of kind k whose binding
// object is referenced by one of the exprs. Returns true if anything
// was discharged.
func (w *rlWalker) discharge(st rlState, kind string, exprs []ast.Expr) bool {
	any := false
	for _, obj := range w.rootObjs(exprs) {
		for k, r := range st.live {
			if r.kind == kind && r.obj == obj {
				delete(st.live, k)
				any = true
			}
		}
	}
	return any
}

// rootObjs resolves each expression's root identifier to its object.
func (w *rlWalker) rootObjs(exprs []ast.Expr) []types.Object {
	var objs []types.Object
	for _, e := range exprs {
		if id := rlRootIdent(e); id != nil && w.objOf(id) != nil {
			objs = append(objs, w.objOf(id))
		}
	}
	return objs
}

// release applies what a call releases or takes over to st, without
// inferring anything from it: the form shared by returns and by the
// bodies of deferred and go-launched literals.
func (w *rlWalker) release(eff rlCallEffect, call *ast.CallExpr, st rlState) {
	if eff.exprRel != "" {
		delete(st.live, eff.exprRel)
	}
	args := rlArgExprs(call)
	for _, k := range append(eff.relKinds, eff.trnKinds...) {
		w.discharge(st, k, args)
	}
}

// call processes one call expression's lifecycle effects against st,
// binding acquisitions to binds (parallel to the call's results; nil
// entries or a nil slice discard). Statement position stmt anchors
// discarded-result findings.
func (w *rlWalker) call(call *ast.CallExpr, st rlState, binds []types.Object, stmt ast.Node) {
	// Inline-invoked literal: walk the body sharing this path's state.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		out := w.walkInlineLit(lit, st)
		// walkInlineLit mutated a clone; fold its result back in place.
		for k := range st.live {
			if _, keep := out.live[k]; !keep {
				delete(st.live, k)
			}
		}
		for k, v := range out.live {
			st.live[k] = v
		}
		return
	}
	eff := w.effectOf(call)
	if eff.exprAcq != nil {
		r := *eff.exprAcq
		if st.debt[r.key()] {
			// Re-acquiring what this function released below baseline
			// (lock juggling): the pair nets to zero.
			delete(st.debt, r.key())
			return
		}
		r.cond = w.guard()
		st.live[r.key()] = r
		return
	}
	if eff.exprRel != "" {
		if _, ok := st.live[eff.exprRel]; ok {
			delete(st.live, eff.exprRel)
		} else {
			// Releasing a counter this function never raised: the
			// baseline came from the caller. Record it in the summary so
			// go-launch sites can match it up, and as a debt so a
			// matching re-acquire nets out.
			w.inferred.releasesExprs[eff.exprRel] = true
			st.debt[eff.exprRel] = true
		}
		return
	}
	args := rlArgExprs(call)
	for _, k := range eff.relKinds {
		if w.discharge(st, k, args) {
			continue
		}
		// A release whose resource came in via one of our own
		// parameters: infer a param-release summary.
		w.noteParamRelease(k, args)
	}
	for _, k := range eff.trnKinds {
		w.discharge(st, k, args)
	}
	for i, k := range eff.parRel {
		if i < len(call.Args) {
			w.discharge(st, k, []ast.Expr{call.Args[i]})
		}
	}
	if len(eff.acquires) == 0 {
		return
	}
	// An acquirer whose results are all bool/error (tryHedgeLeg) raises
	// an expr-keyed counter for its caller; there is nothing caller-side
	// to bind, so nothing to demand.
	if sig, ok := funcFor(w.pass.Info, call).Type().(*types.Signature); ok {
		trackable := false
		for i := 0; i < sig.Results().Len(); i++ {
			trackable = trackable || rlCarries(sig.Results().At(i).Type())
		}
		if !trackable {
			return
		}
	}
	// Bind every acquired kind to the first usable (non-error, non-bool)
	// result object; record err/ok pairings.
	var target, errObj, okObj types.Object
	bound := false
	for _, obj := range binds {
		switch {
		case obj == nil || obj.Name() == "_":
			continue
		case isErrorType(obj.Type()):
			errObj = obj
		case !rlCarries(obj.Type()):
			okObj = obj
		case target == nil:
			target = obj
		}
		bound = true
	}
	if !bound {
		w.reportf(stmt, "result of %s carries %s but is discarded; bind it or release it",
			callName(call), strings.Join(eff.acquires, ", "))
	}
	// With only error/bool results bound (an annotated tryHedgeLeg) there
	// is nothing trackable caller-side.
	for _, kind := range eff.acquires {
		if target != nil {
			r := rlRes{kind: kind, obj: target, pos: call.Pos(), errObj: errObj, okObj: okObj, cond: w.guard()}
			st.live[r.key()] = r
		}
	}
}

// rlCarries reports whether a result of type t can carry a resource:
// anything but the error and bool that report on the acquisition.
func rlCarries(t types.Type) bool {
	basic, ok := t.(*types.Basic)
	return !isErrorType(t) && !(ok && basic.Kind() == types.Bool)
}

func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return rlExprPath(fun.X) + "." + fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return "call"
}

// noteParamRelease records that kind k was released through one of this
// function's own parameters.
func (w *rlWalker) noteParamRelease(k string, exprs []ast.Expr) {
	for _, obj := range w.rootObjs(exprs) {
		for i, p := range w.params {
			if p == obj {
				w.inferred.paramReleases[i] = k
				if i == 0 && w.sig != nil && w.sig.Recv() != nil {
					// receiver-released kinds surface as plain releases
					w.inferred.releases[k] = true
				}
			}
		}
	}
}

// scanRelease looks through an arbitrary statement tree (a deferred or
// go-launched function literal body) for releases matching live
// obligations: expr-keyed Done/Unlock with the same textual path,
// Close-style releases of captured variables, and calls to functions
// whose summary releases a kind through an argument.
func (w *rlWalker) scanRelease(root ast.Node, st rlState) {
	ast.Inspect(root, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			w.release(w.effectOf(call), call, st)
		}
		return true
	})
}

// walkLitFresh analyzes a function literal as its own anonymous
// function (goroutine bodies, closures bound to variables): fresh
// state, same summaries, leaks inside it reported in place.
func (w *rlWalker) walkLitFresh(lit *ast.FuncLit) {
	sig, _ := w.pass.Info.Types[lit].Type.(*types.Signature)
	sub := newRLWalker(&rlWalker{
		pass:      w.pass,
		summaries: w.summaries,
		anns:      w.anns,
		findings:  w.findings,
		report:    w.report,
		sig:       sig,
	})
	out, terminated := sub.walk(lit.Body.List, newRLState())
	if !terminated {
		sub.endOfBody(lit, out)
	}
	// Expr-keyed releases inside the literal count toward the enclosing
	// function's summary: "go c.run()" where run's body defers
	// c.wg.Done() must discharge the caller's obligation whether run is
	// a method or a literal wrapped by one.
	for k := range sub.inferred.releasesExprs {
		w.inferred.releasesExprs[k] = true
	}
}

// walkInlineLit walks an immediately-invoked literal sharing the
// caller's path state; returns the union of the states at its returns
// and fallthrough.
func (w *rlWalker) walkInlineLit(lit *ast.FuncLit, st rlState) rlState {
	collector := &[]rlState{}
	w.inlineRet = append(w.inlineRet, collector)
	out, terminated := w.walk(lit.Body.List, st.clone())
	w.inlineRet = w.inlineRet[:len(w.inlineRet)-1]
	states := *collector
	if !terminated {
		states = append(states, out)
	}
	if len(states) == 0 {
		return st
	}
	return rlUnion(states)
}

// split is the skeleton's if hook: what the condition proves on each
// arm, plus correlated conditionals — a resource acquired under this
// same guard text earlier cannot be live on the opposite arm.
func (w *rlWalker) split(cond ast.Expr, thenSt, elseSt rlState) {
	w.splitCond(cond, thenSt, elseSt)
	text := rlCondText(w.pass, cond)
	rlDropGuard(thenSt, "!("+text+")")
	rlDropGuard(elseSt, text)
}

// splitCond prunes obligations and records error facts for the two
// arms of a condition.
func (w *rlWalker) splitCond(cond ast.Expr, thenSt, elseSt rlState) {
	switch e := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			w.splitCond(e.X, elseSt, thenSt)
		}
	case *ast.Ident:
		// if ok { ... }: the else path never acquired.
		if obj := w.objOf(e); obj != nil {
			elseSt.dropPaired(obj)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			w.splitCond(e.X, thenSt, newRLState())
			w.splitCond(e.Y, thenSt, newRLState())
		case token.LOR:
			w.splitCond(e.X, newRLState(), elseSt)
			w.splitCond(e.Y, newRLState(), elseSt)
		case token.NEQ, token.EQL:
			id := rlIdentVsNil(w.pass, e)
			if id == nil || w.objOf(id) == nil {
				return
			}
			obj, nonNil, isNil := w.objOf(id), thenSt, elseSt
			if e.Op == token.EQL {
				nonNil, isNil = elseSt, thenSt
			}
			if isErrorType(obj.Type()) { // err != nil: failed; err == nil: succeeded
				nonNil.dropPaired(obj)
				nonNil.err[obj], isNil.err[obj] = rlErrNonNil, rlErrNil
				return
			}
			// x == nil where x binds a resource: not acquired.
			for k, r := range isNil.live {
				if r.obj != nil && r.obj == obj {
					delete(isNil.live, k)
				}
			}
		}
	}
}

// rlIdentVsNil matches `ident OP nil` / `nil OP ident`.
func rlIdentVsNil(pass *Pass, e *ast.BinaryExpr) *ast.Ident {
	isNil := func(x ast.Expr) bool {
		id, ok := ast.Unparen(x).(*ast.Ident)
		if !ok {
			return false
		}
		_, isNilObj := pass.Info.Uses[id].(*types.Nil)
		return isNilObj
	}
	if id, ok := ast.Unparen(e.X).(*ast.Ident); ok && isNil(e.Y) {
		return id
	}
	if id, ok := ast.Unparen(e.Y).(*ast.Ident); ok && isNil(e.X) {
		return id
	}
	return nil
}

// rlDropGuard removes obligations that were acquired under the given
// if-guard text: control cannot be on the opposite arm of the same
// (untouched) condition.
func rlDropGuard(st rlState, guard string) {
	for k, r := range st.live {
		if r.cond != "" && r.cond == guard {
			delete(st.live, k)
		}
	}
}

// ---------------------------------------------------------------------
// Transfer hooks.

func rlCondText(pass *Pass, e ast.Expr) string {
	if e == nil {
		return "true"
	}
	path := rlExprPath(e)
	if path != "" {
		return path
	}
	if be, ok := ast.Unparen(e).(*ast.BinaryExpr); ok {
		l, r := rlExprPath(be.X), rlExprPath(be.Y)
		if id := rlIdentVsNil(pass, be); id != nil {
			return id.Name + " " + be.Op.String() + " nil"
		}
		if l != "" && r != "" {
			return l + " " + be.Op.String() + " " + r
		}
	}
	if ue, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && ue.Op == token.NOT {
		if p := rlExprPath(ue.X); p != "" {
			return "!" + p
		}
	}
	return "…"
}

func rlCaseText(tag ast.Expr, cc *ast.CaseClause) string {
	if cc.List == nil {
		return "default"
	}
	t := "case"
	if tag != nil {
		if p := rlExprPath(tag); p != "" {
			t = p + " ="
		}
	}
	if p := rlExprPath(cc.List[0]); p != "" {
		return t + " " + p
	}
	return t + " …"
}

// stmt is the transfer function of the statements the skeleton does not
// take apart.
func (w *rlWalker) stmt(s ast.Stmt, st rlState) rlState {
	switch stmt := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(stmt.X).(*ast.CallExpr); ok {
			w.scanNestedLits(call)
			w.call(call, st, nil, stmt)
		}
	case *ast.AssignStmt:
		w.assign(stmt, st)
	case *ast.DeclStmt:
		if gd, ok := stmt.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					w.bindValues(vs.Names, vs.Values, st, stmt)
				}
			}
		}
	case *ast.GoStmt:
		w.goStmt(stmt, st)
	case *ast.DeferStmt:
		w.deferStmt(stmt, st)
	case *ast.SendStmt:
		w.scanExprCalls(stmt.Value, st)
		w.transferInto(stmt.Value, st, stmt, "channel send")
	}
	return st
}

// backEdge flags resources acquired inside a loop body that are still
// live when control heads back to the top: the next iteration
// re-acquires and the previous obligation is lost.
func (w *rlWalker) backEdge(loop *frame[rlState], st rlState, at ast.Node) {
	for k, r := range st.live {
		if _, atEntry := loop.entry.live[k]; atEntry || w.backReported[rlBackEdge{loop.body, k}] {
			continue
		}
		if r.obj != nil && (r.obj.Pos() < loop.body.Pos() || r.obj.Pos() >= loop.body.End()) {
			// Bound to a variable declared outside the loop: an
			// accumulator (fds = append(fds, fd)) the next iteration
			// still sees, so nothing is lost on the back-edge. The leak,
			// if any, is caught at the returns.
			continue
		}
		w.backReported[rlBackEdge{loop.body, k}] = true
		if w.report {
			pos := w.pass.Fset.Position(r.pos)
			*w.findings = append(*w.findings, findingAt(w.pass, "resource-lifecycle", at,
				"%s acquired at %s:%d inside the loop body is still live on the loop back-edge; the next iteration re-acquires and this one leaks%s",
				r.what(), pos.Filename, pos.Line, w.condString()))
		}
		delete(st.live, k)
	}
}

// scanExprCalls handles calls buried in non-statement expressions
// (conditions, range targets): lifecycle effects still apply, results
// are unbound.
func (w *rlWalker) scanExprCalls(e ast.Expr, st rlState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			w.walkLitFresh(lit)
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, isLit := ast.Unparen(call.Fun).(*ast.FuncLit); !isLit {
				w.call(call, st, nil, call)
			}
		}
		return true
	})
}

// scanNestedLits walks function literals appearing as call arguments
// (callbacks) as fresh anonymous functions.
func (w *rlWalker) scanNestedLits(call *ast.CallExpr) {
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			w.walkLitFresh(lit)
		}
	}
}

// transferInto handles a tracked resource moving into a field, map,
// channel or composite: sanctioned only under a dodo:transfers
// annotation on the enclosing function. The obligation is discharged
// either way so one move is reported once, at the move.
func (w *rlWalker) transferInto(rhs ast.Expr, st rlState, at ast.Node, how string) {
	if rhs == nil {
		return
	}
	ast.Inspect(rhs, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := w.objOf(id)
		if obj == nil {
			return true
		}
		for k, r := range st.live {
			if r.obj == nil || r.obj != obj {
				continue
			}
			delete(st.live, k)
			if !w.ann.transfers[r.kind] {
				w.reportf(at, "%s moves into a %s without a dodo:transfers(%s) annotation on the enclosing function",
					r.what(), how, r.kind)
			}
		}
		return true
	})
}

// assign handles binding acquisitions, rebinding/collecting
// obligations, and stores that transfer ownership.
func (w *rlWalker) assign(stmt *ast.AssignStmt, st rlState) {
	names := make([]*ast.Ident, len(stmt.Lhs))
	simple := true // every target is a plain identifier
	for i, l := range stmt.Lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		names[i], simple = id, simple && ok
	}
	switch {
	case simple && len(stmt.Rhs) > 1 && len(stmt.Lhs) == len(stmt.Rhs):
		for i := range stmt.Rhs {
			w.bindValues(names[i:i+1], stmt.Rhs[i:i+1], st, stmt)
		}
	case len(stmt.Rhs) == 1 && !simple:
		// Store into a field/map/slice element: ownership transfer.
		w.scanExprCalls(stmt.Rhs[0], st)
		w.transferInto(stmt.Rhs[0], st, stmt, "field, map or element store")
	case len(stmt.Rhs) == 1:
		w.bindValues(names, stmt.Rhs, st, stmt)
	default:
		// n := m assignments with mixed shapes: conservatively scan calls.
		for _, r := range stmt.Rhs {
			w.scanExprCalls(r, st)
		}
	}
}

// bindValues binds the lifecycle effects of values (one call with
// multiple results, or element-wise values) to the named targets.
func (w *rlWalker) bindValues(names []*ast.Ident, values []ast.Expr, st rlState, at ast.Node) {
	if len(values) != 1 {
		for i, v := range values {
			var n []*ast.Ident
			if i < len(names) {
				n = names[i : i+1]
			}
			w.bindValues(n, []ast.Expr{v}, st, at)
		}
		return
	}
	binds := make([]types.Object, len(names))
	for i, id := range names {
		if id != nil {
			binds[i] = w.objOf(id)
		}
	}
	switch rhs := ast.Unparen(values[0]).(type) {
	case *ast.CallExpr:
		w.scanNestedLits(rhs)
		// Nested acquiring calls inside a wrapper (append(xs,
		// acquire()...)) bind to the first target.
		if inner := rlInnerAcquiringCall(w, rhs); inner != nil && inner != rhs {
			w.call(inner, st, []types.Object{rlFirstObj(binds)}, at)
			// The wrapper may also move live obligations (append).
			w.rebindInto(rhs, rlFirstObj(binds), st)
			return
		}
		w.call(rhs, st, binds, at)
		// xs = append(xs, job): obligations riding the appended
		// values follow them into the collection binding.
		if rlIsAppend(w.pass, rhs) {
			w.rebindInto(rhs, rlFirstObj(binds), st)
		}
	case *ast.CompositeLit:
		// job := evictJob{marker: newInflight()}: the acquisition
		// binds to the composite's variable.
		if inner := rlInnerAcquiringCall(w, rhs); inner != nil {
			w.call(inner, st, []types.Object{rlFirstObj(binds)}, at)
			return
		}
		w.scanExprCalls(rhs, st)
	default:
		// Plain expression: a bare `x = res` rebind keeps the original
		// binding object.
		w.scanExprCalls(rhs, st)
	}
}

func rlFirstObj(objs []types.Object) types.Object {
	for _, o := range objs {
		if o != nil && o.Name() != "_" {
			return o
		}
	}
	return nil
}

// rlInnerAcquiringCall finds an acquiring call nested inside wrapper
// expressions: append(orphans, m.discardDrainingLocked(addr)...) or a
// composite literal field (evictJob{marker: newInflight()}).
func rlInnerAcquiringCall(w *rlWalker, e ast.Expr) *ast.CallExpr {
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if len(w.effectOf(x).acquires) > 0 {
			return x
		}
		var found *ast.CallExpr
		for _, arg := range x.Args {
			if c := rlInnerAcquiringCall(w, arg); c != nil {
				found = c
			}
		}
		return found
	case *ast.CompositeLit:
		var found *ast.CallExpr
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if c := rlInnerAcquiringCall(w, elt); c != nil {
				found = c
			}
		}
		return found
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return rlInnerAcquiringCall(w, x.X)
		}
	}
	return nil
}

// rlIsAppend reports a call to the builtin append.
func rlIsAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// rebindInto moves obligations referenced by call arguments onto the
// assignment target: grants = append(grants, g) re-keys g's obligation
// to grants.
func (w *rlWalker) rebindInto(call *ast.CallExpr, target types.Object, st rlState) {
	if target == nil {
		return
	}
	for _, arg := range call.Args {
		id := rlRootIdent(arg)
		if id == nil {
			continue
		}
		obj := w.objOf(id)
		if obj == nil || obj == target {
			continue
		}
		for k, r := range st.live {
			if r.obj != nil && r.obj == obj {
				delete(st.live, k)
				r.obj = target
				st.live[r.key()] = r
			}
		}
	}
}

// goStmt discharges obligations handed to a launched goroutine and
// analyzes literal bodies as fresh functions.
func (w *rlWalker) goStmt(stmt *ast.GoStmt, st rlState) {
	call := stmt.Call
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.scanRelease(lit.Body, st)
		w.walkLitFresh(lit)
		return
	}
	fn := funcFor(w.pass.Info, call)
	_, sum := w.summaryFor(fn)
	if sum != nil {
		for key := range sum.releasesExprs {
			delete(st.live, key)
		}
		args := rlArgExprs(call)
		for _, k := range sortedKeys(sum.releases) {
			w.discharge(st, k, args)
		}
		for i, k := range sum.paramReleases {
			if i < len(call.Args) {
				w.discharge(st, k, []ast.Expr{call.Args[i]})
			}
		}
	}
	// A released-by-param WaitGroup pointer: go worker(&wg).
	for _, arg := range call.Args {
		if ue, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && ue.Op == token.AND {
			if path := rlExprPath(ue.X); path != "" {
				delete(st.live, "e:wg::"+path)
			}
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// deferStmt discharges obligations released by a deferred call: the
// release runs at every downstream return.
func (w *rlWalker) deferStmt(stmt *ast.DeferStmt, st rlState) {
	call := stmt.Call
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.scanRelease(lit.Body, st)
		// Releases of counters never raised here still belong in the
		// summary (defer c.wg.Done() in a worker body).
		w.scanSummaryReleases(lit.Body)
		return
	}
	w.call(call, st, nil, stmt)
}

// scanSummaryReleases records expr-keyed releases found in a deferred
// literal into the function summary even when nothing was live.
func (w *rlWalker) scanSummaryReleases(root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		eff := w.effectOf(call)
		if eff.exprRel != "" {
			w.inferred.releasesExprs[eff.exprRel] = true
		}
		return true
	})
}

// ---------------------------------------------------------------------
// Returns.

// retClass classifies a return's error disposition.
func (w *rlWalker) retClass(stmt *ast.ReturnStmt, st rlState) string {
	if w.sig == nil {
		return "return"
	}
	res := w.sig.Results()
	if res.Len() == 0 || !isErrorType(res.At(res.Len()-1).Type()) {
		return "return"
	}
	var errExpr ast.Expr
	if len(stmt.Results) == res.Len() {
		errExpr = stmt.Results[len(stmt.Results)-1]
	} else if len(stmt.Results) == 0 && len(w.results) == res.Len() {
		errExpr = w.results[len(w.results)-1]
	}
	if errExpr == nil {
		return "return"
	}
	switch e := ast.Unparen(errExpr).(type) {
	case *ast.Ident:
		if _, isNil := w.pass.Info.Uses[e].(*types.Nil); isNil {
			return "nil-error return"
		}
		if obj := w.objOf(e); obj != nil {
			switch st.err[obj] {
			case rlErrNonNil:
				return "error return"
			case rlErrNil:
				return "nil-error return"
			}
		}
		return "return"
	case *ast.CallExpr:
		if fn := funcFor(w.pass.Info, e); fn != nil {
			switch fn.FullName() {
			case "errors.New", "fmt.Errorf":
				return "error return"
			}
		}
		return "return"
	}
	return "return"
}

func (w *rlWalker) ret(stmt *ast.ReturnStmt, st rlState) {
	// Inside an inline-invoked literal the return ends the literal, not
	// the function: record the state and skip leak checks.
	if len(w.inlineRet) > 0 {
		top := w.inlineRet[len(w.inlineRet)-1]
		*top = append(*top, st.clone())
		return
	}
	// Resources flowing out through the results transfer to the caller.
	for _, res := range stmt.Results {
		ast.Inspect(res, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				w.walkLitFresh(lit)
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				// return os.Open(p): acquired and immediately handed to
				// the caller — apply releases but not a discard finding.
				eff := w.effectOf(call)
				w.release(eff, call, st)
				for _, kind := range eff.acquires {
					w.inferred.acquires[kind] = true
				}
			}
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := w.objOf(id)
			if obj == nil {
				return true
			}
			for k, r := range st.live {
				if r.obj != nil && r.obj == obj {
					delete(st.live, k)
					w.inferred.acquires[r.kind] = true
				}
			}
			return true
		})
	}
	class := w.retClass(stmt, st)
	for _, k := range sortedKeys(st.live) {
		r := st.live[k]
		if w.ann.acquires[r.kind] {
			// The function's contract is to hand this kind to its
			// caller; only a definite error return is a leak.
			if class != "error return" {
				continue
			}
		}
		w.leak(stmt, r, class)
	}
}

// endOfBody flags obligations still live when a body with no final
// return falls off the end.
func (w *rlWalker) endOfBody(at ast.Node, st rlState) {
	for _, k := range sortedKeys(st.live) {
		r := st.live[k]
		if w.ann.acquires[r.kind] {
			continue
		}
		w.leak(at, r, "fall-through return")
	}
}

// ---------------------------------------------------------------------
// Driver.

// rlAnalyze walks one unit and returns its inferred summary.
func rlAnalyze(u *funcUnit, summaries map[string]*rlSummary, anns map[string]rlAnnotation, findings *[]Finding, report bool) *rlSummary {
	w := newRLWalker(&rlWalker{
		pass:      u.pass,
		summaries: summaries,
		anns:      anns,
		findings:  findings,
		report:    report,
		ann:       anns[u.name()],
	})
	var recv *ast.FieldList
	if u.decl != nil {
		w.sig, _ = u.obj.Type().(*types.Signature)
		w.entryPoint = u.pass.Pkg.Name() == "main" && u.decl.Name.Name == "main" && u.decl.Recv == nil
		recv = u.decl.Recv
	} else {
		w.sig, _ = u.pass.Info.TypeOf(u.typ).(*types.Signature)
	}
	// Parameter objects, receiver first, for param-release inference.
	for _, fields := range []*ast.FieldList{recv, u.typ.Params} {
		if fields != nil {
			for _, f := range fields.List {
				for _, n := range f.Names {
					w.params = append(w.params, u.pass.Info.Defs[n])
				}
			}
		}
	}
	if u.typ.Results != nil {
		for _, f := range u.typ.Results.List {
			w.results = append(w.results, f.Names...)
		}
	}
	out, terminated := w.walk(u.body.List, newRLState())
	if !terminated {
		w.endOfBody(u.body, out)
	}
	// Annotated releases carry into the summary verbatim.
	for k := range w.ann.releases {
		w.inferred.releases[k] = true
	}
	return w.inferred
}

func runResourceLifecycle(prog *program) []Finding {
	anns, findings := rlCollectAnnotations(prog)
	summaries := make(map[string]*rlSummary)
	units := prog.unitsFor("resource-lifecycle")
	// Inference rounds: propagate inferred summaries bottom-up until
	// stable (call chains through helpers are shallow; cap the rounds).
	untilStable(4, func() (changed bool) {
		var discard []Finding
		for _, u := range units {
			inf := rlAnalyze(u, summaries, anns, &discard, false)
			if u.obj == nil {
				continue // nothing calls a literal by name
			}
			s, ok := summaries[u.name()]
			if !ok {
				s = newRLSummary()
				summaries[u.name()] = s
			}
			changed = s.merge(inf) || changed
		}
		return changed
	})
	// Final reporting pass.
	for _, u := range units {
		rlAnalyze(u, summaries, anns, &findings, true)
	}
	return findings
}
