package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// GuardedBy is the whole-program shared-state analyzer. Struct fields
// declare their protection with a field comment:
//
//	// dodo:guardedby <mutexfield>  — reads/writes require the mutex
//	// dodo:atomic                  — touched only through sync/atomic
//	// dodo:unguarded — <reason>    — reviewed: needs no lock
//
// and the pass enforces four rules:
//
//  1. completeness: every struct containing a locks.Mutex / sync.Mutex /
//     sync.RWMutex field must have all its other fields annotated — no
//     silent unguarded state next to a lock;
//  2. domination: every read of a dodo:guardedby field must happen with
//     the declared mutex held (RLock suffices for reads), and every
//     write with it held exclusively. The proof is inter-procedural:
//     an access in a helper is accepted when the helper locks, or when
//     every call site in the program reaches it with the mutex held
//     (directly, or through a caller that itself qualifies and never
//     releases the mutex mid-body). Taking a guarded field's address is
//     a finding — an escaped pointer cannot be checked;
//  3. atomicity: dodo:atomic fields are touched only through the
//     sync/atomic method set (atomic.Int64.Add, atomic.LoadUint64(&f),
//     ...); any plain read, write, copy or escaping address is a mixed
//     plain/atomic access and a finding;
//  4. rank: a mutex named by a dodo:guardedby annotation that is a
//     locks.Mutex must receive a SetRank somewhere in the program — a
//     guarding lock outside the declared hierarchy (DESIGN.md §8) has
//     no place in the order the lockcheck runtime checks.
//
// The held sets come from the lock-flow records (lockflow.go), whose
// header lists the walk's approximations; a function's literals count
// as part of it here, with the held set of their creation point.
// Accesses through a variable freshly allocated in the same function
// (&T{...}, new(T)) are exempt — a struct that has not escaped its
// constructor needs no lock. Residual false positives carry a
// //vet:ignore guarded-by directive with a reviewed reason.
//
// Analyzed packages: see scopes (program.go).
var GuardedBy = &Analyzer{
	Name:       "guarded-by",
	Doc:        "prove dodo:guardedby fields are accessed under their declared mutex, dodo:atomic fields only via sync/atomic, and mutex-holding structs fully annotated",
	RunProgram: runGuardedBy,
}

type gbKind int

const (
	gbGuarded gbKind = iota
	gbAtomic
	gbUnguarded
)

// gbSpec is one annotated field: its protection kind, the guard key
// ("pkgpath.Type.mutexfield") of a dodo:guardedby field, and display
// names. For guards that are locks.Mutex, rankPass/rankPos anchor the
// SetRank cross-check finding at the annotated field.
type gbSpec struct {
	kind      gbKind
	guardKey  string
	guardName string // "Type.mu" for messages
	owner     string // "pkg.Type.field" for messages
	rankPass  *Pass
	rankPos   token.Pos
}

// gbMutexType classifies t as a lockable mutex held by value —
// sync.Mutex, sync.RWMutex or locks.Mutex — and says whether it is the
// kind that carries a rank.
func gbMutexType(t types.Type) (isMutex, ranked bool) {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false, false
	}
	switch path, name := named.Obj().Pkg().Path(), named.Obj().Name(); {
	case path == "sync":
		return name == "Mutex" || name == "RWMutex", false
	case isLockPkg(path):
		return name == "Mutex", name == "Mutex"
	}
	return false, false
}

// gbCollect gathers field specs and annotation-grammar findings across
// the analyzed packages.
func gbCollect(prog *program) (specs map[string]*gbSpec, findings []Finding) {
	specs = make(map[string]*gbSpec)
	for _, pass := range prog.passes {
		if !inScope("guarded-by", pass.Pkg.Path()) {
			continue
		}
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					obj, ok := pass.Info.Defs[ts.Name].(*types.TypeName)
					if !ok {
						continue
					}
					tst, ok := obj.Type().Underlying().(*types.Struct)
					if !ok {
						continue
					}
					findings = append(findings, gbCollectStruct(prog, pass, obj, st, tst, specs)...)
				}
			}
		}
	}
	return specs, findings
}

// gbCollectStruct processes one struct declaration: reads each field's
// first dodo: directive, validates guardedby targets, and enforces
// completeness when the struct holds a mutex.
func gbCollectStruct(prog *program, pass *Pass, obj *types.TypeName, st *ast.StructType, tst *types.Struct, specs map[string]*gbSpec) []Finding {
	var findings []Finding
	typeKey := obj.Pkg().Path() + "." + obj.Name()
	display := obj.Pkg().Name() + "." + obj.Name()

	type fieldDecl struct {
		af *ast.Field
		v  *types.Var
	}
	var decls []fieldDecl
	idx := 0
	for _, af := range st.Fields.List {
		n := len(af.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n && idx < tst.NumFields(); i++ {
			decls = append(decls, fieldDecl{af: af, v: tst.Field(idx)})
			idx++
		}
	}

	mutexFields := make(map[string]bool) // name -> carries a rank
	for _, d := range decls {
		if isMutex, ranked := gbMutexType(d.v.Type()); isMutex {
			mutexFields[d.v.Name()] = ranked
		}
	}

	for _, d := range decls {
		if _, isMutexField := mutexFields[d.v.Name()]; isMutexField {
			continue
		}
		anns := prog.directives.of(d.af.Doc, d.af.Comment)
		if len(anns) > 0 && anns[0].problem != "" {
			findings = append(findings, findingAt(pass, "guarded-by", d.af,
				"field %s.%s: %s", display, d.v.Name(), anns[0].problem))
			continue
		}
		if len(anns) == 0 {
			if len(mutexFields) > 0 {
				findings = append(findings, findingAt(pass, "guarded-by", d.af,
					"field %s.%s has no dodo: annotation but the struct holds a mutex; declare dodo:guardedby <mutex>, dodo:atomic, or dodo:unguarded — reason",
					display, d.v.Name()))
			}
			continue
		}
		fieldKey := typeKey + "." + d.v.Name()
		switch anns[0].verb {
		case "dodo:guardedby":
			target := anns[0].args[0]
			ranked, isMutexTarget := mutexFields[target]
			if !isMutexTarget {
				findings = append(findings, findingAt(pass, "guarded-by", d.af,
					"field %s.%s: dodo:guardedby %q does not name a sibling mutex field", display, d.v.Name(), target))
				continue
			}
			specs[fieldKey] = &gbSpec{
				kind:      gbGuarded,
				guardKey:  typeKey + "." + target,
				guardName: obj.Name() + "." + target,
				owner:     display + "." + d.v.Name(),
			}
			if ranked {
				// Rank cross-check is resolved after SetRank collection;
				// remember where to anchor the finding.
				specs[fieldKey].rankPos = d.af.Pos()
				specs[fieldKey].rankPass = pass
			}
		case "dodo:atomic":
			specs[fieldKey] = &gbSpec{kind: gbAtomic, owner: display + "." + d.v.Name()}
		case "dodo:unguarded":
			specs[fieldKey] = &gbSpec{kind: gbUnguarded, owner: display + "." + d.v.Name()}
		}
	}
	return findings
}

// gbPending is a guarded access not dominated by a local Lock; the
// inter-procedural phase decides whether every caller provides it.
type gbPending struct {
	spec  *gbSpec
	write bool
	pass  *Pass
	node  ast.Node
}

// gbSummary is one unit, its literals included.
type gbSummary struct {
	key      string
	pending  []gbPending
	calls    []callSite
	releases map[string]bool // guard keys unlocked anywhere in the body
}

func runGuardedBy(prog *program) []Finding {
	specs, findings := gbCollect(prog)
	if len(specs) == 0 {
		return findings
	}
	report := func(pass *Pass, n ast.Node, format string, args ...any) {
		findings = append(findings, findingAt(pass, "guarded-by", n, format, args...))
	}

	// One summary per unit; immediately-decidable uses are reported on
	// the way. SetRank calls are collected from every package: a guard
	// may be ranked by a constructor outside the analyzed set.
	ranked := make(map[string]bool)
	var order []*gbSummary
	byRoot := make(map[*lockFlow]*gbSummary)
	byKey := make(map[string]*gbSummary)
	for _, flow := range prog.lockFlows() {
		for _, cs := range flow.calls {
			if cs.fn.Name() == "SetRank" && cs.fn.Pkg() != nil && isLockPkg(cs.fn.Pkg().Path()) {
				if sel, ok := ast.Unparen(cs.call.Fun).(*ast.SelectorExpr); ok {
					ranked[lockKey(flow.pass, sel.X)] = true
				}
			}
		}
		if !inScope("guarded-by", flow.pass.Pkg.Path()) {
			continue
		}
		s := byRoot[flow.root]
		if s == nil {
			s = &gbSummary{releases: make(map[string]bool)}
			if flow.root.fn != nil {
				s.key = flow.root.fn.FullName()
				byKey[s.key] = s
			}
			byRoot[flow.root] = s
			order = append(order, s)
		}
		s.calls = append(s.calls, flow.calls...)
		for k := range flow.unlocks {
			s.releases[k] = true
		}
		for _, u := range flow.uses {
			spec := specs[fieldKey(flow.pass.Info.Selections[u.sel])]
			if spec == nil || u.fresh || spec.kind == gbUnguarded {
				continue
			}
			switch {
			case u.kind == useAtomic:
				if spec.kind == gbGuarded {
					report(flow.pass, u.at, "dodo:guardedby field %s accessed through sync/atomic (%s); pick one discipline", spec.owner, u.via)
				}
			case u.kind == useAddr && spec.kind == gbGuarded:
				report(flow.pass, u.at, "address of guarded field %s escapes; a pointer cannot be proven to stay under %s", spec.owner, spec.guardName)
			case u.kind == useAddr:
				report(flow.pass, u.at, "address of dodo:atomic field %s escapes outside a sync/atomic call", spec.owner)
			case spec.kind == gbAtomic:
				verb := "read of"
				if u.kind == useWrite {
					verb = "write to"
				}
				report(flow.pass, u.at, "plain %s dodo:atomic field %s mixes with sync/atomic access; use the atomic API everywhere", verb, spec.owner)
			case !heldSatisfies(u.held, spec.guardKey, u.kind == useWrite):
				s.pending = append(s.pending, gbPending{spec, u.kind == useWrite, flow.pass, u.at})
			}
		}
	}

	// Every locks.Mutex named as a guard must be ranked somewhere.
	reportedRank := make(map[string]bool)
	for _, spec := range specs {
		if spec.kind != gbGuarded || spec.rankPass == nil || ranked[spec.guardKey] || reportedRank[spec.guardKey] {
			continue
		}
		reportedRank[spec.guardKey] = true
		findings = append(findings, Finding{
			Pos:      spec.rankPass.Fset.Position(spec.rankPos),
			Analyzer: "guarded-by",
			Message: fmt.Sprintf("guardedby mutex %s is a locks.Mutex but never receives SetRank; a guarding lock must carry a rank in the hierarchy (DESIGN.md §8)",
				spec.guardName),
		})
	}

	// Inter-procedural coverage: an access pending in F is accepted when
	// every call site of F holds the guard (locally, or because the
	// caller itself qualifies and never releases the guard mid-body).
	type site struct {
		caller *gbSummary
		held   []heldLock
	}
	callers := make(map[*gbSummary][]site)
	for _, s := range order {
		for _, c := range s.calls {
			if callee := byKey[c.fn.FullName()]; callee != nil {
				callers[callee] = append(callers[callee], site{s, c.held})
			}
		}
	}
	type needKey struct {
		guard string
		write bool
	}
	covered := make(map[needKey]map[*gbSummary]bool)
	for _, s := range order {
		for _, p := range s.pending {
			nk := needKey{p.spec.guardKey, p.write}
			cov := covered[nk]
			if cov == nil {
				cov = make(map[*gbSummary]bool)
				for callee := range callers {
					cov[callee] = true
				}
				untilStable(0, func() (changed bool) {
					for callee, sites := range callers {
						for _, at := range sites {
							if cov[callee] && !heldSatisfies(at.held, nk.guard, nk.write) &&
								!(cov[at.caller] && !at.caller.releases[nk.guard]) {
								cov[callee], changed = false, true
							}
						}
					}
					return changed
				})
				covered[nk] = cov
			}
			if cov[s] {
				continue
			}
			verb, req := "read of", ""
			if p.write {
				verb, req = "write to", " exclusively"
			}
			report(p.pass, p.node, "%s %s is not dominated by %s.Lock%s: lock it here, or ensure every caller holds it",
				verb, p.spec.owner, p.spec.guardName, req)
		}
	}
	return findings
}
