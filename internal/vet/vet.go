// Package vet implements dodo-vet, the repo-specific static-analysis
// suite. Every speedup curve this repository reproduces rests on the
// calibrated simulation being deterministic and race-free, so the
// invariants that keep it honest are enforced mechanically rather than
// by convention:
//
//   - clock-discipline: no direct time.Now/time.Sleep/time.After (and
//     friends) outside the low-level packages that implement clocks and
//     transports; everything else takes a sim.Clock.
//   - seeded-rand: no top-level math/rand calls; randomness flows from
//     rand.New(rand.NewSource(seed)) so experiments replay bit-for-bit.
//   - unchecked-error: the client API (Mread/Mwrite/Mclose/Msync,
//     Cread/Cwrite), transport Send/Recv and io.Closer Close must not
//     have their error results silently discarded.
//   - mutex-hygiene: no channel sends while a mutex is held, and no
//     RPC or Send while two or more are. (Value receivers and copies
//     of lock-bearing types are go vet's copylocks, run with the rest
//     of go vet.)
//   - buffer-ownership: in the zero-copy packages (usocket, bulk,
//     transport), no writes to or retention of a byte slice on a path
//     after it was handed to Send, and no storing of borrowed []byte
//     parameters beyond the callback — copy first, or declare the
//     transfer in the function's contract with dodo:adopts(param).
//   - guarded-by: struct fields next to a mutex declare their
//     protection (// dodo:guardedby <mutex>, // dodo:atomic,
//     // dodo:unguarded — reason) and the whole-program pass proves
//     every guarded access is dominated by the declared Lock/RLock,
//     atomic fields go only through sync/atomic, guarded addresses
//     never escape, and guarding locks.Mutexes carry a rank
//     (DESIGN.md §8.4).
//
// The suite keeps only rules no other check covers (DESIGN.md §8 has a
// row per rule and what else covers it). Lock ranks are checked at
// runtime by `-tags lockcheck` (internal/locks), a dispatcher's answer
// to every wire message type by the dispatcher's own table test, and a
// release a path forgets (an fd, a pooled frame, a pin, a WaitGroup
// count) by the tests that reach it: a deadline on the wait it leaves
// or an allocation bound per operation (mutation_test.go keeps one row
// per release and the test that fails for it).
//
// A finding can be suppressed at a single site with a trailing or
// preceding comment: //vet:ignore <analyzer-name>. That is for reviewed
// false positives; each one should say why on the same comment line. directive.go lists every
// comment the tool reads; one it cannot read is itself a finding.
//
// Rules are data where they can be (DESIGN.md §8.6): which packages a
// rule analyzes is a row of the scopes table (program.go), which calls
// clock-discipline, seeded-rand and unchecked-error flag is a row of
// calls.go. The passes that follow control flow share
// the skeleton of flow.go; guarded-by and mutex-hygiene read the
// lock-flow walk of lockflow.go; the whole-program passes share the
// program index of program.go. The analyzers are written against the stdlib go/ast +
// go/types stack only; package loading shells out to the go command
// for export data (see load.go), so the tool needs no dependencies
// beyond the toolchain.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the finding as "file:line: analyzer: message".
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Pass is the per-package unit of work handed to each analyzer: the
// parsed syntax plus full type information.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	imp   types.Importer // what Pkg was checked against (load.go)
}

// Analyzer is one invariant checker. Exactly one of Run and RunProgram
// is set.
type Analyzer struct {
	// Name is the short rule name used in findings ("clock-discipline").
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	// Run inspects one package and returns its violations.
	Run func(*Pass) []Finding
	// RunProgram inspects all loaded packages at once, through the
	// shared index. Inter-procedural analyzers need the whole program:
	// an acquisition edge or a call chain can span packages.
	RunProgram func(*program) []Finding
}

// run applies the analyzer to the program: a per-package analyzer to
// each package in its scope (program.go), so no Run tests its own.
func (a *Analyzer) run(prog *program) []Finding {
	if a.RunProgram != nil {
		return a.RunProgram(prog)
	}
	var all []Finding
	for _, pass := range prog.passes {
		if inScope(a.Name, pass.Pkg.Path()) {
			all = append(all, a.Run(pass)...)
		}
	}
	return all
}

// findingAt builds a Finding for the given rule at n's position. Run
// functions use it with their literal rule name (rather than through
// the Analyzer variable) to avoid initialization cycles.
func findingAt(p *Pass, analyzer string, n ast.Node, format string, args ...any) Finding {
	return Finding{
		Pos:      p.Fset.Position(n.Pos()),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	}
}

// All returns every analyzer in the suite, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		ClockDiscipline,
		SeededRand,
		UncheckedError,
		MutexHygiene,
		BufferOwnership,
		GuardedBy,
	}
}

// Check runs the given analyzers over the passes, adds the findings
// about unreadable directives (directive.go), filters out the
// //vet:ignore-suppressed ones, and returns the rest sorted by file,
// line, analyzer and message.
func Check(passes []*Pass, analyzers []*Analyzer) []Finding {
	prog := newProgram(passes)
	all := append([]Finding(nil), prog.directives.problems...)
	for _, a := range analyzers {
		for _, f := range a.run(prog) {
			if !prog.directives.suppresses(f) {
				all = append(all, f)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return all
}

// funcFor resolves the called function object of a call expression, or
// nil when the callee is not a known *types.Func (e.g. a func-typed
// variable or a type conversion).
func funcFor(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() == nil && obj.Name() == "error"
}
