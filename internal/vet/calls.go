package vet

import (
	"go/ast"
	"go/types"
	"slices"
)

// callRule is a rule that flags calls by what they resolve to. The
// three such rules differ only in these fields; one runner applies
// each, to the packages of its scope (program.go).
type callRule struct {
	// pkgs are the callee packages the rule concerns; nil means any.
	pkgs []string
	// method selects methods rather than package-level functions.
	method bool
	// names are the callee names the rule flags, or with allow set the
	// only ones it lets through.
	names map[string]bool
	allow bool
	// discarded restricts the rule to calls in statement position whose
	// last result is an error: the error is thrown away unseen.
	discarded bool
	// message is the finding text; it is formatted with the callee's
	// package path and name.
	message string
}

func nameSet(names ...string) map[string]bool {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
}

// ClockDiscipline enforces the virtual-clock discipline that keeps the
// simulation deterministic: a single time.Now in a daemon makes every
// trace-driven run diverge, so outside sim, transport and usocket all
// time flows through an injected sim.Clock (sim.WallClock in live
// deployments). Only the package-level functions that read or schedule
// against the process clock are banned: pure data (time.Time,
// time.Duration, time.Date, constants) and methods (t.After(u),
// timer.Stop()) stay allowed everywhere.
var ClockDiscipline = callRule{
	pkgs:    []string{"time"},
	names:   nameSet("Now", "Sleep", "Since", "Until", "After", "AfterFunc", "Tick", "NewTimer", "NewTicker"),
	message: "call to %s.%s bypasses the injected sim.Clock; take a sim.Clock (sim.WallClock in live code) so simulated runs stay deterministic",
}.analyzer("clock-discipline", "forbid direct time.Now/Sleep/After etc. outside sim/transport/usocket; inject a sim.Clock")

// SeededRand forbids the top-level math/rand convenience functions
// (rand.Intn, rand.Float64, rand.Shuffle, ...): they draw from the
// process-global generator, whose state depends on everything else that
// has run, so two invocations of the same experiment diverge. All
// randomness must flow from a rand.New(rand.NewSource(seed)) owned by
// the component, with the seed recorded in its config. The allowed
// functions construct an explicitly seeded generator; methods on
// *rand.Rand carry their own source.
var SeededRand = callRule{
	pkgs:    []string{"math/rand", "math/rand/v2"},
	names:   nameSet("New", "NewSource", "NewZipf"),
	allow:   true,
	message: "call to %s.%s uses the process-global generator; use rand.New(rand.NewSource(seed)) so experiments replay deterministically",
}.analyzer("seeded-rand", "forbid global math/rand functions; use rand.New(rand.NewSource(seed)) for reproducibility")

// UncheckedError flags statement-position calls to the methods whose
// error results carry correctness-critical information in this
// codebase: the client API of §3.2 (a discarded Mwrite error silently
// loses the remote copy), the region cache layer, the transport
// primitives, and io.Closer.Close on resources whose teardown can fail.
// bulk.Endpoint.Notify is deliberately absent: it is the protocol's
// best-effort fire-and-forget path. Explicit discards (`_ = f.Close()`)
// and deferred cleanup (`defer f.Close()`) remain allowed: both are
// visible declarations that the error was considered.
var UncheckedError = callRule{
	method:    true,
	names:     nameSet("Mread", "Mwrite", "Mclose", "Msync", "Cread", "Cwrite", "Send", "Recv", "Close"),
	discarded: true,
	message:   "error result of %[2]s is discarded; check it or assign it to _ explicitly",
}.analyzer("unchecked-error", "flag discarded errors from the client API (Mread/Mwrite/...), transport Send/Recv and Close")

// analyzer makes the rule a per-package analyzer under the given name.
func (r callRule) analyzer(name, doc string) *Analyzer {
	return &Analyzer{Name: name, Doc: doc, Run: func(pass *Pass) []Finding {
		var findings []Finding
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if call := r.callAt(n); call != nil {
					if fn := funcFor(pass.Info, call); fn != nil && r.flags(fn) {
						findings = append(findings, findingAt(pass, name, call, r.message, fn.Pkg().Path(), fn.Name()))
					}
				}
				return true
			})
		}
		return findings
	}}
}

// callAt returns the call node n makes that the rule looks at, or nil.
func (r callRule) callAt(n ast.Node) *ast.CallExpr {
	switch n := n.(type) {
	case *ast.CallExpr:
		if !r.discarded {
			return n
		}
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok && r.discarded {
			return call
		}
	case *ast.GoStmt:
		if r.discarded {
			return n.Call
		}
	}
	return nil
}

// flags reports whether the rule flags a call to fn.
func (r callRule) flags(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || fn.Pkg() == nil || (sig.Recv() != nil) != r.method || r.names[fn.Name()] == r.allow ||
		r.pkgs != nil && !slices.Contains(r.pkgs, fn.Pkg().Path()) {
		return false
	}
	if r.discarded {
		results := sig.Results()
		return results.Len() > 0 && isErrorType(results.At(results.Len()-1).Type())
	}
	return true
}
