package vet

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// LockOrder is the whole-program lock-acquisition analyzer. It builds
// the acquisition graph over every locks.Mutex/sync.Mutex holder in the
// internal packages: a node per lock class (struct field or package
// variable), and an edge A -> B for every path on which B is acquired
// while A is held — directly, or transitively through calls. It fails
// on
//
//  1. cycles in the graph: two lock classes acquired in both orders can
//     deadlock, and a cycle is exactly a schedule the declared rank
//     hierarchy (internal/locks) cannot admit;
//  2. RPC or Send calls made while holding more than one lock: a
//     remote peer's latency (or its own blocking on the same locks)
//     must never extend a multi-lock critical section.
//
// The pass reads the lock-flow records (lockflow.go), whose header lists
// the walk's approximations; each function literal is a node of its own,
// starting with no locks — a closure may run on any goroutine — and a
// `go` call carries none across.
//
// Excluded packages: see scopes (program.go).
var LockOrder = &Analyzer{
	Name:       "lock-order",
	Doc:        "build the whole-program lock-acquisition graph; fail on cycles and on RPC calls under more than one lock",
	RunProgram: runLockOrder,
}

// lockClass names one lock in the graph: "pkg.Type.field" for struct
// fields, "pkg.var" for package-level mutexes.
type lockClass = string

type lockEdge struct {
	from, to lockClass
	pass     *Pass
	node     ast.Node
}

// netCalls are the network-facing methods of the packet-path packages
// (the buffer-ownership scope), whose latency must never be absorbed
// inside a multi-lock critical section; true marks the zero-copy sends,
// which lend their []byte arguments to the network layer.
var netCalls = map[string]bool{
	"Send": true, "SendTo": true, "SendIovec": true,
	"Call": false, "CallT": false, "Notify": false, "SendBulk": false, "RecvBulk": false,
}

// netCall reports whether fn is one of netCalls, and whether it lends.
func netCall(fn *types.Func) (rpc, lends bool) {
	if fn == nil || fn.Pkg() == nil || !inScope("buffer-ownership", fn.Pkg().Path()) {
		return false, false
	}
	lends, rpc = netCalls[fn.Name()]
	return rpc, lends
}

// ownClasses lists the nameable locks of held that the function itself
// took, in acquisition order.
func ownClasses(held []heldLock) []lockClass {
	var out []lockClass
	for _, h := range held {
		if !h.outer && h.class != "" {
			out = append(out, h.class)
		}
	}
	return out
}

// lockSummary is the transitive closure, through resolved calls, of what
// a function acquires and whether it reaches the network.
type lockSummary struct {
	flow       *lockFlow
	acquires   map[lockClass]bool
	reachesRPC bool
}

func runLockOrder(prog *program) []Finding {
	// Summaries are keyed by types.Func.FullName so cross-package call
	// sites resolve; literals participate only through their own edges
	// and sites.
	var all []*lockSummary
	byName := make(map[string]*lockSummary)
	for _, flow := range prog.lockFlows() {
		if !inScope("lock-order", flow.pass.Pkg.Path()) {
			continue
		}
		s := &lockSummary{flow: flow, acquires: make(map[lockClass]bool)}
		for _, l := range flow.locks {
			if l.lock.class != "" {
				s.acquires[l.lock.class] = true
			}
		}
		for _, cs := range flow.calls {
			rpc, _ := netCall(cs.fn)
			s.reachesRPC = s.reachesRPC || !cs.spawned && rpc
		}
		all = append(all, s)
		if flow.fn != nil {
			byName[flow.fn.FullName()] = s
		}
	}
	// callee resolves a site the caller runs itself; a spawned callee
	// holds and acquires on its own goroutine.
	callee := func(cs callSite) *lockSummary {
		if cs.spawned {
			return nil
		}
		return byName[cs.fn.FullName()]
	}
	untilStable(0, func() (changed bool) {
		for _, s := range all {
			for _, cs := range s.flow.calls {
				c := callee(cs)
				if c == nil {
					continue
				}
				for class := range c.acquires {
					if !s.acquires[class] {
						s.acquires[class], changed = true, true
					}
				}
				if c.reachesRPC && !s.reachesRPC {
					s.reachesRPC, changed = true, true
				}
			}
		}
		return changed
	})

	// The global edge set: an edge from every held class to each lock
	// taken directly, and to everything a callee may acquire.
	var edges []lockEdge
	var findings []Finding
	for _, s := range all {
		for _, l := range s.flow.locks {
			for _, h := range ownClasses(l.held) {
				if l.lock.class != "" {
					edges = append(edges, lockEdge{h, l.lock.class, s.flow.pass, l.call})
				}
			}
		}
		for _, cs := range s.flow.calls {
			if cs.spawned {
				continue
			}
			held := ownClasses(cs.held)
			c := callee(cs)
			if c != nil {
				for class := range c.acquires {
					for _, h := range held {
						edges = append(edges, lockEdge{h, class, s.flow.pass, cs.call})
					}
				}
			}
			// Rule 2: RPC under more than one lock, directly or through
			// a callee that reaches the network.
			what := ""
			if rpc, _ := netCall(cs.fn); rpc {
				what = cs.fn.Name()
			} else if c != nil && c.reachesRPC {
				what = cs.fn.FullName()
			}
			if what != "" && len(held) >= 2 {
				findings = append(findings, findingAt(s.flow.pass, "lock-order", cs.call,
					"RPC %s while holding %d locks (%s); release all but one before going to the network",
					what, len(held), strings.Join(held, ", ")))
			}
		}
	}

	// Rule 1: cycles. Tarjan SCC over the class graph; any SCC with
	// more than one class — or a self-loop — is an ordering violation.
	return append(findings, lockCycles(edges)...)
}

// lockCycles reports one finding per strongly connected component of
// the acquisition graph that contains a cycle — classes that reach each
// other, or one that reaches itself — anchored at the earliest edge
// inside the component. The graph has a few dozen classes, so each
// class's reach is found by its own search.
func lockCycles(edges []lockEdge) []Finding {
	adj := make(map[lockClass][]lockClass)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	// reach[a][b]: a path of one edge or more leads from a to b.
	reach := make(map[lockClass]map[lockClass]bool)
	for a := range adj {
		reach[a] = make(map[lockClass]bool)
		for next := append([]lockClass(nil), adj[a]...); len(next) > 0; {
			c := next[len(next)-1]
			next = next[:len(next)-1]
			if !reach[a][c] {
				reach[a][c] = true
				next = append(next, adj[c]...)
			}
		}
	}
	offset := func(e *lockEdge) int { return e.pass.Fset.Position(e.node.Pos()).Offset }
	var findings []Finding
	done := make(map[lockClass]bool)
	for _, e := range edges {
		if done[e.from] || !reach[e.from][e.from] {
			continue
		}
		var members []string
		in := make(map[lockClass]bool)
		for c := range reach[e.from] {
			if reach[c][e.from] {
				members = append(members, c)
				in[c], done[c] = true, true
			}
		}
		var anchor *lockEdge
		for i := range edges {
			if f := &edges[i]; in[f.from] && in[f.to] && (anchor == nil || offset(f) < offset(anchor)) {
				anchor = f
			}
		}
		sort.Strings(members)
		findings = append(findings, findingAt(anchor.pass, "lock-order", anchor.node,
			"lock acquisition cycle among {%s}; these locks are taken in inconsistent orders and can deadlock",
			strings.Join(members, ", ")))
	}
	return findings
}
