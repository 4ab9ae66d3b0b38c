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

// rpcMethods are the network-facing calls whose latency must never be
// absorbed inside a multi-lock critical section.
var rpcMethods = map[string]bool{
	"Call": true, "CallT": true, "Notify": true,
	"Send": true, "SendTo": true, "SendIovec": true,
	"SendBulk": true, "RecvBulk": true,
}

func isRPCFunc(fn *types.Func) bool {
	if fn.Pkg() == nil || !rpcMethods[fn.Name()] {
		return false
	}
	p := fn.Pkg().Path()
	return strings.HasSuffix(p, "/internal/bulk") ||
		strings.HasSuffix(p, "/internal/transport") ||
		strings.HasSuffix(p, "/internal/usocket")
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
			s.reachesRPC = s.reachesRPC || !cs.spawned && isRPCFunc(cs.fn)
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
			if isRPCFunc(cs.fn) {
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
// the acquisition graph that contains a cycle, anchored at the
// earliest edge inside the component.
func lockCycles(edges []lockEdge) []Finding {
	adj := make(map[lockClass][]lockClass)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	var nodes []lockClass
	seenNode := make(map[lockClass]bool)
	for _, e := range edges {
		for _, c := range []lockClass{e.from, e.to} {
			if !seenNode[c] {
				seenNode[c] = true
				nodes = append(nodes, c)
			}
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	index := make(map[lockClass]int)
	low := make(map[lockClass]int)
	onStack := make(map[lockClass]bool)
	var stack []lockClass
	next := 0
	comp := make(map[lockClass]int)
	ncomp := 0

	var strongconnect func(v lockClass)
	strongconnect = func(v lockClass) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = ncomp
				if w == v {
					break
				}
			}
			ncomp++
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strongconnect(v)
		}
	}

	// A component cycles if it has >1 member, or a self-loop.
	size := make(map[int]int)
	for _, c := range comp {
		size[c]++
	}
	selfLoop := make(map[int]bool)
	for _, e := range edges {
		if e.from == e.to {
			selfLoop[comp[e.from]] = true
		}
	}

	type cycleInfo struct {
		members []string
		edge    *lockEdge
	}
	cycles := make(map[int]*cycleInfo)
	for v, c := range comp {
		if size[c] > 1 || selfLoop[c] {
			ci := cycles[c]
			if ci == nil {
				ci = &cycleInfo{}
				cycles[c] = ci
			}
			ci.members = append(ci.members, v)
		}
	}
	for i := range edges {
		e := &edges[i]
		c := comp[e.from]
		ci := cycles[c]
		if ci == nil || comp[e.to] != c {
			continue
		}
		if ci.edge == nil || e.pass.Fset.Position(e.node.Pos()).Offset < ci.edge.pass.Fset.Position(ci.edge.node.Pos()).Offset {
			ci.edge = e
		}
	}

	var findings []Finding
	var order []int
	for c := range cycles {
		order = append(order, c)
	}
	sort.Ints(order)
	for _, c := range order {
		ci := cycles[c]
		sort.Strings(ci.members)
		findings = append(findings, findingAt(ci.edge.pass, "lock-order", ci.edge.node,
			"lock acquisition cycle among {%s}; these locks are taken in inconsistent orders and can deadlock",
			strings.Join(ci.members, ", ")))
	}
	return findings
}
