package vet

// MutexHygiene flags two ways of blocking inside a critical section:
//
//  1. a channel send made while a mutex is held: the receiver may be
//     arbitrarily slow (or itself blocked on the same lock), turning a
//     critical section into a deadlock;
//  2. an RPC or Send (netCalls, bufown.go) made while holding two or
//     more locks, directly or through a resolved call that reaches the
//     network on the caller's goroutine: a remote peer's latency must
//     never extend a multi-lock critical section.
//
// Value receivers and copies of lock-bearing types are go vet's
// copylocks check, which verify.sh and CI run with the rest of go vet
// and TestCopylocks pins; lock ranks are the lockcheck runtime's
// (internal/locks).
//
// Both rules read the lock-flow records (lockflow.go) and count only
// the locks the function itself holds there, nameable or not: a
// function literal answers for the locks the literal takes, not the
// ones around its creation point. They under-report in convoluted flows
// but never need annotations.
var MutexHygiene = &Analyzer{
	Name:       "mutex-hygiene",
	Doc:        "flag channel sends under a held lock, and RPCs under two or more",
	RunProgram: runMutexHygiene,
}

// ownHeld counts the locks of held that the function itself took.
func ownHeld(held []heldLock) int {
	n := 0
	for _, h := range held {
		if !h.outer {
			n++
		}
	}
	return n
}

func runMutexHygiene(prog *program) []Finding {
	flows := prog.lockFlows()
	// reaches holds the functions that go to the network on their own
	// goroutine: a call in netCalls, or a resolved call to one that does.
	reaches := make(map[string]bool)
	untilStable(0, func() (changed bool) {
		for _, flow := range flows {
			if flow.fn == nil || reaches[flow.fn.FullName()] {
				continue
			}
			for _, cs := range flow.calls {
				if rpc, _ := netCall(cs.fn); !cs.spawned && (rpc || reaches[cs.fn.FullName()]) {
					reaches[flow.fn.FullName()], changed = true, true
					break
				}
			}
		}
		return changed
	})
	var findings []Finding
	for _, flow := range flows {
		for _, send := range flow.sends {
			if ownHeld(send.held) > 0 {
				findings = append(findings, findingAt(flow.pass, "mutex-hygiene", send.stmt,
					"channel send while holding a mutex; the receiver can stall (or deadlock) the critical section — send after unlocking"))
			}
		}
		for _, cs := range flow.calls {
			n := ownHeld(cs.held)
			if cs.spawned || n < 2 {
				continue
			}
			what := ""
			if rpc, _ := netCall(cs.fn); rpc {
				what = cs.fn.Name()
			} else if reaches[cs.fn.FullName()] {
				what = cs.fn.FullName()
			}
			if what != "" {
				findings = append(findings, findingAt(flow.pass, "mutex-hygiene", cs.call,
					"RPC %s while holding %d locks; release all but one before going to the network", what, n))
			}
		}
	}
	return findings
}
