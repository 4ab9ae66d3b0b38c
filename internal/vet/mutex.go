package vet

// MutexHygiene flags a channel send made while a mutex is held: the
// receiver may be arbitrarily slow (or itself blocked on the same lock),
// turning a critical section into a deadlock. Value receivers and
// copies of lock-bearing types are go vet's copylocks check, which
// verify.sh and CI run with the rest of go vet and TestCopylocks pins.
//
// The send check reads the lock-flow records (lockflow.go): a send is
// flagged when the walk has the sending function itself holding any
// lock there, nameable or not. A function literal's sends answer for
// the locks the literal takes, not the ones around its creation point.
// It under-reports in convoluted flows but never needs annotations.
var MutexHygiene = &Analyzer{
	Name:       "mutex-hygiene",
	Doc:        "flag channel sends under a held lock",
	RunProgram: runMutexHygiene,
}

func runMutexHygiene(prog *program) []Finding {
	var findings []Finding
	for _, flow := range prog.lockFlows() {
		for _, send := range flow.sends {
			for _, h := range send.held {
				if !h.outer {
					findings = append(findings, findingAt(flow.pass, "mutex-hygiene", send.stmt,
						"channel send while holding a mutex; the receiver can stall (or deadlock) the critical section — send after unlocking"))
					break
				}
			}
		}
	}
	return findings
}
