// Fixture for the lock-order analyzer. Checked under the import path
// dodo/internal/transport so the local Send method counts as an RPC
// and the package is inside the analyzed internal/ set.
package transport

import "sync"

// Net stands in for a transport endpoint; its Send is recognized as an
// RPC because this fixture type-checks under internal/transport.
type Net struct{}

func (n *Net) Send(to string, data []byte) error { return nil }

// A and B are locked in both orders below: a cycle.
type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

func lockAB(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock() // want `lock acquisition cycle among \{transport.A.mu, transport.B.mu\}`
	b.mu.Unlock()
	a.mu.Unlock()
}

func lockBA(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}

// C and D are always nested in the same order: consistent, no cycle.
type C struct{ mu sync.Mutex }

type D struct{ mu sync.Mutex }

func lockCD(c *C, d *D) {
	c.mu.Lock()
	d.mu.Lock()
	d.mu.Unlock()
	c.mu.Unlock()
}

// Direct RPC under two held locks: flagged.
func sendUnderTwo(c *C, d *D, n *Net) {
	c.mu.Lock()
	d.mu.Lock()
	_ = n.Send("x", nil) // want `RPC Send while holding 2 locks \(transport.C.mu, transport.D.mu\)`
	d.mu.Unlock()
	c.mu.Unlock()
}

// Transitive: the helper reaches the network, the caller holds two
// locks at the call.
func sendViaHelper(c *C, d *D, n *Net) {
	c.mu.Lock()
	d.mu.Lock()
	relay(n) // want `RPC .*relay while holding 2 locks`
	d.mu.Unlock()
	c.mu.Unlock()
}

func relay(n *Net) { _ = n.Send("y", nil) }

// RPC under a single lock is within policy: not flagged.
func sendUnderOne(c *C, n *Net) {
	c.mu.Lock()
	_ = n.Send("z", nil)
	c.mu.Unlock()
}

// Reviewed false positive: the send is double-locked only on a path a
// human verified cannot race the peer; the directive records the
// review. Without it this line would be a finding — the golden test
// proves the suppression works because no want comment matches here.
func sendUnderTwoReviewed(c *C, d *D, n *Net) {
	c.mu.Lock()
	d.mu.Lock()
	//vet:ignore lock-order — fixture: reviewed double-locked send
	_ = n.Send("w", nil)
	d.mu.Unlock()
	c.mu.Unlock()
}

// A misspelt analyzer name suppresses nothing, so the finding below
// still fires — and the directive itself is reported, because a
// suppression nobody can match is a typo, not a review.
func sendUnderTwoTypo(c *C, d *D, n *Net) {
	c.mu.Lock()
	d.mu.Lock()
	//vet:ignore lock-ordr — fixture: misspelt rule name // want `names "lock-ordr", which is no analyzer`
	_ = n.Send("v", nil) // want `RPC Send while holding 2 locks`
	d.mu.Unlock()
	c.mu.Unlock()
}

// E and F are taken in both orders, but E -> F exists only through a
// helper called from a for condition: an expression position, not a
// statement. The cycle is anchored at its earliest edge.
type E struct{ mu sync.Mutex }

type F struct{ mu sync.Mutex }

func lockFE(e *E, f *F) {
	f.mu.Lock()
	e.mu.Lock() // want `lock acquisition cycle among \{transport.E.mu, transport.F.mu\}`
	e.mu.Unlock()
	f.mu.Unlock()
}

func pollF(f *F) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return false
}

func spinUnderE(e *E, f *F) {
	e.mu.Lock()
	for pollF(f) {
	}
	e.mu.Unlock()
}

// An RPC evaluated in a select comm clause is still an RPC under the
// two locks held around the select.
func sendInSelect(c *C, d *D, n *Net) {
	c.mu.Lock()
	d.mu.Lock()
	select {
	case <-ready(n.Send("s", nil)): // want `RPC Send while holding 2 locks \(transport.C.mu, transport.D.mu\)`
	default:
	}
	d.mu.Unlock()
	c.mu.Unlock()
}

func ready(err error) chan struct{} { return nil }
