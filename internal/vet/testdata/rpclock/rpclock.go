// Fixture for mutex-hygiene's rule against an RPC under two or more
// locks. Checked under the import path dodo/internal/transport so the
// local Send method counts as an RPC.
package transport

import "sync"

// Net stands in for a transport endpoint; its Send is recognized as an
// RPC because this fixture type-checks under internal/transport.
type Net struct{}

func (n *Net) Send(to string, data []byte) error { return nil }

// C and D are nested locks.
type C struct{ mu sync.Mutex }

type D struct{ mu sync.Mutex }

// Direct RPC under two held locks: flagged.
func sendUnderTwo(c *C, d *D, n *Net) {
	c.mu.Lock()
	d.mu.Lock()
	_ = n.Send("x", nil) // want `RPC Send while holding 2 locks`
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

// A helper launched on its own goroutine does not run under the
// caller's locks: not flagged.
func spawnUnderTwo(c *C, d *D, n *Net) {
	c.mu.Lock()
	d.mu.Lock()
	go relay(n)
	d.mu.Unlock()
	c.mu.Unlock()
}

// RPC under a single lock is within policy: not flagged.
func sendUnderOne(c *C, n *Net) {
	c.mu.Lock()
	_ = n.Send("z", nil)
	c.mu.Unlock()
}

// Reviewed false positive: the directive records the review. Without
// it this line would be a finding — the golden test proves the
// suppression works because no want comment matches here.
func sendUnderTwoReviewed(c *C, d *D, n *Net) {
	c.mu.Lock()
	d.mu.Lock()
	//vet:ignore mutex-hygiene — fixture: reviewed double-locked send
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
	//vet:ignore mutex-hygeine — fixture: misspelt rule name // want `names "mutex-hygeine", which is no analyzer`
	_ = n.Send("v", nil) // want `RPC Send while holding 2 locks`
	d.mu.Unlock()
	c.mu.Unlock()
}

// An RPC evaluated in a select comm clause is still an RPC under the
// two locks held around the select.
func sendInSelect(c *C, d *D, n *Net) {
	c.mu.Lock()
	d.mu.Lock()
	select {
	case <-ready(n.Send("s", nil)): // want `RPC Send while holding 2 locks`
	default:
	}
	d.mu.Unlock()
	c.mu.Unlock()
}

func ready(error) chan struct{} { return nil }

// A verb dodo-vet does not read is reported wherever it sits, a retired
// one too: read as prose, it would pass for a check nothing makes.
//
// dodo:acquires(fd) // want `unknown directive "dodo:acquires"`
func retiredVerb() {}
