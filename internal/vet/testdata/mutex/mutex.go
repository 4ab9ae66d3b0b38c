// Fixture for the mutex-hygiene analyzer (channel sends under a held
// mutex) and go vet's copylocks (copies of locks, see TestCopylocks).
package fixture

import "sync"

type counter struct {
	mu sync.Mutex
	n  int
}

// nested embeds a mutex two levels down; the copy rules must see it.
type nested struct {
	inner counter
	tag   string
}

type rwguard struct {
	mu sync.RWMutex
	m  map[string]int
}

func (c counter) IncByValue() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) Inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (g *rwguard) get(k string) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.m[k]
}

func byValueParam(c counter) int {
	return c.n
}

func byPointerParam(c *counter) int { return c.n }

func copies(c *counter, list []nested) {
	snapshot := *c
	_ = &snapshot
	var n nested
	m := n
	_ = &m
	first := list[0]
	_ = &first
	for _, item := range list {
		_ = item.tag
	}
}

func creations() {
	fresh := counter{}
	_ = &fresh
	ptr := &counter{}
	other := ptr // copying the pointer is fine
	_ = other
	for i := range make([]nested, 3) {
		_ = i
	}
}

func sendUnderLock(c *counter, ch chan int) {
	c.mu.Lock()
	ch <- c.n // want `channel send while holding a mutex`
	c.mu.Unlock()
}

func sendUnderDeferredUnlock(c *counter, ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch <- c.n // want `channel send while holding a mutex`
}

func sendUnderRLock(g *rwguard, ch chan int) {
	g.mu.RLock()
	select {
	case ch <- len(g.m): // want `channel send while holding a mutex`
	default:
	}
	g.mu.RUnlock()
}

func sendAfterEarlyReturnUnlock(c *counter, ch chan int) bool {
	c.mu.Lock()
	if c.n == 0 {
		c.mu.Unlock()
		return false
	}
	ch <- c.n // want `channel send while holding a mutex`
	c.mu.Unlock()
	return true
}

func sendAfterUnlock(c *counter, ch chan int) {
	c.mu.Lock()
	n := c.n
	c.mu.Unlock()
	ch <- n
}

func sendOutsideAnyLock(ch chan int) {
	ch <- 1
}

func sendInGoroutineAfterSnapshot(c *counter, ch chan int) {
	c.mu.Lock()
	n := c.n
	c.mu.Unlock()
	go func() { ch <- n }()
}
