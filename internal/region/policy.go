// Package region implements libmanage, the coarse-grain
// region-management library layered on top of the Dodo runtime (§3.3,
// §4.5). It manages a local cache of memory regions, tracks access
// patterns, and migrates regions between four states — cached locally,
// cached remotely, cached both, or on disk only — using one of four
// replacement policies and the grimReaper reclamation procedure of
// Figure 5.
package region

import "fmt"

// Policy is a replacement policy: a row of two decisions over the
// cache's recency list of resident regions, which stand for §4.5's
// state-management procedure (does an access move the region to the
// back?) and reclamation procedure (which end gives the victim?). The
// zero value is LRU, the library's default (§3.3).
type Policy uint8

// LRU evicts the least recently used region. MRU evicts the most
// recently used, the right policy for large cyclic scans. FIFO evicts in
// insertion order, isolating the value of LRU's recency tracking in the
// policy ablation. FirstIn never replaces a region once cached (§4.5):
// ideal for applications that scan their whole dataset repeatedly, per
// Uysal et al.'s observation that most data-intensive applications are
// sequential- or triangle-scan.
const (
	LRU Policy = iota
	MRU
	FIFO
	FirstIn
)

// listEnd names an end of the recency list, or neither.
type listEnd uint8

const (
	endNone listEnd = iota
	endFront
	endBack
)

// policies is the table of rows, indexed by Policy.
var policies = [...]struct {
	name   string
	touch  bool    // a hit or a local write moves the region to the back
	victim listEnd // where the next eviction comes from
}{
	LRU:     {"lru", true, endFront},
	MRU:     {"mru", true, endBack},
	FIFO:    {"fifo", false, endFront},
	FirstIn: {"first-in", false, endNone},
}

// Name identifies the policy ("lru", "mru", "fifo", "first-in").
func (p Policy) Name() string { return policies[p].name }

// NewPolicy returns the named policy.
func NewPolicy(name string) (Policy, error) {
	for p, row := range policies {
		if row.name == name {
			return Policy(p), nil
		}
	}
	return LRU, fmt.Errorf("region: unknown policy %q", name)
}

// The recency list runs through cregion.prev/next from c.front
// (installed or touched longest ago) to c.back, and a region is on it
// iff its local is non-nil. Callers of these helpers hold c.mu.

// linkLocked puts r, just given its local copy, at the back of the list.
func (c *Cache) linkLocked(r *cregion) {
	r.prev, r.next = c.back, nil
	if c.back != nil {
		c.back.next = r
	} else {
		c.front = r
	}
	c.back = r
}

// unlinkLocked takes r, whose local copy is going, off the list.
func (c *Cache) unlinkLocked(r *cregion) {
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		c.front = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		c.back = r.prev
	}
	r.prev, r.next = nil, nil
}

// touchLocked records a hit on, or a local write to, resident r.
func (c *Cache) touchLocked(r *cregion) {
	if policies[c.policy].touch {
		c.unlinkLocked(r)
		c.linkLocked(r)
	}
}

// victimLocked returns the region to evict next, or nil when nothing is
// resident or the policy refuses (first-in's "once cached, never
// replaced").
func (c *Cache) victimLocked() *cregion {
	switch policies[c.policy].victim {
	case endFront:
		return c.front
	case endBack:
		return c.back
	}
	return nil
}
