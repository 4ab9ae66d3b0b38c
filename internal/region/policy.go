// Package region implements libmanage, the coarse-grain
// region-management library layered on top of the Dodo runtime (§3.3,
// §4.5). It manages a local cache of memory regions, tracks access
// patterns, and migrates regions between four states — cached locally,
// cached remotely, cached both, or on disk only — using one of four
// replacement policies and the grimReaper reclamation procedure of
// Figure 5.
package region

import (
	"fmt"
	"sync/atomic"
)

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
// iff its local is non-nil. Callers of the *Locked helpers hold c.mu.
//
// A hit does not take c.mu to move its region to the back: it appends
// the region to the touch log (logTouch), and the lock applies the
// log's entries in order (drainLocked) before anything that reads or
// extends the list's order — a victim choice, a link, a touch under the
// lock, a policy switch — and whenever a hit finds the log half full.
// So the list orders every region by its last touch exactly as if each
// hit had moved it, and any sequence of calls from one goroutine picks
// the victims it would pick that way (TestTouchLogKeepsVictims). This
// is BP-Wrapper's batching (Ding, Jiang and Zhang, ICDE 2009).

// touchLogSize is the number of entries the touch log holds; a power of
// two.
const touchLogSize = 1024

// touchLog is a bounded queue of the regions hits have touched: many
// hits append to it without a lock, and c.mu's holder consumes it. Its
// cursors count entries from the cache's start; the entry at index i
// lives in slots[slotOf(i)], and its lap is i/touchLogSize. The padding
// keeps tail, which every logging hit writes, off the lines that head
// and the Cache's other fields are read from.
type touchLog struct {
	_ [64]byte
	// tail is the index of the next entry to reserve. As every entry is
	// a hit's, it also counts those hits (Stats).
	tail atomic.Uint64
	_    [56]byte
	// head is the index of the next entry to apply; only c.mu's
	// holder moves it.
	head atomic.Uint64
	// unlogged counts the local hits that made no entry: under FIFO
	// and first-in, or with the log full. Stats adds tail to it.
	unlogged atomic.Int64
	_        [48]byte
	// slots hold the entries from head to tail, each as the region's
	// tag for the entry's lap parity (touchTag). Applying an entry
	// leaves its slot as it is: a slot that is nil, or whose tag has
	// the other parity, still holds no entry or the last lap's, so its
	// hit has reserved the entry and not stored it yet.
	slots [touchLogSize]atomic.Pointer[touchTag]
}

// slotOf returns the slot of the entry at index i. Consecutive entries
// go to slots a cache line or more apart, so two hits logging at once
// seldom write one line; the eight entries of a line are eight apart.
func slotOf(i uint64) uint64 {
	const lines = touchLogSize / 8
	return i%8*lines + i/8%lines
}

// touchTag is what a touch log entry stores for a region: one of the
// region's two tags, picked by the entry's lap parity. The entry in a
// slot is never two laps old (the drain stops at a slot not stored in
// the lap before), so the parity tells this lap's entry from the last.
type touchTag struct {
	r *cregion
}

// tag returns r's tag for the entry at index i.
func (r *cregion) tag(i uint64) *touchTag {
	return &r.tags[i/touchLogSize%2]
}

// logTouch records a hit on r for the recency list, when the policy's
// row moves a touched region, and reports whether r went into the log.
// It reserves the tail entry, if the log has room, and stores r there;
// taking c.mu only when it has just filled half the log, to apply it,
// or when the log is full, to apply it and then move r itself. Called
// without c.mu.
//
// On a full log the drain applies the stored entries first, so the
// direct move keeps the order, unless some hit has reserved an entry
// and not stored it yet: the drain stops there, and the move lands
// ahead of the entries logged behind it. Only concurrent hits get there,
// and only their order bends; with one goroutine every entry is stored
// before its next call.
func (c *Cache) logTouch(r *cregion) bool {
	if !c.touching.Load() {
		return false
	}
	l := &c.touches
	for {
		// head first: it never passes tail, so used cannot underflow.
		head := l.head.Load()
		tail := l.tail.Load()
		used := tail - head
		if used >= touchLogSize {
			c.mu.Lock()
			c.touchLocked(r)
			c.mu.Unlock()
			return false
		}
		if !l.tail.CompareAndSwap(tail, tail+1) {
			continue // another hit took the entry: try the next one
		}
		// head > tail-touchLogSize: the last lap's entry in the slot
		// has been applied.
		l.slots[slotOf(tail)].Store(r.tag(tail))
		if used+1 == touchLogSize/2 {
			c.mu.Lock()
			c.drainLocked()
			c.mu.Unlock()
		}
		return true
	}
}

// drainLocked applies the touch log's entries in order, up to the
// first entry reserved but not stored yet: that hit has not returned,
// so what it and the entries behind it do to the order is left to the
// next drain. An entry for a region evicted or closed since is skipped.
func (c *Cache) drainLocked() {
	l := &c.touches
	head := l.head.Load()
	for tail := l.tail.Load(); head != tail; head++ {
		t := l.slots[slotOf(head)].Load()
		if t == nil || t != t.r.tag(head) {
			break
		}
		c.moveBackLocked(t.r)
	}
	l.head.Store(head)
}

// linkLocked puts r, just given its local copy, at the back of the list.
func (c *Cache) linkLocked(r *cregion) {
	c.drainLocked()
	c.pushBackLocked(r)
}

// pushBackLocked appends r, not on the list, at the back.
func (c *Cache) pushBackLocked(r *cregion) {
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

// touchLocked records a local write to resident r, or a hit the touch
// log had no room for, after the hits logged before it.
func (c *Cache) touchLocked(r *cregion) {
	c.drainLocked()
	c.moveBackLocked(r)
}

// moveBackLocked moves r to the back of the list if the policy's row
// moves a touched region and r is still resident.
func (c *Cache) moveBackLocked(r *cregion) {
	if policies[c.policy].touch && r.local != nil && r != c.back {
		c.unlinkLocked(r)
		c.pushBackLocked(r)
	}
}

// victimLocked returns the region to evict next, or nil when nothing is
// resident or the policy refuses (first-in's "once cached, never
// replaced").
func (c *Cache) victimLocked() *cregion {
	c.drainLocked()
	switch policies[c.policy].victim {
	case endFront:
		return c.front
	case endBack:
		return c.back
	}
	return nil
}
