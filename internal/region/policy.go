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
	"math/bits"
	"sync/atomic"
)

// Policy is a replacement policy: a row of two decisions over the
// stamps of the resident regions, which stand for §4.5's
// state-management procedure (does an access restamp the region?) and
// reclamation procedure (which stamp gives the victim?). The zero value
// is LRU, the library's default (§3.3).
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

// pick names the stamp a policy takes its victim by, or none.
type pick uint8

const (
	pickNone pick = iota
	pickOldest
	pickNewest
)

// policies is the table of rows, indexed by Policy.
var policies = [...]struct {
	name   string
	touch  bool // a hit or a local write restamps the region
	victim pick // which stamp gives the next eviction
}{
	LRU:     {"lru", true, pickOldest},
	MRU:     {"mru", true, pickNewest},
	FIFO:    {"fifo", false, pickOldest},
	FirstIn: {"first-in", false, pickNone},
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

// Every resident region carries a stamp, a tick of the cache's logical
// clock: its install, or its last touch when the policy's row restamps
// on one. A hit stamps without c.mu; an install or a local write stamps
// under it. No two stamps are equal, and a victim choice compares them
// in place, as Ditto keeps access information with each object and
// samples for a victim. The resident set is a dense slice, each region
// holding its index in it. Callers of the *Locked helpers hold c.mu.

// victimSample is how many residents a victim choice compares: all of
// them when there are at most this many, so the victim is exact, and
// otherwise this many drawn at random.
const victimSample = 32

// clock is the cache's logical clock, padded onto a cache line of its
// own: every hit adds to it, and nothing else a hit reads shares its
// line.
type clock struct {
	_ [64]byte
	// now is the last stamp handed out. As every hit takes one, it also
	// counts those hits (Stats).
	now atomic.Uint64
	_   [56]byte
}

// stampLocked gives r, resident, the clock's next tick, and counts the
// tick as not a hit's.
func (c *Cache) stampLocked(r *cregion) {
	r.stamp.Store(c.clock.now.Add(1))
	c.lockStamps++
}

// unlinkLocked takes r, whose local copy is going, out of the resident
// set, moving the last resident into its place.
func (c *Cache) unlinkLocked(r *cregion) {
	last := c.resident[len(c.resident)-1]
	c.resident[r.resident] = last
	last.resident = r.resident
	c.resident[len(c.resident)-1] = nil
	c.resident = c.resident[:len(c.resident)-1]
}

// victimLocked returns the region to evict next, or nil when nothing is
// resident or the policy refuses (first-in's "once cached, never
// replaced"): the oldest or newest stamp among every resident, or among
// victimSample of them drawn at random when more are resident. The
// draws come first, so the sample's stamps, seldom in the CPU's cache,
// load together.
func (c *Cache) victimLocked() *cregion {
	row := policies[c.policy]
	n := len(c.resident)
	if row.victim == pickNone || n == 0 {
		return nil
	}
	sample := c.resident
	if n > victimSample {
		var drawn [victimSample]*cregion
		for k := range drawn {
			// xorshift64, then Lemire's reduction to [0, n).
			c.rand ^= c.rand << 13
			c.rand ^= c.rand >> 7
			c.rand ^= c.rand << 17
			i, _ := bits.Mul64(c.rand, uint64(n))
			drawn[k] = c.resident[i]
		}
		sample = drawn[:]
	}
	var victim *cregion
	var best uint64
	for _, r := range sample {
		s := r.stamp.Load()
		if row.victim == pickNewest {
			s = ^s
		}
		if victim == nil || s < best {
			victim, best = r, s
		}
	}
	return victim
}
