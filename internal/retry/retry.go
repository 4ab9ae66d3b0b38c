// Package retry provides the unified per-operation retry budget shared
// by the client runtime, the bulk transfer layer and recovery loops.
//
// Before this package each layer carried its own ad-hoc knobs
// (CallTimeout x CallRetries, WindowTimeout x TransferRetries, a
// hand-rolled doubling RecoveryBackoff). A Budget replaces all of them
// with one model: an operation owns a stall deadline, and between
// attempts it waits a capped-exponential, optionally jittered delay.
// Progress (bytes acknowledged, a NACK naming missing packets) resets
// the deadline — only a *stall* consumes budget, retransmission work
// that is visibly advancing does not.
//
// Time comes from an injected sim.Clock and jitter from an injected
// seeded *rand.Rand, so seeded runs produce identical retry schedules
// (the clock-discipline and seeded-rand analyzers enforce this).
package retry

import (
	"math/rand"
	"time"

	"dodo/internal/sim"
)

// Policy describes the retry budget for one class of operation.
type Policy struct {
	// Deadline bounds the total stall time across attempts. Once the
	// clock has advanced Deadline past the budget's start (or last
	// Reset), Next returns false. Zero means unbounded.
	Deadline time.Duration
	// Base is the first inter-attempt delay.
	Base time.Duration
	// Cap bounds a single delay after exponential growth. Zero means
	// no cap short of the deadline itself.
	Cap time.Duration
	// Factor is the per-attempt growth multiplier. Values below 1 are
	// treated as 1 (constant delay).
	Factor float64
	// Jitter randomizes each delay by a fraction in [1-Jitter, 1+Jitter)
	// to decorrelate retry storms. Zero disables jitter; values are
	// clamped to [0, 1).
	Jitter float64
}

// Budget tracks one operation's consumption of a Policy. Not
// goroutine-safe: a budget belongs to the single goroutine driving the
// operation, which keeps it by value (on its stack, or in the state of
// the operation).
type Budget struct {
	p        Policy
	clock    sim.Clock
	rng      *rand.Rand
	start    time.Time
	next     time.Duration
	attempts int
}

// New creates a budget for one operation. rng may be nil when
// p.Jitter is zero.
func New(p Policy, clock sim.Clock, rng *rand.Rand) Budget {
	if p.Factor < 1 {
		p.Factor = 1
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter >= 1 {
		p.Jitter = 0.999
	}
	return Budget{p: p, clock: clock, rng: rng, start: clock.Now(), next: p.Base}
}

// Next returns the delay to wait before the next attempt, or false if
// the budget is exhausted (the deadline elapsed with no progress).
// The first call returns Base; subsequent calls grow it by Factor up
// to Cap. Delays never extend past the deadline: the last delay is
// truncated so the caller's total stall is exactly Deadline.
func (b *Budget) Next() (time.Duration, bool) {
	var elapsed time.Duration
	if b.p.Deadline > 0 {
		elapsed = b.clock.Now().Sub(b.start)
		if elapsed >= b.p.Deadline {
			return 0, false
		}
	}
	d := b.next
	if b.p.Jitter > 0 && b.rng != nil {
		d = time.Duration(float64(d) * (1 + b.p.Jitter*(2*b.rng.Float64()-1)))
		if d < 0 {
			d = 0
		}
	}
	if b.p.Deadline > 0 {
		if rem := b.p.Deadline - elapsed; d > rem {
			d = rem
		}
	}
	grown := time.Duration(float64(b.next) * b.p.Factor)
	if b.p.Cap > 0 && grown > b.p.Cap {
		grown = b.p.Cap
	}
	b.next = grown
	b.attempts++
	return d, true
}

// Reset restarts the budget after observed progress: the deadline
// window reopens and the backoff returns to Base. A transfer that is
// retransmitting productively (each NACK names fewer packets) calls
// Reset per window so only a genuine stall can exhaust it.
func (b *Budget) Reset() {
	b.start = b.clock.Now()
	b.next = b.p.Base
}

// Attempts returns how many delays Next has handed out.
func (b *Budget) Attempts() int { return b.attempts }
