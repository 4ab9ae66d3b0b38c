// Package sim provides the deterministic simulation substrate used by the
// trace-driven and virtual-time experiments: a virtual clock and a
// discrete-event queue.
//
// All daemon and client-runtime code is written against the small Clock
// interface so that the same code paths run in real time (WallClock) during
// live deployments and integration tests, and in virtual time
// (VirtualClock) during the deterministic benchmark harness that
// regenerates the paper's figures.
package sim

import (
	"sync"
	"time"
)

// Clock abstracts time for components that must run both live and under
// simulation. Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks the caller for d. On a virtual clock, Sleep only
	// returns once simulated time has advanced past the deadline.
	Sleep(d time.Duration)
}

// WallClock is the real-time clock. The zero value is ready to use.
type WallClock struct{}

// Now returns the current wall-clock time.
func (WallClock) Now() time.Time { return time.Now() }

// Sleep pauses the calling goroutine for d of real time.
func (WallClock) Sleep(d time.Duration) { time.Sleep(d) }

// VirtualClock is a manually advanced clock. Time moves only when Advance
// or Run is called, which makes every experiment using it fully
// deterministic and allows multi-hour workloads to complete in
// milliseconds.
//
// VirtualClock is also an event queue: callbacks scheduled with After fire,
// in timestamp order, as the clock passes their deadline. Ties are broken
// by scheduling order so runs are reproducible.
type VirtualClock struct {
	mu sync.Mutex
	// dodo:guardedby mu
	now time.Time
	// dodo:guardedby mu
	heap eventHeap
	// dodo:guardedby mu
	seq uint64
}

// NewVirtualClock returns a virtual clock positioned at start.
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

// Now returns the current virtual time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep advances virtual time by d. Unlike a real clock it never blocks:
// the single-threaded simulation driver owns time, so sleeping *is*
// advancing. Events scheduled in the skipped interval fire in order.
func (c *VirtualClock) Sleep(d time.Duration) { c.Advance(d) }

// After schedules fn to run when the clock reaches now+d. It returns a
// Timer that can cancel the callback. fn runs on the goroutine that
// advances the clock, with no locks held.
func (c *VirtualClock) After(d time.Duration, fn func()) *Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d < 0 {
		d = 0
	}
	ev := &event{at: c.now.Add(d), seq: c.seq, fn: fn}
	c.seq++
	c.heap.push(ev)
	return &Timer{clock: c, ev: ev}
}

// Advance moves virtual time forward by d, firing every event whose
// deadline falls within the interval, in deadline order.
func (c *VirtualClock) Advance(d time.Duration) {
	if d < 0 {
		return
	}
	c.mu.Lock()
	deadline := c.now.Add(d)
	for {
		ev := c.heap.peek()
		if ev == nil || ev.at.After(deadline) {
			break
		}
		c.heap.pop()
		if ev.cancelled {
			continue
		}
		c.now = ev.at
		c.mu.Unlock()
		ev.fn()
		c.mu.Lock()
	}
	if c.now.Before(deadline) {
		c.now = deadline
	}
	c.mu.Unlock()
}

// RunUntilIdle fires all pending events in order, advancing time to each
// event's deadline, until the queue is empty. It returns the number of
// events fired.
func (c *VirtualClock) RunUntilIdle() int {
	fired := 0
	for {
		c.mu.Lock()
		ev := c.heap.pop()
		if ev == nil {
			c.mu.Unlock()
			return fired
		}
		if ev.cancelled {
			c.mu.Unlock()
			continue
		}
		c.now = ev.at
		c.mu.Unlock()
		ev.fn()
		fired++
	}
}

// Pending reports the number of scheduled, uncancelled events.
func (c *VirtualClock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ev := range c.heap.events {
		if !ev.cancelled {
			n++
		}
	}
	return n
}

// Scheduled reports how many events have ever been scheduled on the
// clock, fired and cancelled ones included: the difference across an
// interval is the number of timers armed in it.
func (c *VirtualClock) Scheduled() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seq
}

// Timer is a handle to a scheduled callback on a VirtualClock.
type Timer struct {
	clock *VirtualClock
	ev    *event
}

// Stop cancels the callback if it has not fired yet. It reports whether
// the cancellation happened before the event fired.
func (t *Timer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.ev.fired || t.ev.cancelled {
		return false
	}
	t.ev.cancelled = true
	return true
}

type event struct {
	at        time.Time
	seq       uint64
	fn        func()
	cancelled bool
	fired     bool
}

// eventHeap is a binary min-heap ordered by (at, seq).
type eventHeap struct {
	events []*event
}

func (h *eventHeap) less(i, j int) bool {
	a, b := h.events[i], h.events[j]
	if a.at.Equal(b.at) {
		return a.seq < b.seq
	}
	return a.at.Before(b.at)
}

func (h *eventHeap) push(ev *event) {
	h.events = append(h.events, ev)
	i := len(h.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.events[i], h.events[parent] = h.events[parent], h.events[i]
		i = parent
	}
}

func (h *eventHeap) peek() *event {
	// Skip over cancelled events at the top so deadline checks see the
	// next live event.
	for len(h.events) > 0 && h.events[0].cancelled {
		h.pop()
	}
	if len(h.events) == 0 {
		return nil
	}
	return h.events[0]
}

func (h *eventHeap) pop() *event {
	if len(h.events) == 0 {
		return nil
	}
	top := h.events[0]
	last := len(h.events) - 1
	h.events[0] = h.events[last]
	h.events = h.events[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.events) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.events) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.events[i], h.events[smallest] = h.events[smallest], h.events[i]
		i = smallest
	}
	top.fired = true
	return top
}

// SleepInterruptible sleeps for d on the given clock, waking early when
// stop closes. It reports whether the full duration elapsed (false when
// interrupted). Long sleeps are taken in small chunks so daemon loops
// shut down promptly regardless of their configured interval.
func SleepInterruptible(c Clock, d time.Duration, stop <-chan struct{}) bool {
	const chunk = 200 * time.Millisecond
	deadline := c.Now().Add(d)
	for {
		select {
		case <-stop:
			return false
		default:
		}
		now := c.Now()
		if !now.Before(deadline) {
			return true
		}
		rem := deadline.Sub(now)
		if rem > chunk {
			rem = chunk
		}
		c.Sleep(rem)
	}
}
