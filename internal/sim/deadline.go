package sim

import (
	"sync"
	"time"
)

// Deadlines is a queue of deadlines on one clock, driven by a single
// clock timer: a min-heap of entries that live in the state waiting on
// them, and one AfterFunc pending for the earliest. Scheduling an entry
// costs a heap operation, not a runtime timer. The timer is re-armed
// only when it fires, or when a deadline arrives that it would miss, or
// that finds the queue otherwise empty and the timer about to wake up
// far too early for it. Deadlines with a constant delay arrive in
// order, so a steady stream of them re-arms the timer once or twice per
// delay, however many are scheduled and cancelled meanwhile.
//
// On a VirtualClock every entry fires at its exact time, in deadline
// order, ties in scheduling order. Callbacks run with no lock held: on
// the clock's timer goroutine (the advancing goroutine on a
// VirtualClock), or on the caller's for FireIfDue.
type Deadlines struct {
	// dodo:unguarded — immutable after construction
	clock Clock

	mu sync.Mutex
	// dodo:guardedby mu
	heap []*Deadline
	// timer is pending for armedAt, or nil.
	// dodo:guardedby mu
	timer StopTimer
	// dodo:guardedby mu
	armedAt time.Time
	// gen numbers the arming of timer: a firing whose timer was
	// replaced after Stop came too late does nothing.
	// dodo:guardedby mu
	gen uint64
	// firing is set while a firing runs callbacks; it re-arms the timer
	// once at the end instead of every Schedule doing so meanwhile.
	// dodo:guardedby mu
	firing bool
	// dodo:guardedby mu
	seq uint64
	// dodo:guardedby mu
	stopped bool
}

// A Deadline is one entry of a Deadlines queue, embedded in the state
// that waits on it so that scheduling allocates nothing. Init it once
// with its callback; it belongs to one queue, where it is scheduled,
// moved and cancelled any number of times, and fires at most once per
// scheduling. Its fields belong to the queue's lock.
type Deadline struct {
	fire func()
	at   time.Time
	seq  uint64
	// idx is the entry's heap position plus one; zero when not queued.
	idx int
}

// Init sets the callback d runs when it fires.
func (d *Deadline) Init(fire func()) { d.fire = fire }

// NewDeadlines returns an empty queue on clock c.
func NewDeadlines(c Clock) *Deadlines { return &Deadlines{clock: c} }

// Schedule queues d to fire after the given delay, moving it if it is
// queued already.
func (q *Deadlines) Schedule(d *Deadline, after time.Duration) { q.schedule(d, after, false) }

// ScheduleBy is Schedule, except that a d already queued to fire sooner
// stays where it is.
func (q *Deadlines) ScheduleBy(d *Deadline, after time.Duration) { q.schedule(d, after, true) }

func (q *Deadlines) schedule(d *Deadline, after time.Duration, keepSooner bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.stopped {
		return
	}
	now := q.clock.Now()
	at := now.Add(after)
	if d.idx != 0 && keepSooner && !at.Before(d.at) {
		return
	}
	d.at, d.seq = at, q.seq
	q.seq++
	if d.idx == 0 {
		q.heap = append(q.heap, d)
		d.idx = len(q.heap)
		q.up(d.idx - 1)
	} else if !q.up(d.idx - 1) {
		q.down(d.idx - 1)
	}
	if q.heap[0] == d {
		q.armLocked(now, len(q.heap) == 1)
	}
}

// Cancel takes d off the queue and reports whether it was queued. A d
// that already fired, or whose firing has begun, is not.
func (q *Deadlines) Cancel(d *Deadline) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if d.idx == 0 {
		return false
	}
	q.removeLocked(d.idx - 1)
	return true
}

// Queued reports whether d is waiting to fire.
func (q *Deadlines) Queued(d *Deadline) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return d.idx != 0
}

// FireIfDue fires d on the caller's goroutine if it is queued and its
// time has come, and reports whether it did. A waiter about to block
// calls it so that a deadline already past acts before the block, not
// whenever the timer goroutine gets to it.
func (q *Deadlines) FireIfDue(d *Deadline) bool {
	q.mu.Lock()
	if d.idx == 0 || d.at.After(q.clock.Now()) {
		q.mu.Unlock()
		return false
	}
	q.removeLocked(d.idx - 1)
	q.mu.Unlock()
	d.fire()
	return true
}

// Stop cancels the timer and every queued entry; what is scheduled
// afterwards never fires.
func (q *Deadlines) Stop() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.stopped = true
	if q.timer != nil {
		q.timer.Stop()
		q.timer = nil
	}
	for _, d := range q.heap {
		d.idx = 0
	}
	q.heap = nil
}

// armLocked makes the timer fire at the head's time, or keeps the one
// pending when it fires by then: on waking it re-arms for whatever is
// the head then. When the head is alone in the queue the pending timer
// serves nothing else, and it is kept only if it fires no sooner than
// half-way to the head: one pending for a deadline long gone, a short
// one before a long one, is replaced rather than woken for. Caller
// holds q.mu.
func (q *Deadlines) armLocked(now time.Time, alone bool) {
	if q.firing || q.stopped || len(q.heap) == 0 {
		return
	}
	head := q.heap[0].at
	if q.timer != nil {
		if !q.armedAt.After(head) && (!alone || !q.armedAt.Before(now.Add(head.Sub(now)/2))) {
			return
		}
		q.timer.Stop()
	}
	q.gen++
	gen := q.gen
	q.armedAt = head
	q.timer = AfterFunc(q.clock, head.Sub(now), func() { q.run(gen) })
}

// run is the timer's callback: it fires every entry that is due, then
// re-arms for the new head.
func (q *Deadlines) run(gen uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if gen != q.gen || q.stopped {
		return
	}
	q.timer = nil
	q.firing = true
	now := q.clock.Now()
	for len(q.heap) > 0 && !q.heap[0].at.After(now) {
		d := q.heap[0]
		q.removeLocked(0)
		q.mu.Unlock()
		d.fire()
		q.mu.Lock()
	}
	q.firing = false
	q.armLocked(q.clock.Now(), false)
}

// removeLocked takes the entry at heap position i off the queue.
func (q *Deadlines) removeLocked(i int) {
	d := q.heap[i]
	last := len(q.heap) - 1
	if i != last {
		q.swap(i, last)
	}
	q.heap[last] = nil
	q.heap = q.heap[:last]
	d.idx = 0
	if i != last && !q.up(i) {
		q.down(i)
	}
}

func (q *Deadlines) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if a.at.Equal(b.at) {
		return a.seq < b.seq
	}
	return a.at.Before(b.at)
}

func (q *Deadlines) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].idx, q.heap[j].idx = i+1, j+1
}

// up sifts position i toward the root and reports whether it moved.
func (q *Deadlines) up(i int) bool {
	moved := false
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q.swap(i, p)
		i, moved = p, true
	}
	return moved
}

func (q *Deadlines) down(i int) {
	n := len(q.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			return
		}
		q.swap(i, m)
		i = m
	}
}
