package sim

import (
	"sync"
	"time"
)

// StopTimer is the cancellation handle shared by wall-clock and
// virtual-clock timers. Stop reports whether the timer was cancelled
// before it fired.
type StopTimer interface {
	Stop() bool
}

type wallTimer struct{ t *time.Timer }

func (w wallTimer) Stop() bool { return w.t.Stop() }

// AfterFunc schedules fn to run once clock c passes now+d and returns a
// handle that can cancel it. On a VirtualClock the callback fires
// deterministically, in deadline order, on the goroutine advancing the
// clock; on any other clock it falls back to time.AfterFunc.
func AfterFunc(c Clock, d time.Duration, fn func()) StopTimer {
	if vc, ok := c.(*VirtualClock); ok {
		return vc.After(d, fn)
	}
	return wallTimer{time.AfterFunc(d, fn)}
}

// NewTimer returns a channel that delivers the clock's time once, at
// now+d, together with a stop handle. The channel has capacity 1, so
// the firing never blocks the clock.
func NewTimer(c Clock, d time.Duration) (<-chan time.Time, StopTimer) {
	if vc, ok := c.(*VirtualClock); ok {
		ch := make(chan time.Time, 1)
		t := vc.After(d, func() { ch <- vc.Now() })
		return ch, t
	}
	t := time.NewTimer(d)
	return t.C, wallTimer{t}
}

// Tick returns a channel delivering the clock's time every interval
// until stop closes. Unlike time.Tick nothing leaks: the wall-clock
// goroutine exits on stop, and on a VirtualClock the chain of events
// ends once stop is observed. Ticks are dropped, not queued, when the
// consumer lags.
func Tick(c Clock, interval time.Duration, stop <-chan struct{}) <-chan time.Time {
	ch := make(chan time.Time, 1)
	if vc, ok := c.(*VirtualClock); ok {
		var schedule func()
		schedule = func() {
			vc.After(interval, func() {
				select {
				case <-stop:
					return
				default:
				}
				select {
				case ch <- vc.Now():
				default:
				}
				schedule()
			})
		}
		schedule()
		return ch
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				select {
				case ch <- now:
				default:
				}
			}
		}
	}()
	return ch
}

// CondWaitTimeout waits on cond until ready() reports true or timeout
// expires, and reports whether ready became true. The caller must hold
// cond.L, and still holds it when CondWaitTimeout returns. Producers
// must Signal or Broadcast cond when the condition may have changed.
//
// With timeout <= 0 it degenerates to a plain cond.Wait loop. With a
// positive timeout, a one-shot timer broadcasts the cond at the
// deadline, so waiters wake the instant a producer signals rather than
// on a polling tick — the receive path of the usocket transport sits
// under every RPC round trip, and polling here puts a
// floor under the whole system's latency. ready is consulted before
// the timer is armed: a receive from a non-empty queue (every frame of
// a blast but the first) costs no timer and no allocation.
func CondWaitTimeout(cond *sync.Cond, timeout time.Duration, ready func() bool) bool {
	if ready() {
		return true
	}
	if timeout <= 0 {
		for !ready() {
			cond.Wait()
		}
		return true
	}
	expired := false
	timer := time.AfterFunc(timeout, func() {
		// Take the lock so the flag flip cannot slip between a waiter's
		// ready/expired check and its cond.Wait (a lost wakeup).
		cond.L.Lock()
		expired = true
		cond.L.Unlock()
		cond.Broadcast()
	})
	defer timer.Stop()
	for !ready() {
		if expired {
			return false
		}
		cond.Wait()
	}
	return true
}
