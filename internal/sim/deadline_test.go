package sim

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// firings records, in order, which deadline fired at what virtual time.
type firings struct {
	clock *VirtualClock
	log   []string
}

func (f *firings) entry(name string) *Deadline {
	d := new(Deadline)
	d.Init(func() { f.log = append(f.log, fmt.Sprintf("%s@%v", name, f.clock.Now().Sub(time.Unix(0, 0)))) })
	return d
}

func (f *firings) String() string { return strings.Join(f.log, " ") }

// TestDeadlinesFireInOrderAtExactTime: on a VirtualClock every entry
// fires at its exact time, in deadline order and ties in scheduling
// order, however they were scheduled, moved and cancelled.
func TestDeadlinesFireInOrderAtExactTime(t *testing.T) {
	clock := NewVirtualClock(time.Unix(0, 0))
	q := NewDeadlines(clock)
	f := &firings{clock: clock}
	a, b, c, d, e := f.entry("a"), f.entry("b"), f.entry("c"), f.entry("d"), f.entry("e")
	q.Schedule(c, 30*time.Millisecond)
	q.Schedule(a, 10*time.Millisecond)
	q.Schedule(b, 20*time.Millisecond)
	q.Schedule(d, 20*time.Millisecond) // ties with b, scheduled after it
	q.Schedule(e, 5*time.Millisecond)
	q.Schedule(e, 40*time.Millisecond)   // moved later
	q.ScheduleBy(c, 50*time.Millisecond) // c is due sooner: stays at 30 ms
	if !q.Cancel(a) || q.Cancel(a) {
		t.Fatal("Cancel of a queued entry must report true once")
	}
	clock.Advance(20*time.Millisecond - time.Nanosecond)
	if f.String() != "" {
		t.Fatalf("fired before their time: %s", f)
	}
	clock.Advance(time.Second)
	if want := "b@20ms d@20ms c@30ms e@40ms"; f.String() != want {
		t.Fatalf("fired %q, want %q", f, want)
	}
	if q.Queued(b) || q.Cancel(b) {
		t.Fatal("an entry that fired still counts as queued")
	}
}

// TestDeadlinesRearmPerDelayNotPerDeadline: a stream of constant-delay
// deadlines, each cancelled long before it is due, arms the clock timer
// at most twice per delay, not once per deadline; one that stays queued
// still fires on time.
func TestDeadlinesRearmPerDelayNotPerDeadline(t *testing.T) {
	clock := NewVirtualClock(time.Unix(0, 0))
	q := NewDeadlines(clock)
	const delay, step, n = 100 * time.Millisecond, time.Millisecond, 1000
	var d Deadline
	fired := 0
	d.Init(func() { fired++ })
	before := clock.Scheduled()
	for i := 0; i < n; i++ {
		q.Schedule(&d, delay)
		clock.Advance(step / 2)
		q.Cancel(&d)
		clock.Advance(step / 2)
	}
	armed := clock.Scheduled() - before
	if periods := uint64(n * step / delay); armed > 2*periods+1 {
		t.Errorf("%d deadlines %v apart armed %d timers, want at most %d (two per %v)", n, step, armed, 2*periods+1, delay)
	}
	if fired != 0 {
		t.Errorf("%d cancelled deadlines fired", fired)
	}
	q.Schedule(&d, delay)
	clock.Advance(delay)
	if fired != 1 {
		t.Errorf("a queued deadline fired %d times at its time, want 1", fired)
	}
}

// TestDeadlinesReplaceATimerFarTooEarly: a timer still pending for a
// deadline that was cancelled is replaced, not kept, when the next
// deadline is more than twice as far away — it would wake up to find
// nothing due, and re-arm then.
func TestDeadlinesReplaceATimerFarTooEarly(t *testing.T) {
	clock := NewVirtualClock(time.Unix(0, 0))
	q := NewDeadlines(clock)
	var short, long Deadline
	short.Init(func() {})
	long.Init(func() {})
	q.Schedule(&short, 100*time.Millisecond)
	q.Cancel(&short)
	before := clock.Scheduled()
	q.Schedule(&long, 30*time.Second)
	clock.Advance(30 * time.Second)
	if armed := clock.Scheduled() - before; armed != 1 {
		t.Errorf("%d timers armed for one deadline 30 s out, want 1", armed)
	}
	if clock.Pending() != 0 {
		t.Errorf("%d clock events still pending", clock.Pending())
	}
}

// TestDeadlinesStop: Stop drops every entry and the timer; what is
// scheduled afterwards never fires.
func TestDeadlinesStop(t *testing.T) {
	clock := NewVirtualClock(time.Unix(0, 0))
	q := NewDeadlines(clock)
	var d, late Deadline
	fired := 0
	d.Init(func() { fired++ })
	late.Init(func() { fired++ })
	q.Schedule(&d, time.Millisecond)
	q.Stop()
	q.Schedule(&late, time.Millisecond)
	clock.Advance(time.Second)
	if fired != 0 || q.Queued(&d) || q.Queued(&late) {
		t.Fatalf("%d firings after Stop", fired)
	}
}

// TestDeadlinesCancelRacesFire runs on the wall clock, under -race in
// verify.sh: goroutines schedule short deadlines and cancel them as
// they come due. Every scheduling fires at most once, a Cancel that
// reports true means it never fires, and the one that is let run fires.
func TestDeadlinesCancelRacesFire(t *testing.T) {
	q := NewDeadlines(WallClock{})
	defer q.Stop()
	const workers, rounds = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var d Deadline
			var fired atomic.Int32
			wake := make(chan struct{}, 1)
			d.Init(func() {
				fired.Add(1)
				wake <- struct{}{}
			})
			for r := 0; r < rounds; r++ {
				fired.Store(0)
				q.Schedule(&d, time.Duration(r%50)*time.Microsecond)
				time.Sleep(time.Duration(r%7) * 10 * time.Microsecond)
				if q.Cancel(&d) {
					if n := fired.Load(); n != 0 {
						t.Errorf("a deadline Cancel took off the queue fired %d times", n)
						return
					}
					continue
				}
				// Cancel came too late: the firing has begun, and ends.
				select {
				case <-wake:
				case <-time.After(5 * time.Second):
					t.Error("a deadline that was not cancelled never fired")
					return
				}
				if n := fired.Load(); n != 1 {
					t.Errorf("one scheduling fired %d times", n)
					return
				}
			}
			q.Schedule(&d, time.Millisecond)
			select {
			case <-wake:
			case <-time.After(5 * time.Second):
				t.Error("a deadline left queued never fired")
			}
		}()
	}
	wg.Wait()
}
