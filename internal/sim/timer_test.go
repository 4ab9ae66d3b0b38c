package sim

import (
	"sync"
	"testing"
	"time"
)

func TestAfterFuncVirtual(t *testing.T) {
	vc := NewVirtualClock(time.Unix(0, 0))
	fired := 0
	AfterFunc(vc, 5*time.Second, func() { fired++ })
	vc.Advance(4 * time.Second)
	if fired != 0 {
		t.Fatalf("fired %d times before deadline", fired)
	}
	vc.Advance(2 * time.Second)
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
}

func TestAfterFuncVirtualStop(t *testing.T) {
	vc := NewVirtualClock(time.Unix(0, 0))
	fired := false
	timer := AfterFunc(vc, time.Second, func() { fired = true })
	if !timer.Stop() {
		t.Fatal("Stop before firing reported false")
	}
	vc.Advance(2 * time.Second)
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if timer.Stop() {
		t.Fatal("second Stop reported true")
	}
}

func TestAfterFuncWall(t *testing.T) {
	done := make(chan struct{})
	AfterFunc(WallClock{}, time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("wall-clock AfterFunc never fired")
	}
}

func TestTickVirtual(t *testing.T) {
	vc := NewVirtualClock(time.Unix(0, 0))
	stop := make(chan struct{})
	ch := Tick(vc, time.Second, stop)
	ticks := 0
	for i := 0; i < 3; i++ {
		vc.Advance(time.Second)
		select {
		case <-ch:
			ticks++
		default:
			t.Fatalf("no tick after advance %d", i+1)
		}
	}
	close(stop)
	vc.Advance(10 * time.Second)
	if vc.Pending() != 0 {
		t.Fatalf("%d events still pending after stop", vc.Pending())
	}
	if ticks != 3 {
		t.Fatalf("got %d ticks, want 3", ticks)
	}
}

func TestTickWallStops(t *testing.T) {
	stop := make(chan struct{})
	ch := Tick(WallClock{}, time.Millisecond, stop)
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("wall-clock tick never arrived")
	}
	close(stop)
}

func TestCondWaitTimeoutReady(t *testing.T) {
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	ready := false
	go func() {
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		ready = true
		cond.Broadcast()
		mu.Unlock()
	}()
	mu.Lock()
	ok := CondWaitTimeout(cond, time.Second, func() bool { return ready })
	mu.Unlock()
	if !ok {
		t.Fatal("CondWaitTimeout timed out despite ready")
	}
}

func TestCondWaitTimeoutExpires(t *testing.T) {
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	mu.Lock()
	start := time.Now()
	ok := CondWaitTimeout(cond, 10*time.Millisecond, func() bool { return false })
	mu.Unlock()
	if ok {
		t.Fatal("CondWaitTimeout reported ready on a never-ready condition")
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("returned after %v, before the timeout", elapsed)
	}
}

func TestCondWaitTimeoutBlocking(t *testing.T) {
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	ready := false
	done := make(chan struct{})
	go func() {
		mu.Lock()
		CondWaitTimeout(cond, 0, func() bool { return ready })
		mu.Unlock()
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	mu.Lock()
	ready = true
	cond.Broadcast()
	mu.Unlock()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("blocking CondWaitTimeout never woke")
	}
}

// TestCondWaitTimeoutReadyArmsNothing: when the condition already holds
// — a receive from a non-empty queue — the wait returns without arming
// its timer, so it allocates nothing (the timer, its closure and the
// flag they share were three allocations per received frame).
func TestCondWaitTimeoutReadyArmsNothing(t *testing.T) {
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	queued := 1
	mu.Lock()
	defer mu.Unlock()
	if n := testing.AllocsPerRun(1000, func() {
		if !CondWaitTimeout(cond, time.Second, func() bool { return queued > 0 }) {
			t.Fatal("CondWaitTimeout timed out on a ready condition")
		}
	}); n != 0 {
		t.Errorf("CondWaitTimeout with ready() already true allocates %.1f times, want 0", n)
	}
}
