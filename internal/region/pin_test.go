package region

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"dodo/internal/core"
	"dodo/internal/locks"
)

// A local hit copies a region's bytes with c.mu released, under a pin
// (pinLocked, unpin). These tests hold the two writers of a region's
// buffer to waiting for its pins: Cwrite's local path, and a fill that
// takes an evicted region's buffer as its slot.

// TestHitCopyNeverSeesSlotReuse: in a cache of two slots over sixteen
// regions, every miss evicts a region and fills into its buffer while
// other readers may still be copying out of it. Each read must return
// its own region's bytes; run it under -race.
func TestHitCopyNeverSeesSlotReuse(t *testing.T) {
	const (
		n       = 32 << 10
		regions = 16
		readers = 4
	)
	reads := 2000
	if testing.Short() {
		reads = 200
	}
	fake := newBenchDodo(1<<30, 0)
	back := core.NewMemBacking(1, regions*n)
	c := NewCache(fake, Config{Capacity: 2 * n, Policy: NewLRU(), PromoteOnAccess: true})
	fds := make([]int, regions)
	for i := range fds {
		if _, err := back.WriteAt(bytes.Repeat([]byte{byte(i + 1)}, n), int64(i)*n); err != nil {
			t.Fatal(err)
		}
		fd, err := c.Copen(n, back, int64(i)*n)
		if err != nil {
			t.Fatal(err)
		}
		fds[i] = fd
	}
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			buf := make([]byte, n)
			for k := 0; k < reads; k++ {
				// Three reads in four go to two hot regions, which hit
				// while the rest miss and evict around them.
				i := rng.Intn(2)
				if rng.Intn(4) == 0 {
					i = rng.Intn(regions)
				}
				if _, err := c.Cread(fds[i], 0, buf); err != nil {
					t.Error(err)
					return
				}
				if j := firstOther(buf, byte(i+1)); j >= 0 {
					t.Errorf("region %d byte %d reads 0x%02x, want 0x%02x", i, j, buf[j], i+1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s := c.Stats(); s.LocalHits == 0 || s.Evictions == 0 {
		t.Fatalf("%d hits and %d evictions: the readers did not mix hits with slot reuse", s.LocalHits, s.Evictions)
	}
}

// TestHitCopyNeverSeesTornWrite: readers hit one resident region while
// a writer rewrites all of it with one byte value after another. A read
// must see one write's bytes, never parts of two.
func TestHitCopyNeverSeesTornWrite(t *testing.T) {
	const (
		n       = 32 << 10
		readers = 3
	)
	writes := 500
	if testing.Short() {
		writes = 50
	}
	c := NewCache(newBenchDodo(1<<30, 0), Config{Capacity: n, Policy: NewLRU(), PromoteOnAccess: true})
	fd := resident(t, c, 1, n, 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, n)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Cread(fd, 0, buf); err != nil {
					t.Error(err)
					return
				}
				if j := firstOther(buf, buf[0]); j >= 0 {
					t.Errorf("a read is torn: byte 0 is 0x%02x, byte %d 0x%02x", buf[0], j, buf[j])
					return
				}
			}
		}()
	}
	pattern := make([]byte, n)
	for k := 1; k <= writes; k++ {
		for i := range pattern {
			pattern[i] = byte(k)
		}
		if _, err := c.Cwrite(fd, 0, pattern); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// firstOther returns the index of the first byte of buf that is not b,
// or -1.
func firstOther(buf []byte, b byte) int {
	for i, x := range buf {
		if x != b {
			return i
		}
	}
	return -1
}

// holdPin pins region fd's whole buffer the way a hit pins what it
// copies, and returns the pin for the test to give back.
func holdPin(t *testing.T, c *Cache, fd int) slotPin {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.regions[fd]
	if r == nil || r.local == nil || r.pend != nil {
		t.Fatalf("region %d is not resident and settled", fd)
	}
	return c.pinLocked(r, r.local)
}

// awaitUnpinWaiter returns once some goroutine waits for a region's
// pins to drain, and fails the test if none does within five seconds.
func awaitUnpinWaiter(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if bytes.Contains(buf[:runtime.Stack(buf, true)], []byte(").awaitUnpinnedLocked(")) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("nothing waited for the region's pin")
		}
	}
}

// finishes runs f on a goroutine and returns a channel closed when it
// has returned.
func finishes(f func()) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	return done
}

// TestPinHoldsSlotWritersNotClose, with a pin the test holds: a Cwrite
// to the pinned region, and a fill that takes the pinned region's
// buffer as its slot, wait until the pin is returned, and the pinned
// bytes stay as they were meanwhile; a Cclose of the pinned region does
// not wait.
func TestPinHoldsSlotWritersNotClose(t *testing.T) {
	const n = 4096
	aa := bytes.Repeat([]byte{0xAA}, n)
	unblocked := func(t *testing.T, done chan struct{}) {
		t.Helper()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("still waiting after the pin was returned")
		}
	}

	t.Run("Cwrite waits", func(t *testing.T) {
		c := NewCache(newBenchDodo(1<<20, 0), Config{Capacity: n, Policy: NewLRU(), PromoteOnAccess: true})
		fd := resident(t, c, 1, n, 0xAA)
		pin := holdPin(t, c, fd)
		done := finishes(func() {
			if _, err := c.Cwrite(fd, 0, bytes.Repeat([]byte{0xBB}, n)); err != nil {
				t.Error(err)
			}
		})
		awaitUnpinWaiter(t)
		select {
		case <-done:
			t.Fatal("Cwrite returned while a hit held the region's pin")
		default:
		}
		if !bytes.Equal(pin.src, aa) {
			t.Fatal("the pinned bytes changed under the pin")
		}
		c.unpin(pin)
		unblocked(t, done)
		got := make([]byte, n)
		if _, err := c.Cread(fd, 0, got); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0xBB}, n)) {
			t.Fatalf("region reads 0x%02x…, %v; want the write's 0xbb", got[0], err)
		}
	})

	t.Run("fill over the pinned slot waits", func(t *testing.T) {
		c := NewCache(newBenchDodo(1<<20, 0), Config{Capacity: n, Policy: NewLRU(), PromoteOnAccess: true})
		fd := remoteOnly(t, c, core.NewMemBacking(1, 2*n), 0, n, 0x11)
		victim := resident(t, c, 2, n, 0xAA)
		pin := holdPin(t, c, victim)
		got := make([]byte, n)
		done := finishes(func() {
			if _, err := c.Cread(fd, 0, got); err != nil {
				t.Error(err)
			}
		})
		awaitUnpinWaiter(t)
		select {
		case <-done:
			t.Fatal("the fill returned while a hit held its slot's pin")
		default:
		}
		if !bytes.Equal(pin.src, aa) {
			t.Fatal("the pinned bytes changed under the pin")
		}
		c.unpin(pin)
		unblocked(t, done)
		if !bytes.Equal(got, bytes.Repeat([]byte{0x11}, n)) {
			t.Fatalf("region reads 0x%02x…, want its own 0x11", got[0])
		}
		if st, _ := c.State(fd); st != StateLocalRemote {
			t.Fatalf("region is %v, want local+remote: the fill did not run", st)
		}
	})

	t.Run("Cclose does not wait", func(t *testing.T) {
		c := NewCache(newBenchDodo(1<<20, 0), Config{Capacity: n, Policy: NewLRU(), PromoteOnAccess: true})
		fd := resident(t, c, 1, n, 0xAA)
		if _, err := c.Cwrite(fd, 0, aa); err != nil { // dirty: Cclose flushes
			t.Fatal(err)
		}
		pin := holdPin(t, c, fd)
		done := finishes(func() {
			if err := c.Cclose(fd); err != nil {
				t.Error(err)
			}
		})
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Cclose waited for a hit's pin")
		}
		if !bytes.Equal(pin.src, aa) {
			t.Fatal("the pinned bytes changed under the pin")
		}
		c.unpin(pin)
	})
}

// TestLocalHitAllocatesNothing: a hit pins, copies and unpins without
// allocating a marker, a channel or anything else.
func TestLocalHitAllocatesNothing(t *testing.T) {
	if locks.CheckEnabled {
		t.Skip("the lockcheck runtime allocates on every Lock")
	}
	const n = 8192
	c := NewCache(newBenchDodo(1<<20, 0), Config{Capacity: n, Policy: NewLRU(), PromoteOnAccess: true})
	fd := resident(t, c, 1, n, 0xAA)
	buf := make([]byte, n)
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := c.Cread(fd, 0, buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a local hit allocates %.2f times, want 0", allocs)
	}
}
