package region

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dodo/internal/core"
)

// A local hit takes no lock: it finds its region in the fd table, pins
// the region's published slot, checks that it is still published,
// copies, and stamps the region (hit). These tests hold it to that,
// race it against the writers and closers of its slot, and hold the
// stamps to the victims a recency list relinked on every hit would
// choose.

// TestLocalHitTakesNoCacheLock: with the test holding c.mu, a hit on a
// resident region still returns the region's bytes.
func TestLocalHitTakesNoCacheLock(t *testing.T) {
	const n = 8192
	c := NewCache(newBenchDodo(1<<20, 0), Config{Capacity: n, Policy: LRU, PromoteOnAccess: true})
	fd := resident(t, c, 1, n, 0xAA)
	got := make([]byte, n)
	c.mu.Lock()
	done := finishes(func() {
		if _, err := c.Cread(fd, 0, got); err != nil {
			t.Error(err)
		}
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		c.mu.Unlock()
		<-done
		t.Fatal("a local hit waited for the cache lock")
	}
	c.mu.Unlock()
	if !bytes.Equal(got, bytes.Repeat([]byte{0xAA}, n)) {
		t.Fatalf("the hit read 0x%02x…, want 0xaa", got[0])
	}
}

// TestStaleSlotIsNotRead: a hit that loaded a region's slot just
// before an eviction handed that slot to another region's fill must
// not copy out of it: the fill's bytes are not its region's.
func TestStaleSlotIsNotRead(t *testing.T) {
	const n = 4096
	c := NewCache(newBenchDodo(1<<20, 0), Config{Capacity: n, Policy: LRU, PromoteOnAccess: true})
	fd := remoteOnly(t, c, core.NewMemBacking(1, 2*n), 0, n, 0x11)
	victim := resident(t, c, 2, n, 0xAA)
	r := c.lookup(victim)
	s := r.pub.Load() // the hit's first step
	got := make([]byte, n)
	if _, err := c.Cread(fd, 0, got); err != nil {
		t.Fatal(err)
	}
	if c.lookup(fd).local != s {
		t.Fatal("setup: the fill did not take the victim's slot")
	}
	clear(got)
	if n, ok := c.copyFrom(r, s, 0, got); ok || firstOther(got, 0) >= 0 {
		t.Fatalf("a hit on the evicted region copied %d bytes (0x%02x…) out of its old slot", n, got[0])
	}
}

// TestCwriteRacesHit: two readers hit one small region while a writer
// rewrites all of it with one byte value after another, many times, so
// hits often pin its slot while Cwrite takes the slot off pub and reads
// its pins. A read must see one write's bytes, never parts of two.
func TestCwriteRacesHit(t *testing.T) {
	const n = 4096
	writes := 20000
	if testing.Short() {
		writes = 2000
	}
	c := NewCache(newBenchDodo(1<<30, 0), Config{Capacity: n, Policy: LRU, PromoteOnAccess: true})
	fd := resident(t, c, 1, n, 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
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
	for k := 1; k <= writes && !t.Failed(); k++ {
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

// shadowed opens regions of n bytes over one backing file of random
// bytes and returns their descriptors, the file's contents and the
// file.
func shadowed(t *testing.T, c *Cache, regions, n int) ([]int, []byte, core.Backing) {
	t.Helper()
	shadow := make([]byte, regions*n)
	rand.New(rand.NewSource(int64(regions))).Read(shadow)
	back := core.NewMemBacking(1, regions*n)
	if _, err := back.WriteAt(shadow, 0); err != nil {
		t.Fatal(err)
	}
	fds := make([]int, regions)
	for i := range fds {
		fd, err := c.Copen(int64(n), back, int64(i*n))
		if err != nil {
			t.Fatal(err)
		}
		fds[i] = fd
	}
	return fds, shadow, back
}

// TestEvictionRacesHit: two readers hit four hot regions while a third
// goroutine reads through the other twelve, so each of its reads evicts
// a region and fills into its slot, the hot ones included. Every read
// must return its own region's bytes.
func TestEvictionRacesHit(t *testing.T) {
	const (
		n       = 4096
		regions = 16
		hot     = 4
	)
	reads := 20000
	if testing.Short() {
		reads = 2000
	}
	c := NewCache(newBenchDodo(1<<30, 0), Config{Capacity: 6 * n, Policy: LRU, PromoteOnAccess: true})
	fds, shadow, _ := shadowed(t, c, regions, n)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	check := func(rng *rand.Rand, lo, hi int) bool {
		buf := make([]byte, n)
		i := lo + rng.Intn(hi-lo)
		if _, err := c.Cread(fds[i], 0, buf); err != nil {
			t.Error(err)
			return false
		}
		if !bytes.Equal(buf, shadow[i*n:(i+1)*n]) {
			t.Errorf("region %d read other bytes", i)
			return false
		}
		return true
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for k := 0; k < reads && check(rng, 0, hot); k++ {
			}
		}(g)
	}
	var evictor sync.WaitGroup
	evictor.Add(1)
	go func() {
		defer evictor.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !check(rng, hot, regions) {
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	evictor.Wait()
	if s := c.Stats(); s.LocalHits == 0 || s.Evictions == 0 {
		t.Fatalf("%d hits and %d evictions: the readers did not race evictions", s.LocalHits, s.Evictions)
	}
	checkResidentSet(t, c)
}

// TestCcloseRacesHit: readers hit regions that another goroutine keeps
// closing and opening again over the same bytes. A read through a
// closed descriptor fails with ErrBadFD, even once its table index holds
// a region opened later; any other read returns its region's bytes.
func TestCcloseRacesHit(t *testing.T) {
	const (
		n       = 4096
		regions = 8
	)
	cycles := 5000
	if testing.Short() {
		cycles = 500
	}
	c := NewCache(newBenchDodo(1<<30, 0), Config{Capacity: regions * n, Policy: LRU, PromoteOnAccess: true})
	first, shadow, back := shadowed(t, c, regions, n)
	var fds [regions]atomic.Int64
	for i, fd := range first {
		fds[i].Store(int64(fd))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var hits, closed atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			buf := make([]byte, n)
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(regions)
				_, err := c.Cread(int(fds[i].Load()), 0, buf)
				switch {
				case errors.Is(err, ErrBadFD):
					closed.Add(1)
				case err != nil:
					t.Error(err)
					return
				case !bytes.Equal(buf, shadow[i*n:(i+1)*n]):
					t.Errorf("region %d read other bytes", i)
					return
				default:
					hits.Add(1)
				}
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < cycles && !t.Failed(); k++ {
		i := rng.Intn(regions)
		if err := c.Cclose(int(fds[i].Load())); err != nil {
			t.Error(err)
			break
		}
		fd, err := c.Copen(n, back, int64(i*n))
		if err != nil {
			t.Error(err)
			break
		}
		fds[i].Store(int64(fd))
	}
	close(stop)
	wg.Wait()
	if hits.Load() == 0 || closed.Load() == 0 {
		t.Fatalf("%d hits and %d reads of closed descriptors: the readers did not race Cclose", hits.Load(), closed.Load())
	}
	if got := len(c.table.Load().regions); got > 2*max(regions, 64) {
		t.Fatalf("the fd table holds %d entries for %d open regions", got, regions)
	}
	checkResidentSet(t, c)
}

// TestStampsKeepVictims: one goroutine opens 24 regions in a cache of
// 16, at most victimSample, with a hit after each Copen, then makes
// 10,000 reads of them, with runs of hits among them; every region each
// call evicts is the one a recency list relinked on every hit would
// evict.
func TestStampsKeepVictims(t *testing.T) {
	const (
		n       = 512
		regions = 24
		fit     = 16
		ops     = 10000
	)
	if fit > victimSample {
		t.Fatal("the victims are exact only with at most victimSample resident")
	}
	for _, p := range []Policy{LRU, MRU} {
		t.Run(p.Name(), func(t *testing.T) {
			c := NewCache(newBenchDodo(1<<30, 0), Config{Capacity: fit * n, Policy: p, PromoteOnAccess: true})
			// model is the recency list relinked on every hit, front
			// first, as region indexes.
			var model []int
			evict := func() int {
				k := 0
				if p == MRU {
					k = len(model) - 1
				}
				v := model[k]
				model = append(model[:k], model[k+1:]...)
				return v
			}
			moveBack := func(i int) {
				for k, m := range model {
					if m == i {
						model = append(append(model[:k], model[k+1:]...), i)
						return
					}
				}
				t.Fatalf("region %d is not in the model", i)
			}
			local := make([]bool, regions)
			// step checks the one region the last call evicted, if any,
			// against want (-1 for none).
			var fds []int
			step := func(op string, want int) {
				t.Helper()
				got := -1
				c.mu.Lock()
				defer c.mu.Unlock()
				for i, fd := range fds {
					now := c.lookup(fd).local != nil
					if local[i] && !now {
						if got >= 0 {
							t.Fatalf("%s evicted regions %d and %d", op, got, i)
						}
						got = i
					}
					local[i] = now
				}
				if got != want {
					t.Fatalf("%s evicted region %d, want %d", op, got, want)
				}
			}
			back := core.NewMemBacking(1, regions*n)
			rng := rand.New(rand.NewSource(11))
			buf := make([]byte, n)
			for i := 0; i < regions; i++ {
				want := -1
				if len(model) == fit {
					want = evict()
				}
				fd, err := c.Copen(n, back, int64(i*n))
				if err != nil {
					t.Fatal(err)
				}
				fds = append(fds, fd)
				model = append(model, i)
				step(fmt.Sprintf("Copen %d", i), want)
				// A hit between two Copens that fit.
				h := model[rng.Intn(len(model))]
				moveBack(h)
				if _, err := c.Cread(fds[h], 0, buf); err != nil {
					t.Fatal(err)
				}
				step(fmt.Sprintf("hit on region %d after Copen %d", h, i), -1)
			}
			for k := 0; k < ops; k++ {
				var i int
				if k%2000 < 700 {
					i = model[rng.Intn(len(model))] // a run of hits
				} else {
					i = rng.Intn(regions)
				}
				want := -1
				if local[i] {
					moveBack(i)
				} else {
					want = evict()
					model = append(model, i)
				}
				if _, err := c.Cread(fds[i], 0, buf); err != nil {
					t.Fatal(err)
				}
				step(fmt.Sprintf("read %d of region %d", k, i), want)
			}
			if s := c.Stats(); s.LocalHits < ops/2 || s.Evictions < ops/10 {
				t.Fatalf("%d hits, %d evictions: want a mix", s.LocalHits, s.Evictions)
			}
			checkResidentSet(t, c)
		})
	}
}
