package region

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dodo/internal/core"
)

// The tests in this file exercise the cache's concurrency model under
// the race detector (and, via verify.sh, under -tags lockcheck): no
// I/O under c.mu, in-flight markers serializing region transitions,
// fetch coalescing, and the prefetch pipeline. They use benchDodo (see
// cache_bench_test.go), the thread-safe fake; fakeDodo in cache_test.go
// is deliberately single-threaded and must not appear here.

// TestConcurrentCreadCoalescesFills checks the singleflight: eight
// goroutines faulting the same non-resident region trigger exactly one
// remote fetch and one promotion, and every reader sees the bytes.
func TestConcurrentCreadCoalescesFills(t *testing.T) {
	fake := newBenchDodo(1<<20, 200*time.Microsecond)
	back := core.NewMemBacking(1, 1<<20)
	c := NewCache(fake, Config{Capacity: 4096, Policy: LRU, PromoteOnAccess: true})

	fdA, err := c.Copen(4096, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x5a}, 4096)
	if _, err := c.Cwrite(fdA, 0, want); err != nil {
		t.Fatal(err)
	}
	// Opening B evicts A (capacity is one region), staging A remotely.
	fdB, err := c.Copen(4096, back, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := c.State(fdA); st != StateRemote {
		t.Fatalf("precondition: A state = %v, want remote", st)
	}
	readsBefore := fake.mreads.Load()
	promosBefore := c.Stats().Promotions

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 4096)
			if _, err := c.Cread(fdA, 0, buf); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(buf, want) {
				errs <- errors.New("reader saw wrong bytes")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := fake.mreads.Load() - readsBefore; got != 1 {
		t.Fatalf("remote fetches for 8 concurrent readers = %d, want 1 (coalesced)", got)
	}
	if got := c.Stats().Promotions - promosBefore; got != 1 {
		t.Fatalf("promotions = %d, want 1", got)
	}
	if got := c.Stats().LocalHits; got != 8 {
		t.Fatalf("local hits = %d, want 8 (every reader served from the one fill)", got)
	}
	_ = fdB
}

// TestConcurrentRegionOps runs parallel Cread/Cwrite/Csync/Cclose/
// Prefetch over a shared cache: eight writers each own a region and
// verify their own bytes round-trip through promotion, eviction and
// write-back; readers hammer shared read-only regions; a churn
// goroutine opens and closes regions while the prefetcher walks them.
// Afterwards the cache and the fake remote pool must both drain to
// zero — any leaked local budget or remote descriptor fails the test.
func TestConcurrentRegionOps(t *testing.T) {
	const (
		regionSize = 2048
		owners     = 8
		iters      = 60
	)
	fake := newBenchDodo(1<<22, 0)
	back := core.NewMemBacking(1, 1<<22)
	c := NewCache(fake, Config{
		Capacity:           4 * regionSize, // half the owners fit: constant eviction pressure
		Policy:             LRU,
		PromoteOnAccess:    true,
		SequentialPrefetch: true,
		PrefetchWindow:     2,
		PrefetchWorkers:    2,
	})

	// Shared read-only regions, written once up front.
	var shared []int
	for i := 0; i < 4; i++ {
		fd, err := c.Copen(regionSize, back, int64(i)*regionSize)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Cwrite(fd, 0, bytes.Repeat([]byte{byte(0xe0 + i)}, regionSize)); err != nil {
			t.Fatal(err)
		}
		shared = append(shared, fd)
	}
	// Owned regions, one per writer goroutine, above the shared range.
	owned := make([]int, owners)
	for i := range owned {
		fd, err := c.Copen(regionSize, back, int64(8+i)*regionSize)
		if err != nil {
			t.Fatal(err)
		}
		owned[i] = fd
	}

	var failed atomic.Bool
	fail := func(format string, args ...any) {
		failed.Store(true)
		t.Errorf(format, args...)
	}
	var wg sync.WaitGroup
	for g := 0; g < owners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fd := owned[g]
			buf := make([]byte, regionSize)
			for k := 0; k < iters && !failed.Load(); k++ {
				pattern := byte(g*31 + k)
				if _, err := c.Cwrite(fd, 0, bytes.Repeat([]byte{pattern}, regionSize)); err != nil {
					fail("owner %d write %d: %v", g, k, err)
					return
				}
				if k%16 == 7 {
					if err := c.Csync(fd); err != nil {
						fail("owner %d csync %d: %v", g, k, err)
						return
					}
				}
				if _, err := c.Cread(fd, 0, buf); err != nil {
					fail("owner %d read %d: %v", g, k, err)
					return
				}
				for j := range buf {
					if buf[j] != pattern {
						fail("owner %d iter %d byte %d = %#x, want %#x", g, k, j, buf[j], pattern)
						return
					}
				}
			}
			if err := c.Cclose(fd); err != nil {
				fail("owner %d close: %v", g, err)
			}
		}(g)
	}
	// Shared readers: the bytes must never change.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, regionSize)
			for k := 0; k < 2*iters && !failed.Load(); k++ {
				i := (k + g) % len(shared)
				if _, err := c.Cread(shared[i], 0, buf); err != nil {
					fail("shared reader %d: %v", g, err)
					return
				}
				if buf[0] != byte(0xe0+i) || buf[regionSize-1] != byte(0xe0+i) {
					fail("shared region %d bytes changed: %#x", i, buf[0])
					return
				}
			}
		}(g)
	}
	// Explicit prefetch pressure across everything, open or closing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 2*iters && !failed.Load(); k++ {
			c.Prefetch(shared[k%len(shared)])
			c.Prefetch(owned[k%len(owned)]) // may already be closed: no-op
		}
	}()
	// Churn: open, touch, close — closes race the prefetch walker.
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, regionSize)
		for k := 0; k < iters && !failed.Load(); k++ {
			fd, err := c.Copen(regionSize, back, int64(32+k%4)*regionSize)
			if err != nil {
				fail("churn open %d: %v", k, err)
				return
			}
			if _, err := c.Cread(fd, 0, buf); err != nil {
				fail("churn read %d: %v", k, err)
				return
			}
			if err := c.Cclose(fd); err != nil {
				fail("churn close %d: %v", k, err)
				return
			}
		}
	}()
	wg.Wait()
	if failed.Load() {
		return
	}

	for _, fd := range shared {
		if err := c.Cclose(fd); err != nil {
			t.Fatalf("closing shared region: %v", err)
		}
	}
	c.Quiesce()
	c.Close()
	if got := c.Used(); got != 0 {
		t.Fatalf("Used = %d after closing every region, want 0 (budget leak)", got)
	}
	if got := fake.remoteUsed(); got != 0 {
		t.Fatalf("remote pool holds %d bytes after close, want 0 (descriptor leak)", got)
	}
}

// TestInterleavedSequentialStreams pins the satellite fix: two
// sequential scans over different backing files, interleaved, must
// each arm their own per-inode detector instead of clobbering a global
// one.
func TestInterleavedSequentialStreams(t *testing.T) {
	fake := newBenchDodo(1<<20, 0)
	backA := core.NewMemBacking(1, 1<<20)
	backB := core.NewMemBacking(2, 1<<20)
	c := NewCache(fake, Config{
		Capacity:           4096, // one region: scans never stay local
		Policy:             LRU,
		PromoteOnAccess:    true,
		SequentialPrefetch: true,
	})
	var fdsA, fdsB []int
	for i := 0; i < 4; i++ {
		fdA, err := c.Copen(4096, backA, int64(i)*4096)
		if err != nil {
			t.Fatal(err)
		}
		fdsA = append(fdsA, fdA)
		fdB, err := c.Copen(4096, backB, int64(i)*4096)
		if err != nil {
			t.Fatal(err)
		}
		fdsB = append(fdsB, fdB)
	}
	buf := make([]byte, 4096)
	// A0, B0, A1, B1: both streams are sequential; under the old global
	// last-access key each access reset the other stream and neither
	// ever armed.
	for _, fd := range []int{fdsA[0], fdsB[0], fdsA[1], fdsB[1]} {
		if _, err := c.Cread(fd, 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().Prefetches; got < 2 {
		t.Fatalf("Prefetches = %d after two interleaved sequential streams, want >= 2", got)
	}
	for name, fd := range map[string]int{"A2": fdsA[2], "B2": fdsB[2]} {
		st, err := c.State(fd)
		if err != nil {
			t.Fatal(err)
		}
		if st == StateDiskOnly {
			t.Fatalf("region %s still disk-only: its stream was clobbered", name)
		}
	}
}

// failingBacking fails reads on demand; writes pass through.
type failingBacking struct {
	*core.MemBacking
	fail atomic.Bool
}

func (b *failingBacking) ReadAt(p []byte, off int64) (int, error) {
	if b.fail.Load() {
		return 0, errors.New("injected disk failure")
	}
	return b.MemBacking.ReadAt(p, off)
}

// TestNoPrefetchAfterFailedRead pins the satellite fix: a foreground
// read that fails must not arm or issue prefetch off the broken
// stream.
func TestNoPrefetchAfterFailedRead(t *testing.T) {
	fake := newBenchDodo(0, 0) // zero remote capacity: clones always fail
	back := &failingBacking{MemBacking: core.NewMemBacking(1, 1<<20)}
	c := NewCache(fake, Config{
		Capacity:           2048, // regions never fit locally
		Policy:             LRU,
		PromoteOnAccess:    true,
		SequentialPrefetch: true,
	})
	var fds []int
	for i := 0; i < 3; i++ {
		fd, err := c.Copen(4096, back, int64(i)*4096)
		if err != nil {
			t.Fatal(err)
		}
		fds = append(fds, fd)
	}
	buf := make([]byte, 4096)
	// Region 0 reads fine and arms the stream.
	if _, err := c.Cread(fds[0], 0, buf); err != nil {
		t.Fatal(err)
	}
	// Region 1's read-through fails: the would-be prefetch of region 2
	// must be suppressed.
	back.fail.Store(true)
	if _, err := c.Cread(fds[1], 0, buf); err == nil {
		t.Fatal("read with failing disk and no remote copy succeeded")
	}
	if got := c.Stats().Prefetches; got != 0 {
		t.Fatalf("Prefetches = %d after a failed foreground read, want 0", got)
	}
}

// TestPrefetchWorkerPool exercises the asynchronous pipeline: with
// workers the pulls run in the background, Quiesce makes them
// observable, and Close drains without deadlock.
func TestPrefetchWorkerPool(t *testing.T) {
	fake := newBenchDodo(1<<20, 100*time.Microsecond)
	back := core.NewMemBacking(1, 1<<20)
	c := NewCache(fake, Config{
		Capacity:           4096,
		Policy:             LRU,
		PromoteOnAccess:    true,
		SequentialPrefetch: true,
		PrefetchWindow:     2,
		PrefetchWorkers:    2,
	})
	var fds []int
	for i := 0; i < 8; i++ {
		fd, err := c.Copen(4096, back, int64(i)*4096)
		if err != nil {
			t.Fatal(err)
		}
		fds = append(fds, fd)
	}
	buf := make([]byte, 4096)
	if _, err := c.Cread(fds[0], 0, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cread(fds[1], 0, buf); err != nil {
		t.Fatal(err)
	}
	c.Quiesce() // all queued pulls retired
	if got := c.Stats().Prefetches; got == 0 {
		t.Fatal("no prefetches ran on the worker pool")
	}
	// The window ran ahead: at least the next region left disk-only.
	st, err := c.State(fds[2])
	if err != nil {
		t.Fatal(err)
	}
	if st == StateDiskOnly {
		t.Fatal("region 2 still disk-only after pipelined walk")
	}
	c.Close()
	c.Close() // idempotent
	// The cache stays usable after Close; only the pipeline is gone.
	if _, err := c.Cread(fds[3], 0, buf); err != nil {
		t.Fatalf("Cread after Close: %v", err)
	}
	c.Quiesce() // must not hang with the pool stopped
}

// TestConcurrentAliasedRegions drives two descriptors over the same
// backing range from parallel readers: the per-location singleflight
// must coalesce their fills without wedging either descriptor.
func TestConcurrentAliasedRegions(t *testing.T) {
	fake := newBenchDodo(1<<20, 100*time.Microsecond)
	back := core.NewMemBacking(1, 1<<20)
	c := NewCache(fake, Config{Capacity: 8192, Policy: LRU, PromoteOnAccess: true})
	seed, err := c.Copen(4096, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x42}, 4096)
	if _, err := c.Cwrite(seed, 0, want); err != nil {
		t.Fatal(err)
	}
	if err := c.Csync(seed); err != nil {
		t.Fatal(err)
	}
	alias, err := c.Copen(4096, back, 0) // same (inode, off)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fd := seed
			if g%2 == 1 {
				fd = alias
			}
			buf := make([]byte, 4096)
			for k := 0; k < 20; k++ {
				if _, err := c.Cread(fd, 0, buf); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf, want) {
					errs <- errors.New("aliased reader saw wrong bytes")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestResidentSliceIsResidentSet checks the resident slice against the
// regions with a local copy while parallel reads, writes, opens,
// closes, prefetches and policy switches run, and again once they stop:
// a region is in it iff it has a local copy, and never twice.
func TestResidentSliceIsResidentSet(t *testing.T) {
	const (
		regionSize = 2048
		regions    = 16
		iters      = 200
	)
	fake := newBenchDodo(1<<22, 0)
	back := core.NewMemBacking(1, 1<<22)
	c := NewCache(fake, Config{
		Capacity:           6 * regionSize, // under half the regions fit
		PromoteOnAccess:    true,
		SequentialPrefetch: true,
		PrefetchWindow:     2,
		PrefetchWorkers:    2,
	})
	fds := make([]int, regions)
	for i := range fds {
		fd, err := c.Copen(regionSize, back, int64(i)*regionSize)
		if err != nil {
			t.Fatal(err)
		}
		fds[i] = fd
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, regionSize)
			for k := 0; k < iters; k++ {
				fd := fds[(g*7+k*(g+1))%regions]
				var err error
				if k%3 == 0 {
					_, err = c.Cwrite(fd, 0, buf[:regionSize/2])
				} else {
					_, err = c.Cread(fd, 0, buf)
				}
				if err != nil {
					t.Errorf("worker %d op %d: %v", g, k, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, regionSize)
		for k := 0; k < iters/4; k++ {
			fd, err := c.Copen(regionSize, back, int64(regions+k%4)*regionSize)
			if err != nil {
				t.Errorf("churn open %d: %v", k, err)
				return
			}
			if _, err := c.Cread(fd, 0, buf); err != nil {
				t.Errorf("churn read %d: %v", k, err)
			}
			if err := c.Cclose(fd); err != nil {
				t.Errorf("churn close %d: %v", k, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < iters/4; k++ {
			c.SetPolicy([]Policy{LRU, MRU, FIFO, FirstIn}[k%4])
			time.Sleep(50 * time.Microsecond)
		}
	}()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			checkResidentSet(t, c)
			time.Sleep(20 * time.Microsecond)
		}
	}

	c.Quiesce()
	checkResidentSet(t, c)
	for _, fd := range fds {
		if err := c.Cclose(fd); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	checkResidentSet(t, c)
}
