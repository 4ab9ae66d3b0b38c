package region

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"dodo/internal/core"
	"dodo/internal/sim"
)

// fakeDodo is an in-memory Dodo runtime with a bounded remote pool and
// switchable failure, letting cache tests run without a cluster.
type fakeDodo struct {
	capacity int64
	used     int64
	nextFD   int
	regions  map[int]*fakeRegion
	failAll  bool

	mopens, mreads, mwrites, mcloses int
}

type fakeRegion struct {
	data    []byte
	backing core.Backing
	backOff int64
}

func newFakeDodo(capacity int64) *fakeDodo {
	return &fakeDodo{capacity: capacity, regions: make(map[int]*fakeRegion)}
}

func (f *fakeDodo) Mopen(length int64, backing core.Backing, offset int64) (int, error) {
	f.mopens++
	if f.failAll || f.used+length > f.capacity {
		return -1, core.ErrNoMem
	}
	fd := f.nextFD
	f.nextFD++
	f.regions[fd] = &fakeRegion{data: make([]byte, length), backing: backing, backOff: offset}
	f.used += length
	return fd, nil
}

func (f *fakeDodo) Mread(fd int, offset int64, buf []byte) (int, error) {
	f.mreads++
	r, ok := f.regions[fd]
	if !ok || f.failAll {
		return -1, core.ErrNoMem
	}
	return copy(buf, r.data[offset:]), nil
}

func (f *fakeDodo) Mwrite(fd int, offset int64, buf []byte) (int, error) {
	f.mwrites++
	r, ok := f.regions[fd]
	if !ok || f.failAll {
		return -1, core.ErrNoMem
	}
	n := copy(r.data[offset:], buf)
	// Write-through to disk, like the real Mwrite.
	if _, err := r.backing.WriteAt(buf[:n], r.backOff+offset); err != nil {
		return -1, err
	}
	return n, nil
}

func (f *fakeDodo) Mclose(fd int) error {
	f.mcloses++
	r, ok := f.regions[fd]
	if !ok {
		return core.ErrInval
	}
	f.used -= int64(len(r.data))
	delete(f.regions, fd)
	return nil
}

func (f *fakeDodo) Msync(fd int) error { return nil }

func newTestCache(t *testing.T, localCap, remoteCap int64, policy Policy) (*Cache, *fakeDodo) {
	t.Helper()
	fake := newFakeDodo(remoteCap)
	c := NewCache(fake, Config{
		Capacity:         localCap,
		Policy:           policy,
		RefractionPeriod: 100 * time.Millisecond,
		PromoteOnAccess:  true,
	})
	return c, fake
}

// within runs f and fails t, dumping every goroutine, if f has not
// returned in ten seconds, far past what a healthy run takes: a lost
// release (an unpin, a Done, an Unlock) leaves a wait that never ends,
// and this makes it a failure that names the wait.
func within(t testing.TB, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("%s did not return in 10s:\n%s", what, buf[:runtime.Stack(buf, true)])
	}
}

func TestCopenReadWriteLocal(t *testing.T) {
	c, _ := newTestCache(t, 1<<20, 1<<20, LRU)
	back := core.NewMemBacking(1, 4096)
	fd, err := c.Copen(4096, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.State(fd)
	if err != nil || st != StateLocal {
		t.Fatalf("State = %v, %v; want local", st, err)
	}
	data := bytes.Repeat([]byte("hi"), 2048)
	n, err := c.Cwrite(fd, 0, data)
	if err != nil || n != 4096 {
		t.Fatalf("Cwrite = %d, %v", n, err)
	}
	got := make([]byte, 4096)
	n, err = c.Cread(fd, 0, got)
	if err != nil || n != 4096 || !bytes.Equal(got, data) {
		t.Fatalf("Cread = %d, %v", n, err)
	}
	if c.Stats().LocalHits != 1 {
		t.Fatalf("LocalHits = %d, want 1", c.Stats().LocalHits)
	}
}

func TestCopenValidation(t *testing.T) {
	c, _ := newTestCache(t, 1<<20, 1<<20, LRU)
	back := core.NewMemBacking(1, 100)
	if _, err := c.Copen(0, back, 0); err == nil {
		t.Fatal("Copen(0) succeeded")
	}
	if _, err := c.Copen(10, back, -1); err == nil {
		t.Fatal("Copen(offset -1) succeeded")
	}
	if _, err := c.Copen(10, nil, 0); err == nil {
		t.Fatal("Copen(nil backing) succeeded")
	}
}

func TestBadDescriptorErrors(t *testing.T) {
	c, _ := newTestCache(t, 1<<20, 1<<20, LRU)
	buf := make([]byte, 8)
	if _, err := c.Cread(42, 0, buf); !errors.Is(err, ErrBadFD) {
		t.Fatalf("Cread bad fd = %v", err)
	}
	if _, err := c.Cwrite(42, 0, buf); !errors.Is(err, ErrBadFD) {
		t.Fatalf("Cwrite bad fd = %v", err)
	}
	if err := c.Cclose(42); !errors.Is(err, ErrBadFD) {
		t.Fatalf("Cclose bad fd = %v", err)
	}
	if err := c.Csync(42); !errors.Is(err, ErrBadFD) {
		t.Fatalf("Csync bad fd = %v", err)
	}
}

func TestRangeChecks(t *testing.T) {
	c, _ := newTestCache(t, 1<<20, 1<<20, LRU)
	back := core.NewMemBacking(1, 100)
	fd, _ := c.Copen(100, back, 0)
	buf := make([]byte, 8)
	if _, err := c.Cread(fd, 101, buf); !errors.Is(err, ErrRange) {
		t.Fatalf("Cread past end = %v", err)
	}
	if _, err := c.Cwrite(fd, 101, buf); !errors.Is(err, ErrRange) {
		t.Fatalf("Cwrite past end = %v", err)
	}
	// Short read/write at the tail.
	n, err := c.Cread(fd, 96, buf)
	if err != nil || n != 4 {
		t.Fatalf("tail Cread = %d, %v; want 4", n, err)
	}
	// The tail read's pin must be gone, or the write waits for it.
	within(t, "a Cwrite after a read", func() { n, err = c.Cwrite(fd, 96, buf) })
	if err != nil || n != 4 {
		t.Fatalf("tail Cwrite = %d, %v; want 4", n, err)
	}
}

func TestEvictionMigratesToRemote(t *testing.T) {
	// Local cache fits 2 regions; the third evicts the LRU victim into
	// remote memory (grimReaper, Figure 5).
	c, fake := newTestCache(t, 8192, 1<<20, LRU)
	back := core.NewMemBacking(1, 1<<20)
	fd0, _ := c.Copen(4096, back, 0)
	fd1, _ := c.Copen(4096, back, 4096)
	// Touch fd0 so fd1 is the LRU victim... actually touch order: read
	// fd0 makes fd1 least recent.
	buf := make([]byte, 16)
	if _, err := c.Cread(fd0, 0, buf); err != nil {
		t.Fatal(err)
	}
	fd2, err := c.Copen(4096, back, 8192)
	if err != nil {
		t.Fatal(err)
	}
	st1, _ := c.State(fd1)
	if st1 != StateRemote {
		t.Fatalf("victim state = %v, want remote", st1)
	}
	st2, _ := c.State(fd2)
	if st2 != StateLocal {
		t.Fatalf("new region state = %v, want local", st2)
	}
	if fake.mopens != 1 {
		t.Fatalf("mopens = %d, want 1 (one migration)", fake.mopens)
	}
	// Two snapshots, each under a deadline: a Stats that keeps the cache
	// lock fails the second in 10s instead of hanging the test binary.
	var evictions, clones int64
	within(t, "Stats", func() { evictions = c.Stats().Evictions })
	within(t, "a second Stats", func() { clones = c.Stats().RemoteClones })
	if evictions != 1 || clones != 1 {
		t.Fatalf("evictions = %d, remote clones = %d; want 1 and 1", evictions, clones)
	}
}

func TestEvictedDirtyRegionFlushedBeforeMigration(t *testing.T) {
	c, _ := newTestCache(t, 4096, 1<<20, LRU)
	back := core.NewMemBacking(1, 1<<20)
	fd0, _ := c.Copen(4096, back, 0)
	payload := bytes.Repeat([]byte{0xEE}, 4096)
	if _, err := c.Cwrite(fd0, 0, payload); err != nil {
		t.Fatal(err)
	}
	// Force eviction of the dirty region.
	if _, err := c.Copen(4096, back, 4096); err != nil {
		t.Fatal(err)
	}
	// Dirty data must be on disk now (writeToDisk before migration).
	if !bytes.Equal(back.Bytes()[:4096], payload) {
		t.Fatal("dirty victim was not written to disk before eviction")
	}
	// And readable from its remote copy.
	got := make([]byte, 4096)
	n, err := c.Cread(fd0, 0, got)
	if err != nil || n != 4096 || !bytes.Equal(got, payload) {
		t.Fatalf("read after eviction = %d, %v", n, err)
	}
}

func TestRemoteExhaustionSpillsToDiskWithRefraction(t *testing.T) {
	clock := sim.NewVirtualClock(time.Unix(0, 0))
	fake := newFakeDodo(4096) // remote fits one region only
	c := NewCache(fake, Config{
		Capacity:         4096, // local fits one region
		Policy:           LRU,
		RefractionPeriod: time.Minute,
		Clock:            clock,
		PromoteOnAccess:  true,
	})
	back := core.NewMemBacking(1, 1<<20)
	fds := make([]int, 4)
	for i := range fds {
		fd, err := c.Copen(4096, back, int64(i)*4096)
		if err != nil {
			t.Fatalf("Copen %d: %v", i, err)
		}
		fds[i] = fd
	}
	// fd0 evicted -> remote (fits); fd1 evicted -> remote full -> disk
	// spill + refraction; fd2's eviction within refraction must skip
	// the mopen attempt entirely.
	st0, _ := c.State(fds[0])
	if st0 != StateRemote {
		t.Fatalf("fd0 state = %v, want remote", st0)
	}
	st1, _ := c.State(fds[1])
	if st1 != StateDiskOnly {
		t.Fatalf("fd1 state = %v, want disk-only", st1)
	}
	if c.Stats().RefractSkips == 0 {
		t.Fatal("no refraction skips recorded")
	}
	mopensBefore := fake.mopens
	clock.Advance(2 * time.Minute)
	// After refraction, attempts resume (and fail again, re-arming).
	if _, err := c.Copen(4096, back, 1<<19); err != nil {
		t.Fatal(err)
	}
	if fake.mopens <= mopensBefore {
		t.Fatal("no mopen attempted after refraction expired")
	}
}

func TestFirstInNeverReplaces(t *testing.T) {
	c, _ := newTestCache(t, 8192, 1<<20, FirstIn)
	back := core.NewMemBacking(1, 1<<20)
	fd0, _ := c.Copen(4096, back, 0)
	fd1, _ := c.Copen(4096, back, 4096)
	// Cache full of first-accessed regions; the next region cannot
	// displace them.
	fd2, err := c.Copen(4096, back, 8192)
	if err != nil {
		t.Fatal(err)
	}
	st0, _ := c.State(fd0)
	st1, _ := c.State(fd1)
	st2, _ := c.State(fd2)
	if st0 != StateLocal || st1 != StateLocal {
		t.Fatalf("first-in residents displaced: %v %v", st0, st1)
	}
	if st2 == StateLocal {
		t.Fatalf("late region became local under first-in: %v", st2)
	}
	// Reading the remote region must NOT promote it (no victim).
	buf := make([]byte, 16)
	if _, err := c.Cread(fd2, 0, buf); err != nil {
		t.Fatal(err)
	}
	st2, _ = c.State(fd2)
	if st2 == StateLocal || st2 == StateLocalRemote {
		t.Fatalf("first-in promoted a late region: %v", st2)
	}
	if c.Stats().Evictions != 0 {
		t.Fatalf("Evictions = %d under first-in, want 0", c.Stats().Evictions)
	}
}

func TestPromotionOnAccessUnderLRU(t *testing.T) {
	c, _ := newTestCache(t, 4096, 1<<20, LRU)
	back := core.NewMemBacking(1, 1<<20)
	fd0, _ := c.Copen(4096, back, 0)
	fd1, _ := c.Copen(4096, back, 4096) // evicts fd0 to remote
	st0, _ := c.State(fd0)
	if st0 != StateRemote {
		t.Fatalf("fd0 = %v, want remote", st0)
	}
	// Accessing fd0 promotes it back, evicting fd1.
	buf := make([]byte, 16)
	if _, err := c.Cread(fd0, 0, buf); err != nil {
		t.Fatal(err)
	}
	st0, _ = c.State(fd0)
	st1, _ := c.State(fd1)
	if st0 != StateLocalRemote && st0 != StateLocal {
		t.Fatalf("fd0 after promotion = %v", st0)
	}
	if st1 == StateLocal || st1 == StateLocalRemote {
		t.Fatalf("fd1 still local after fd0 promotion: %v", st1)
	}
	if c.Stats().Promotions != 1 {
		t.Fatalf("Promotions = %d, want 1", c.Stats().Promotions)
	}
}

func TestDataIntegrityAcrossStateTransitions(t *testing.T) {
	// Write distinct data into many regions through a tiny cache and
	// verify every byte survives local->remote->disk migrations.
	c, _ := newTestCache(t, 2*4096, 3*4096, LRU)
	back := core.NewMemBacking(1, 1<<20)
	const regions = 8
	fds := make([]int, regions)
	for i := 0; i < regions; i++ {
		fd, err := c.Copen(4096, back, int64(i)*4096)
		if err != nil {
			t.Fatalf("Copen %d: %v", i, err)
		}
		fds[i] = fd
		if _, err := c.Cwrite(fd, 0, bytes.Repeat([]byte{byte(i + 1)}, 4096)); err != nil {
			t.Fatalf("Cwrite %d: %v", i, err)
		}
	}
	for i := 0; i < regions; i++ {
		got := make([]byte, 4096)
		n, err := c.Cread(fds[i], 0, got)
		if err != nil || n != 4096 {
			t.Fatalf("Cread %d = %d, %v", i, n, err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, 4096)) {
			st, _ := c.State(fds[i])
			t.Fatalf("region %d corrupted (state %v)", i, st)
		}
	}
}

func TestCsyncFlushesDirtyRegion(t *testing.T) {
	c, _ := newTestCache(t, 1<<20, 1<<20, LRU)
	back := core.NewMemBacking(1, 4096)
	fd, _ := c.Copen(4096, back, 0)
	payload := bytes.Repeat([]byte{0x5A}, 4096)
	if _, err := c.Cwrite(fd, 0, payload); err != nil {
		t.Fatal(err)
	}
	// Dirty write is write-back: disk does not have it yet.
	if bytes.Equal(back.Bytes(), payload) {
		t.Fatal("write-back region hit disk before Csync")
	}
	if err := c.Csync(fd); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), payload) {
		t.Fatal("Csync did not flush to disk")
	}
}

func TestCcloseFlushesAndFreesRemote(t *testing.T) {
	c, fake := newTestCache(t, 4096, 1<<20, LRU)
	back := core.NewMemBacking(1, 1<<20)
	fd0, _ := c.Copen(4096, back, 0)
	c.Cwrite(fd0, 0, bytes.Repeat([]byte{9}, 4096))
	c.Copen(4096, back, 4096) // evict fd0 to remote
	if err := c.Cclose(fd0); err != nil {
		t.Fatal(err)
	}
	if fake.mcloses != 1 {
		t.Fatalf("mcloses = %d, want 1", fake.mcloses)
	}
	if !bytes.Equal(back.Bytes()[:4096], bytes.Repeat([]byte{9}, 4096)) {
		t.Fatal("Cclose lost dirty data")
	}
	if _, err := c.Cread(fd0, 0, make([]byte, 8)); !errors.Is(err, ErrBadFD) {
		t.Fatal("closed descriptor still readable")
	}
}

func TestRemoteFailureFallsBackToDisk(t *testing.T) {
	c, fake := newTestCache(t, 4096, 1<<20, LRU)
	back := core.NewMemBacking(1, 1<<20)
	fd0, _ := c.Copen(4096, back, 0)
	want := bytes.Repeat([]byte{3}, 4096)
	c.Cwrite(fd0, 0, want)
	c.Copen(4096, back, 4096) // evict fd0 -> remote
	// Remote dies.
	fake.failAll = true
	// With promotion the read tries remote, fails, falls back to disk.
	got := make([]byte, 4096)
	n, err := c.Cread(fd0, 0, got)
	if err != nil || n != 4096 || !bytes.Equal(got, want) {
		t.Fatalf("read after remote failure = %d, %v", n, err)
	}
}

func TestSetPolicySwitchesBehavior(t *testing.T) {
	c, _ := newTestCache(t, 8192, 1<<20, LRU)
	back := core.NewMemBacking(1, 1<<20)
	fd0, _ := c.Copen(4096, back, 0)
	fd1, _ := c.Copen(4096, back, 4096)
	c.SetPolicy(MRU)
	buf := make([]byte, 8)
	c.Cread(fd0, 0, buf) // fd0 is now most recently used
	// Force an eviction: MRU must pick fd0.
	c.Copen(4096, back, 8192)
	st0, _ := c.State(fd0)
	st1, _ := c.State(fd1)
	if st0 == StateLocal || st0 == StateLocalRemote {
		t.Fatalf("MRU kept the most recently used region local (fd0=%v fd1=%v)", st0, st1)
	}
}

func TestUsedAccounting(t *testing.T) {
	c, _ := newTestCache(t, 1<<20, 1<<20, LRU)
	back := core.NewMemBacking(1, 1<<20)
	fd0, _ := c.Copen(1000, back, 0)
	c.Copen(2000, back, 1000)
	if got := c.Used(); got != 3000 {
		t.Fatalf("Used = %d, want 3000", got)
	}
	c.Cclose(fd0)
	if got := c.Used(); got != 2000 {
		t.Fatalf("Used after close = %d, want 2000", got)
	}
}

// isLocal reports whether region fd has a local copy.
func isLocal(t *testing.T, c *Cache, fd int) bool {
	t.Helper()
	st, err := c.State(fd)
	if err != nil {
		t.Fatal(err)
	}
	return st == StateLocal || st == StateLocalRemote
}

// checkResidentSet walks the cache's resident slice under c.mu: every
// region in it is open and has a local copy, no region is in it twice,
// each region's index is its place in it, and every region with a
// local copy is in it.
func checkResidentSet(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	linked := make(map[*cregion]bool)
	for i, r := range c.resident {
		if linked[r] {
			t.Fatalf("region %d is resident twice", r.fd)
		}
		linked[r] = true
		if r.resident != i {
			t.Fatalf("region %d holds index %d at index %d", r.fd, r.resident, i)
		}
		if r.local == nil {
			t.Fatalf("region %d is resident without a local copy", r.fd)
		}
		if c.lookup(r.fd) != r {
			t.Fatalf("region %d is resident but not open", r.fd)
		}
	}
	t0 := c.table.Load()
	for i := range t0.regions {
		if r := t0.regions[i].Load(); r != nil && r.local != nil && !linked[r] {
			t.Fatalf("region %d has a local copy but is not resident", r.fd)
		}
	}
}

// TestPolicyModules runs each policy's row through a cache: three
// residents, the second written and then the first read, then a fourth
// region that needs room. LRU evicts the third, the least recently
// used; MRU the first, just read; FIFO the first installed; first-in
// nothing.
func TestPolicyModules(t *testing.T) {
	want := map[string]int{"lru": 2, "mru": 0, "fifo": 0, "first-in": -1}
	for _, name := range []string{"lru", "mru", "first-in", "fifo"} {
		p, err := NewPolicy(name)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("NewPolicy(%q).Name() = %q", name, p.Name())
		}
		c, _ := newTestCache(t, 3*4096, 1<<20, p)
		victim := func() *cregion {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.victimLocked()
		}
		if victim() != nil {
			t.Fatalf("%s: victim from an empty cache", name)
		}
		back := core.NewMemBacking(1, 1<<20)
		var fds []int
		for i := 0; i < 3; i++ {
			fd, _ := c.Copen(4096, back, int64(i)*4096)
			fds = append(fds, fd)
		}
		c.Cwrite(fds[1], 0, make([]byte, 8))
		c.Cread(fds[0], 0, make([]byte, 8)) // fds[0] becomes most recent for LRU/MRU
		fd3, _ := c.Copen(4096, back, 3*4096)
		evicted := -1
		for i, fd := range fds {
			if !isLocal(t, c, fd) {
				if evicted >= 0 {
					t.Fatalf("%s evicted two regions", name)
				}
				evicted = i
			}
		}
		if evicted != want[name] {
			t.Fatalf("%s evicted region %d, want %d", name, evicted, want[name])
		}
		if isLocal(t, c, fd3) == (name == "first-in") {
			t.Fatalf("%s: new region local = %v", name, isLocal(t, c, fd3))
		}
		checkResidentSet(t, c)
		for _, fd := range append(fds, fd3) {
			c.Cclose(fd)
		}
		if victim() != nil {
			t.Fatalf("%s: victim after every region closed", name)
		}
	}
	if _, err := NewPolicy("clock"); err == nil {
		t.Fatal("NewPolicy(clock) succeeded")
	}
}

// TestPolicyDoubleCacheIsIdempotent moves two regions in and out of a
// one-region cache: each comes back resident once, and closing both
// leaves the resident set empty.
func TestPolicyDoubleCacheIsIdempotent(t *testing.T) {
	c, _ := newTestCache(t, 4096, 1<<20, LRU)
	back := core.NewMemBacking(1, 1<<20)
	fdA, _ := c.Copen(4096, back, 0)
	fdB, _ := c.Copen(4096, back, 4096)
	buf := make([]byte, 8)
	for i := 0; i < 4; i++ {
		c.Cread(fdA, 0, buf)
		c.Cread(fdA, 0, buf)
		checkResidentSet(t, c)
		c.Cread(fdB, 0, buf)
		checkResidentSet(t, c)
	}
	c.Cclose(fdA)
	c.Cclose(fdB)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.resident) != 0 {
		t.Fatal("closing every region left a phantom resident")
	}
}

// TestSetPolicyIsDeterministic switches a full cache from LRU to FIFO:
// the stamps keep the order LRU left them in, so the next victim is the
// oldest, the least recently used region.
func TestSetPolicyIsDeterministic(t *testing.T) {
	const n = 16
	c, _ := newTestCache(t, n*4096, 1<<20, LRU)
	back := core.NewMemBacking(1, 1<<20)
	fds := make([]int, n)
	for i := range fds {
		fds[i], _ = c.Copen(4096, back, int64(i)*4096)
	}
	buf := make([]byte, 8)
	for _, i := range []int{0, 1, 5, 9} {
		c.Cread(fds[i], 0, buf)
	}
	c.SetPolicy(FIFO)
	c.Copen(4096, back, n*4096)
	for i, fd := range fds {
		if isLocal(t, c, fd) != (i != 2) {
			t.Fatalf("region %d local = %v; want only region 2, the oldest, evicted", i, isLocal(t, c, fd))
		}
	}
}

// TestSampledVictimsAreOld: with 4 × victimSample regions resident
// under LRU, a victim is the oldest of a sample, not of all. One
// goroutine reads 256 regions at random through a cache of 128 until
// 1,000 reads have evicted; the mean rank by stamp of those victims
// (the oldest resident ranks 0) lies in the oldest 5 % of the
// residents, and a second run evicts the same regions.
func TestSampledVictimsAreOld(t *testing.T) {
	const (
		n       = 512
		fit     = 4 * victimSample
		regions = 2 * fit
		victims = 1000
	)
	run := func() (evicted []int, meanRank float64) {
		c := NewCache(newBenchDodo(1<<30, 0), Config{Capacity: fit * n, Policy: LRU, PromoteOnAccess: true})
		back := core.NewMemBacking(1, regions*n)
		rs := make([]*cregion, regions)
		for i := range rs {
			fd, err := c.Copen(n, back, int64(i*n))
			if err != nil {
				t.Fatal(err)
			}
			rs[i] = c.lookup(fd)
		}
		rng := rand.New(rand.NewSource(3))
		buf := make([]byte, n)
		stamps := make([]uint64, regions)
		ranks := 0
		for len(evicted) < victims {
			c.mu.Lock()
			var order []uint64
			for i, r := range rs {
				stamps[i] = 0
				if r.local != nil {
					stamps[i] = r.stamp.Load()
					order = append(order, stamps[i])
				}
			}
			c.mu.Unlock()
			slices.Sort(order)
			i := rng.Intn(regions)
			if _, err := c.Cread(rs[i].fd, 0, buf); err != nil {
				t.Fatal(err)
			}
			c.mu.Lock()
			for j, r := range rs {
				if stamps[j] != 0 && r.local == nil {
					evicted = append(evicted, j)
					k, _ := slices.BinarySearch(order, stamps[j])
					ranks += k
				}
			}
			c.mu.Unlock()
		}
		return evicted, float64(ranks) / float64(len(evicted))
	}
	first, rank := run()
	if rank > 0.05*fit {
		t.Fatalf("the victims' mean rank is %.1f of %d residents: want the oldest 5 %%", rank, fit)
	}
	if again, _ := run(); !slices.Equal(first, again) {
		t.Fatal("a second run with the same seed evicted other regions")
	}
	t.Logf("mean victim rank %.2f of %d residents", rank, fit)
}

func TestManyRegionsScalability(t *testing.T) {
	// 4096 small regions through a cache holding 512: every victim
	// choice samples the resident set.
	c, _ := newTestCache(t, 512*128, 1<<30, LRU)
	back := core.NewMemBacking(1, 4096*128)
	fds := make([]int, 4096)
	for i := range fds {
		fd, err := c.Copen(128, back, int64(i)*128)
		if err != nil {
			t.Fatalf("Copen %d: %v", i, err)
		}
		fds[i] = fd
	}
	buf := make([]byte, 128)
	for i := 0; i < 4096; i += 7 {
		if _, err := c.Cread(fds[i], 0, buf); err != nil {
			t.Fatalf("Cread %d: %v", i, err)
		}
	}
	s := c.Stats()
	if s.Evictions == 0 {
		t.Fatal("no evictions over 4096 regions through a 512-region cache")
	}
}

func BenchmarkCreadLocalHit(b *testing.B) {
	fake := newFakeDodo(1 << 30)
	c := NewCache(fake, Config{Capacity: 1 << 20, Policy: LRU, PromoteOnAccess: true})
	back := core.NewMemBacking(1, 1<<20)
	fd, err := c.Copen(1<<20, back, 0)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 8192)
	b.SetBytes(8192)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Cread(fd, int64(i%(1<<17))*8, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvictionChurn(b *testing.B) {
	fake := newFakeDodo(1 << 40)
	c := NewCache(fake, Config{Capacity: 64 * 4096, Policy: LRU, PromoteOnAccess: true})
	back := core.NewMemBacking(1, 1<<20)
	fds := make([]int, 128)
	for i := range fds {
		fd, err := c.Copen(4096, back, int64(i)*4096)
		if err != nil {
			b.Fatal(err)
		}
		fds[i] = fd
	}
	buf := make([]byte, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Cread(fds[i%128], 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}
