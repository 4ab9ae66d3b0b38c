package region

import (
	"testing"

	"dodo/internal/core"
)

func prefetchCache(t *testing.T, localCap int64) (*Cache, *fakeDodo, *core.MemBacking) {
	t.Helper()
	fake := newFakeDodo(1 << 20)
	c := NewCache(fake, Config{
		Capacity:           localCap,
		Policy:             LRU,
		PromoteOnAccess:    true,
		SequentialPrefetch: true,
	})
	back := core.NewMemBacking(1, 1<<20)
	return c, fake, back
}

func TestSequentialAccessPrefetchesNextRegion(t *testing.T) {
	c, _, back := prefetchCache(t, 1<<20)
	// Six contiguous 4 KB regions; opening faults them local already,
	// so shrink the cache story: open them, then force them out.
	var fds []int
	for i := 0; i < 6; i++ {
		fd, err := c.Copen(4096, back, int64(i)*4096)
		if err != nil {
			t.Fatal(err)
		}
		fds = append(fds, fd)
	}
	// Evict everything by pushing a large region through... simpler:
	// use a fresh cache with tiny capacity where nothing stays local.
	c2, _, back2 := prefetchCache(t, 4096) // one region fits
	fds = fds[:0]
	for i := 0; i < 6; i++ {
		fd, err := c2.Copen(4096, back2, int64(i)*4096)
		if err != nil {
			t.Fatal(err)
		}
		fds = append(fds, fd)
	}
	// Regions 0..5 exist; only one can be local at a time. Walk them in
	// order: after touching 0 then 1 (sequential), region 2 must have
	// been prefetched (local or remote) before we ask for it.
	buf := make([]byte, 4096)
	if _, err := c2.Cread(fds[0], 0, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Cread(fds[1], 0, buf); err != nil {
		t.Fatal(err)
	}
	st, err := c2.State(fds[2])
	if err != nil {
		t.Fatal(err)
	}
	if st == StateDiskOnly {
		t.Fatalf("region 2 still disk-only after sequential walk; state = %v", st)
	}
	if c2.Stats().Prefetches == 0 {
		t.Fatal("no prefetches recorded")
	}
}

func TestNonSequentialAccessDoesNotPrefetch(t *testing.T) {
	c, _, back := prefetchCache(t, 4096)
	var fds []int
	for i := 0; i < 6; i++ {
		fd, err := c.Copen(4096, back, int64(i)*4096)
		if err != nil {
			t.Fatal(err)
		}
		fds = append(fds, fd)
	}
	buf := make([]byte, 4096)
	// Jumping around must not arm the prefetcher.
	for _, i := range []int{0, 3, 1, 4} {
		if _, err := c.Cread(fds[i], 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().Prefetches; got != 0 {
		t.Fatalf("Prefetches = %d after random walk, want 0", got)
	}
}

func TestPrefetchDisabledByDefault(t *testing.T) {
	fake := newFakeDodo(1 << 20)
	c := NewCache(fake, Config{Capacity: 4096, Policy: LRU, PromoteOnAccess: true})
	back := core.NewMemBacking(1, 1<<20)
	var fds []int
	for i := 0; i < 4; i++ {
		fd, _ := c.Copen(4096, back, int64(i)*4096)
		fds = append(fds, fd)
	}
	buf := make([]byte, 4096)
	c.Cread(fds[0], 0, buf)
	c.Cread(fds[1], 0, buf)
	if got := c.Stats().Prefetches; got != 0 {
		t.Fatalf("Prefetches = %d with the feature off, want 0", got)
	}
}

func TestExplicitPrefetchAPI(t *testing.T) {
	// First-in refuses victims once full, so the third region stays
	// disk-only until explicitly prefetched (which stages it remotely).
	fake := newFakeDodo(1 << 20)
	c := NewCache(fake, Config{
		Capacity:        8192,
		Policy:          FirstIn,
		PromoteOnAccess: true,
	})
	back := core.NewMemBacking(1, 1<<20)
	fd0, _ := c.Copen(4096, back, 0)
	fd1, _ := c.Copen(4096, back, 4096)
	fd2, err := c.Copen(4096, back, 8192) // cache full: disk-only
	if err != nil {
		t.Fatal(err)
	}
	_ = fd0
	_ = fd1
	st, _ := c.State(fd2)
	if st != StateDiskOnly {
		t.Fatalf("precondition: fd2 state = %v, want disk-only", st)
	}
	c.Prefetch(fd2)
	st, _ = c.State(fd2)
	if st == StateDiskOnly {
		t.Fatal("explicit Prefetch left the region disk-only")
	}
	// Prefetching a local or unknown region is a harmless no-op.
	c.Prefetch(fd2)
	c.Prefetch(9999)
}

func TestPrefetchIndexFollowsClose(t *testing.T) {
	c, _, back := prefetchCache(t, 1<<20)
	fd0, _ := c.Copen(4096, back, 0)
	fd1, _ := c.Copen(4096, back, 4096)
	if err := c.Cclose(fd1); err != nil {
		t.Fatal(err)
	}
	// Sequential walk over a closed successor must not panic or
	// resurrect it.
	buf := make([]byte, 4096)
	if _, err := c.Cread(fd0, 0, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cread(fd0, 0, buf); err != nil {
		t.Fatal(err)
	}
	// Re-opening the same location re-registers it.
	fd1b, err := c.Copen(4096, back, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cread(fd1b, 0, buf); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchDataIntegrity(t *testing.T) {
	// Prefetched regions must carry the right bytes.
	c, _, back := prefetchCache(t, 4096)
	var fds []int
	for i := 0; i < 4; i++ {
		fd, _ := c.Copen(4096, back, int64(i)*4096)
		payload := make([]byte, 4096)
		for j := range payload {
			payload[j] = byte(i + 1)
		}
		if _, err := c.Cwrite(fd, 0, payload); err != nil {
			t.Fatal(err)
		}
		fds = append(fds, fd)
	}
	buf := make([]byte, 4096)
	for i := 0; i < 4; i++ {
		n, err := c.Cread(fds[i], 0, buf)
		if err != nil || n != 4096 {
			t.Fatalf("Cread %d = %d, %v", i, n, err)
		}
		for j := range buf {
			if buf[j] != byte(i+1) {
				t.Fatalf("region %d byte %d = %d, want %d", i, j, buf[j], i+1)
			}
		}
	}
}
