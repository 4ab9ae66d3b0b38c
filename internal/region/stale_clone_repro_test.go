package region

import (
	"bytes"
	"slices"
	"testing"

	"dodo/internal/core"
)

// gatedDodo blocks Mopen until released, so the test controls when an
// opportunistic cloneRemote's I/O runs relative to a concurrent write.
type gatedDodo struct {
	*benchDodo
	gate    chan struct{} // Mopen waits on this
	entered chan struct{} // signaled when Mopen is reached
}

func (g *gatedDodo) Mopen(length int64, backing core.Backing, offset int64) (int, error) {
	g.entered <- struct{}{}
	<-g.gate
	return g.benchDodo.Mopen(length, backing, offset)
}

func TestStaleCloneClobbersConcurrentWrite(t *testing.T) {
	fake := &gatedDodo{
		benchDodo: newBenchDodo(1<<20, 0),
		gate:      make(chan struct{}),
		entered:   make(chan struct{}, 1),
	}
	back := core.NewMemBacking(1, 8192)
	// Capacity below the region size: the region can never go local, so
	// every access is a read-/write-through.
	c := NewCache(fake, Config{Capacity: 1024, Policy: LRU, PromoteOnAccess: true})

	const n = 8192
	fd, err := c.Copen(n, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte{0xAA}, n)
	if _, err := back.WriteAt(old, 0); err != nil {
		t.Fatal(err)
	}

	// Reader: full-region read-through; it reads OLD from disk and then
	// tries the opportunistic cloneRemote, which parks in Mopen.
	readerDone := make(chan error, 1)
	go func() {
		buf := make([]byte, n)
		_, err := c.Cread(fd, 0, buf)
		readerDone <- err
	}()
	<-fake.entered // clone is in flight, holding OLD bytes

	// Writer: full-region write of NEW. cloneRemote is busy (cloning
	// flag), so this lands on disk directly and returns success.
	newData := bytes.Repeat([]byte{0xBB}, n)
	if _, err := c.Cwrite(fd, 0, newData); err != nil {
		t.Fatal(err)
	}

	// Release the clone. It must notice the write generation moved
	// while it was parked in Mopen and discard the fresh clone instead
	// of pushing OLD (whose Mwrite would reach disk too).
	close(fake.gate)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
	c.Quiesce()

	got := make([]byte, n)
	if _, err := c.Cread(fd, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newData) {
		t.Fatalf("acknowledged write lost: read back 0x%02x, want 0x%02x (stale clone overwrote it)", got[0], newData[0])
	}
	onDisk := make([]byte, n)
	if _, err := back.ReadAt(onDisk, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, newData) {
		t.Fatalf("disk reverted to 0x%02x after acknowledged write of 0x%02x", onDisk[0], newData[0])
	}
}

// cloneDodo is a benchDodo whose Mopen and Mwrite run a hook first,
// where cloneRemote has c.mu down, and whose Mwrite can then fail.
type cloneDodo struct {
	*benchDodo
	inMopen, inPush func()
	failPush        bool
}

func (d *cloneDodo) Mopen(length int64, backing core.Backing, offset int64) (int, error) {
	if d.inMopen != nil {
		d.inMopen()
	}
	return d.benchDodo.Mopen(length, backing, offset)
}

func (d *cloneDodo) Mwrite(fd int, offset int64, buf []byte) (int, error) {
	if d.inPush != nil {
		d.inPush()
	}
	if d.failPush {
		return -1, core.ErrNoMem
	}
	return d.benchDodo.Mwrite(fd, offset, buf)
}

// TestCloneRemoteReleasesEveryDescriptor drives each way cloneRemote
// can end without keeping its fresh descriptor, on a region that never
// fits locally. After each, every descriptor the fake has open is the
// region's remoteFD, and the region is no longer cloning.
func TestCloneRemoteReleasesEveryDescriptor(t *testing.T) {
	const n = 4096
	for _, row := range []struct {
		name string
		// inHand: the caller passes the bytes (else cloneRemote reads
		// them from the backing file).
		inHand bool
		// setup runs before the call, inMopen and inPush inside it.
		setup, inMopen, inPush func(c *Cache, fd int, d *cloneDodo)
		diskGone, failPush     bool
		opens                  int64
	}{
		{name: "write since the snapshot", inHand: true, opens: 0,
			setup: func(c *Cache, fd int, d *cloneDodo) {
				if _, err := c.Cwrite(fd, 0, make([]byte, n/2)); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "write during Mopen", inHand: true, opens: 1,
			inMopen: func(c *Cache, fd int, d *cloneDodo) {
				if _, err := c.Cwrite(fd, 0, make([]byte, n/2)); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "disk read fails", diskGone: true, opens: 1},
		{name: "push fails", inHand: true, failPush: true, opens: 1},
		{name: "closed during push", inHand: true, opens: 1,
			inPush: func(c *Cache, fd int, d *cloneDodo) {
				if err := c.Cclose(fd); err != nil {
					t.Fatal(err)
				}
			}},
	} {
		t.Run(row.name, func(t *testing.T) {
			d := &cloneDodo{benchDodo: newBenchDodo(1<<20, 0)}
			back := &flakyBacking{MemBacking: core.NewMemBacking(1, n)}
			c := NewCache(d, Config{Capacity: n / 2, Policy: LRU, PromoteOnAccess: true})
			fd, err := c.Copen(n, back, 0)
			if err != nil {
				t.Fatal(err)
			}
			var data []byte
			if row.inHand {
				data = make([]byte, n)
			}
			if row.setup != nil {
				row.setup(c, fd, d)
			}
			if row.inMopen != nil {
				d.inMopen = func() { row.inMopen(c, fd, d) }
			}
			if row.inPush != nil {
				d.inPush = func() { row.inPush(c, fd, d) }
			}
			d.failPush = row.failPush
			if row.diskGone {
				back.mode.Store(diskGone)
			}
			if c.cloneRemote(fd, data, 0, false) {
				t.Fatal("cloneRemote reported a remote copy")
			}
			if got := d.mopens.Load(); got != row.opens {
				t.Fatalf("%d Mopens, want %d", got, row.opens)
			}
			var held []int
			c.mu.Lock()
			if r := c.lookup(fd); r != nil {
				if r.cloning || r.clonePend != nil {
					t.Error("the region is still cloning")
				}
				if r.remoteFD >= 0 {
					held = append(held, r.remoteFD)
				}
			}
			c.mu.Unlock()
			d.mu.Lock()
			var open []int
			for mfd := range d.regions {
				open = append(open, mfd)
			}
			d.mu.Unlock()
			if !slices.Equal(open, held) {
				t.Fatalf("descriptors %v open, want only the region's remote copy %v", open, held)
			}
		})
	}
}
