package region

import (
	"bytes"
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
