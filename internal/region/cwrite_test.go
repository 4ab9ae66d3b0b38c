package region

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"dodo/internal/core"
)

// holdDodo parks an Mwrite, once armed, until released, so a test
// decides what else runs while a push is in flight.
type holdDodo struct {
	*benchDodo
	armed   atomic.Bool
	entered chan struct{} // signalled when an armed Mwrite is reached
	release chan struct{} // the parked Mwrite waits on this
}

func newHoldDodo(capacity int64) *holdDodo {
	return &holdDodo{
		benchDodo: newBenchDodo(capacity, 0),
		entered:   make(chan struct{}, 1),
		release:   make(chan struct{}),
	}
}

func (h *holdDodo) Mwrite(fd int, offset int64, buf []byte) (int, error) {
	if h.armed.CompareAndSwap(true, false) {
		h.entered <- struct{}{}
		<-h.release
	}
	return h.benchDodo.Mwrite(fd, offset, buf)
}

// remoteOnly opens a region of n bytes holding fill at offset off of
// back and leaves it in remote memory only, the local cache empty: a
// second region of the same size pushes it out and is closed again.
// The cache must hold exactly one such region.
func remoteOnly(t *testing.T, c *Cache, back core.Backing, off, n int64, fill byte) int {
	t.Helper()
	if _, err := back.WriteAt(bytes.Repeat([]byte{fill}, int(n)), off); err != nil {
		t.Fatal(err)
	}
	fd, err := c.Copen(n, back, off)
	if err != nil {
		t.Fatal(err)
	}
	pusher, err := c.Copen(n, back, off+n)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cclose(pusher); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.State(fd); st != StateRemote || c.Used() != 0 {
		t.Fatalf("setup: region is %v with %d bytes cached, want remote and 0", st, c.Used())
	}
	return fd
}

// TestWriteThroughExcludesFill: a fill that starts while a
// write-through's Mwrite is in flight must not fetch the bytes the
// write replaces and install them after the write returned (the fourth
// "flake" of ROADMAP item 2: TestConcurrentRegionOps read back the
// previous write about 1 run in 100).
func TestWriteThroughExcludesFill(t *testing.T) {
	const n = 4096
	fake := newHoldDodo(1 << 20)
	back := core.NewMemBacking(1, 4*n)
	// No promotion on access: a write to a non-resident region writes
	// through, and only the explicit Prefetch below fills.
	c := NewCache(fake, Config{Capacity: n, Policy: LRU})
	fd := remoteOnly(t, c, back, 0, n, 0xAA)

	fresh := bytes.Repeat([]byte{0xBB}, n/2)
	fake.armed.Store(true)
	wrote := make(chan error, 1)
	go func() {
		_, err := c.Cwrite(fd, 0, fresh)
		wrote <- err
	}()
	<-fake.entered // the write-through is parked in Mwrite, nothing applied yet

	// The fill: at the parent it reads the old remote bytes now and
	// installs them as the local copy.
	c.Prefetch(fd)

	close(fake.release)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	got := make([]byte, n/2)
	if _, err := c.Cread(fd, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatalf("read 0x%02x after an acknowledged write of 0x%02x: a fill installed the bytes the write replaced", got[0], fresh[0])
	}
}

// TestFullOverwriteFetchesNothing: a Cwrite covering a whole
// non-resident region installs the caller's bytes and reads nothing
// from remote memory or disk, whether they go into a fresh buffer or
// into the one an evicted region of the same size just left; a partial
// one still fetches the region first.
func TestFullOverwriteFetchesNothing(t *testing.T) {
	const n = 4096
	for _, tc := range []struct {
		name       string
		write      int
		victim     bool // a resident of 0xDD bytes is evicted to make room
		mreads     int64
		overwrites int64
	}{
		{"whole region", n, false, 0, 1},
		{"whole region into an evicted slot", n, true, 0, 1},
		{"half region", n / 2, false, 1, 0},
		{"half region into an evicted slot", n / 2, true, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fake := newBenchDodo(1<<20, 0)
			back := core.NewMemBacking(1, 4*n)
			c := NewCache(fake, Config{Capacity: n, Policy: LRU, PromoteOnAccess: true})
			fd := remoteOnly(t, c, back, 0, n, 0xAA)
			victim := -1
			if tc.victim {
				victim = resident(t, c, 2, n, 0xDD)
			}
			mreads, disk := fake.mreads.Load(), c.Stats().DiskReads

			fresh := bytes.Repeat([]byte{0xBB}, tc.write)
			if got, err := c.Cwrite(fd, 0, fresh); err != nil || got != tc.write {
				t.Fatalf("Cwrite = %d, %v", got, err)
			}
			// The cache keeps a copy: the caller's buffer is its own again.
			fresh[0] = 0xCC
			if got := fake.mreads.Load() - mreads; got != tc.mreads {
				t.Errorf("Cwrite of %d bytes cost %d Mread, want %d", tc.write, got, tc.mreads)
			}
			st := c.Stats()
			if st.DiskReads != disk || st.Overwrites != tc.overwrites {
				t.Errorf("DiskReads moved by %d, Overwrites = %d; want 0 and %d", st.DiskReads-disk, st.Overwrites, tc.overwrites)
			}
			if state, _ := c.State(fd); state != StateLocalRemote {
				t.Errorf("state after the write = %v, want local+remote", state)
			}
			want := append(bytes.Repeat([]byte{0xBB}, tc.write), bytes.Repeat([]byte{0xAA}, n-tc.write)...)
			got := make([]byte, n)
			if _, err := c.Cread(fd, 0, got); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Cread after the write = 0x%02x…0x%02x, %v", got[0], got[n-1], err)
			}
			if !tc.victim {
				return
			}
			if e := c.Stats().Evictions - 1; e != 1 { // remoteOnly's own eviction is the other
				t.Errorf("the write evicted %d regions, want 1", e)
			}
			if _, err := c.Cread(victim, 0, got); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0xDD}, n)) {
				t.Fatalf("the evicted region reads 0x%02x…0x%02x, %v; want its own 0xdd", got[0], got[n-1], err)
			}
		})
	}
}

// TestFullOverwriteReachesRemoteAndDisk: the installed bytes are a
// dirty local copy like any other — Csync pushes them, and so does the
// eviction that makes room for another region.
func TestFullOverwriteReachesRemoteAndDisk(t *testing.T) {
	const n = 4096
	onDisk := func(t *testing.T, back core.Backing) byte {
		t.Helper()
		b := make([]byte, n)
		if _, err := back.ReadAt(b, 0); err != nil {
			t.Fatal(err)
		}
		return b[n-1]
	}
	setup := func(t *testing.T) (*Cache, *benchDodo, core.Backing, int) {
		fake := newBenchDodo(1<<20, 0)
		back := core.NewMemBacking(1, 4*n)
		c := NewCache(fake, Config{Capacity: n, Policy: LRU, PromoteOnAccess: true})
		fd := remoteOnly(t, c, back, 0, n, 0xAA)
		if _, err := c.Cwrite(fd, 0, bytes.Repeat([]byte{0xBB}, n)); err != nil {
			t.Fatal(err)
		}
		if b := onDisk(t, back); b != 0xAA {
			t.Fatalf("disk holds 0x%02x before any flush, want the old 0xaa (write-back)", b)
		}
		return c, fake, back, fd
	}
	t.Run("csync", func(t *testing.T) {
		c, fake, back, fd := setup(t)
		before := fake.mwrites.Load()
		if err := c.Csync(fd); err != nil {
			t.Fatal(err)
		}
		if pushed := fake.mwrites.Load() - before; pushed != 1 || onDisk(t, back) != 0xBB {
			t.Fatalf("Csync made %d Mwrite and left 0x%02x on disk, want 1 and 0xbb", pushed, onDisk(t, back))
		}
	})
	t.Run("eviction", func(t *testing.T) {
		c, fake, back, fd := setup(t)
		before := fake.mwrites.Load()
		other, err := c.Copen(n, back, 2*n)
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := c.State(fd); st != StateRemote {
			t.Fatalf("state after eviction = %v, want remote", st)
		}
		// One push for the victim's flush; the newcomer is disk-only.
		if pushed := fake.mwrites.Load() - before; pushed != 1 || onDisk(t, back) != 0xBB {
			t.Fatalf("eviction made %d Mwrite and left 0x%02x on disk, want 1 and 0xbb", pushed, onDisk(t, back))
		}
		if err := c.Cclose(other); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, n)
		if _, err := c.Cread(fd, 0, got); err != nil || got[0] != 0xBB || got[n-1] != 0xBB {
			t.Fatalf("Cread after eviction = 0x%02x…0x%02x, %v", got[0], got[n-1], err)
		}
	})
}

// TestFullOverwriteRefusedWritesThrough: when the policy gives up no
// room the region stays non-resident and the write takes the
// write-through path, as it did before.
func TestFullOverwriteRefusedWritesThrough(t *testing.T) {
	const n = 4096
	fake := newBenchDodo(1<<20, 0)
	back := core.NewMemBacking(1, 4*n)
	// First-in keeps its first resident for good.
	c := NewCache(fake, Config{Capacity: n, Policy: FirstIn, PromoteOnAccess: true})
	if _, err := c.Copen(n, back, 0); err != nil {
		t.Fatal(err)
	}
	fd, err := c.Copen(n, back, n)
	if err != nil {
		t.Fatal(err)
	}
	fresh := bytes.Repeat([]byte{0xBB}, n)
	if got, err := c.Cwrite(fd, 0, fresh); err != nil || got != n {
		t.Fatalf("Cwrite = %d, %v", got, err)
	}
	if st, _ := c.State(fd); st == StateLocal || st == StateLocalRemote {
		t.Fatalf("state = %v: the refused region went local", st)
	}
	if o := c.Stats().Overwrites; o != 0 {
		t.Errorf("Overwrites = %d for a write the cache had no room for", o)
	}
	got := make([]byte, n)
	if _, err := back.ReadAt(got, n); err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("disk holds 0x%02x after the write-through, want 0xbb (%v)", got[0], err)
	}
	if _, err := c.Cread(fd, 0, got); err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("Cread = 0x%02x, %v; want the written 0xbb", got[0], err)
	}
}

// TestFullOverwriteHoldsMarker: while the overwrite waits for its
// victim's flush the region carries the fill's marker, so a concurrent
// Cread waits and then sees the new bytes — never the zeros of an
// unfetched buffer, never the old contents.
func TestFullOverwriteHoldsMarker(t *testing.T) {
	const n = 4096
	fake := newHoldDodo(1 << 20)
	back := core.NewMemBacking(1, 4*n)
	c := NewCache(fake, Config{Capacity: n, Policy: LRU, PromoteOnAccess: true})
	fd := remoteOnly(t, c, back, 0, n, 0xAA)
	// A dirty resident with a remote copy: evicting it is an Mwrite.
	victim := dirtyResident(t, c, back, 2*n, n)

	fresh := bytes.Repeat([]byte{0xBB}, n)
	fake.armed.Store(true)
	wrote := make(chan error, 1)
	go func() {
		_, err := c.Cwrite(fd, 0, fresh)
		wrote <- err
	}()
	<-fake.entered // the victim's flush is parked; fd's marker is up

	got := make([]byte, n)
	read := make(chan error, 1)
	go func() {
		_, err := c.Cread(fd, 0, got)
		read <- err
	}()
	select {
	case err := <-read:
		t.Fatalf("Cread returned (%v, 0x%02x) while the overwrite held the region's marker", err, got[0])
	case <-time.After(20 * time.Millisecond):
	}
	close(fake.release)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if err := <-read; err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("Cread behind the marker = 0x%02x…0x%02x, %v; want the written 0xbb", got[0], got[n-1], err)
	}
	if err := c.Cclose(victim); err != nil {
		t.Fatal(err)
	}
}

// dirtyResident opens a region at off, gives it a remote copy (Csync
// of a dirty region without one clones it) and leaves it resident and
// dirty again, so that evicting it costs one Mwrite.
func dirtyResident(t *testing.T, c *Cache, back core.Backing, off, n int64) int {
	t.Helper()
	fd, err := c.Copen(n, back, off)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cwrite(fd, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Csync(fd); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cwrite(fd, 0, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.State(fd); st != StateLocalRemote {
		t.Fatalf("setup: victim is %v, want local+remote", st)
	}
	return fd
}
