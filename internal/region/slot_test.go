package region

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dodo/internal/core"
	"dodo/internal/locks"
	"dodo/internal/sim"
)

// halfDodo is a Dodo whose Mread, while fail is set, writes half the
// caller's buffer and then fails the way a crashed host does.
type halfDodo struct {
	*benchDodo
	fail atomic.Bool
}

func (h *halfDodo) Mread(fd int, offset int64, buf []byte) (int, error) {
	if h.fail.Load() {
		for i := range buf[:len(buf)/2] {
			buf[i] = 0x55
		}
		return -1, fmt.Errorf("%w: host went away mid-transfer", core.ErrNoMem)
	}
	return h.benchDodo.Mread(fd, offset, buf)
}

// Modes of a flakyBacking.
const (
	diskOK    = iota
	diskShort // ReadAt supplies a quarter of what was asked, then fails
	diskGone  // ReadAt fails with nothing read
	diskRO    // WriteAt fails
)

// flakyBacking is a MemBacking whose reads or writes fail on request.
type flakyBacking struct {
	*core.MemBacking
	mode atomic.Int32
}

func (b *flakyBacking) ReadAt(p []byte, off int64) (int, error) {
	switch b.mode.Load() {
	case diskShort:
		n, _ := b.MemBacking.ReadAt(p[:len(p)/4], off)
		return n, io.ErrUnexpectedEOF
	case diskGone:
		return 0, errors.New("disk gone")
	}
	return b.MemBacking.ReadAt(p, off)
}

func (b *flakyBacking) WriteAt(p []byte, off int64) (int, error) {
	if b.mode.Load() == diskRO {
		return 0, errors.New("disk read-only")
	}
	return b.MemBacking.WriteAt(p, off)
}

// resident opens a region of n bytes of fill over a backing of its own
// and leaves it in the local cache; the cache must have room, or a
// clean resident to evict.
func resident(t *testing.T, c *Cache, inode uint64, n int64, fill byte) int {
	t.Helper()
	back := core.NewMemBacking(inode, int(n))
	if _, err := back.WriteAt(bytes.Repeat([]byte{fill}, int(n)), 0); err != nil {
		t.Fatal(err)
	}
	fd, err := c.Copen(n, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := c.State(fd); st != StateLocal {
		t.Fatalf("setup: victim is %v, want local", st)
	}
	return fd
}

// TestFillOverEvictedSlotShowsNoVictimBytes: a fill reads into the
// buffer its victim just left, so whatever no source supplies has to be
// cleared, not assumed zero. The remote read writes half the buffer and
// fails, or is not tried at all (a suspect copy past its refraction
// period, which is revived from disk); the disk then supplies a quarter
// of the region, or nothing. What the region reads back is the disk's
// bytes and zeros: never the victim's 0xAA, never the failed read's 0x55.
func TestFillOverEvictedSlotShowsNoVictimBytes(t *testing.T) {
	const n = 8192
	for _, tc := range []struct {
		name   string
		revive bool
		disk   int32
		want   []byte
	}{
		{"remote fails half-way, disk short", false, diskShort, append(bytes.Repeat([]byte{0x11}, n/4), make([]byte, n-n/4)...)},
		{"remote fails half-way, disk gone", false, diskGone, make([]byte, n)},
		{"revival, disk short", true, diskShort, append(bytes.Repeat([]byte{0x11}, n/4), make([]byte, n-n/4)...)},
		{"revival, disk gone", true, diskGone, make([]byte, n)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := sim.NewVirtualClock(time.Unix(0, 0))
			fake := &halfDodo{benchDodo: newBenchDodo(1<<20, 0)}
			back := &flakyBacking{MemBacking: core.NewMemBacking(1, 4*n)}
			c := NewCache(fake, Config{
				Capacity: n, Policy: LRU, PromoteOnAccess: true,
				RefractionPeriod: time.Minute, Clock: clock,
			})
			fd := remoteOnly(t, c, back, 0, n, 0x11)
			got := make([]byte, n)
			if tc.revive {
				// One failed read marks the remote copy suspect (the disk
				// serves the fill); the victim's arrival then pushes the
				// region out again, and the refraction period runs out.
				fake.fail.Store(true)
				if _, err := c.Cread(fd, 0, got); err != nil || got[0] != 0x11 {
					t.Fatalf("setup read = 0x%02x, %v", got[0], err)
				}
				fake.fail.Store(false)
			}
			victim := resident(t, c, 2, n, 0xAA)
			if st, _ := c.State(fd); st != StateRemote {
				t.Fatalf("setup: region is %v, want remote", st)
			}
			if tc.revive {
				clock.Advance(2 * time.Minute)
			} else {
				fake.fail.Store(true)
			}
			back.mode.Store(tc.disk)

			if _, err := c.Cread(fd, 0, got); err != nil {
				t.Fatal(err)
			}
			if st, _ := c.State(fd); st != StateLocalRemote {
				t.Fatalf("region is %v after the read, want local+remote: the fill did not run", st)
			}
			if !bytes.Equal(got, tc.want) {
				for i := range got {
					if got[i] != tc.want[i] {
						t.Fatalf("byte %d of the filled region is 0x%02x, want 0x%02x (0xaa is the victim's, 0x55 the failed read's)", i, got[i], tc.want[i])
					}
				}
			}
			// The victim went to remote memory with its bytes, and comes
			// back with them.
			fake.fail.Store(false)
			if _, err := c.Cread(victim, 0, got); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0xAA}, n)) {
				t.Fatalf("victim reads 0x%02x…0x%02x, %v; want its own 0xaa", got[0], got[n-1], err)
			}
		})
	}
}

// allocatedPer runs f runs times and returns the bytes allocated per run.
func allocatedPer(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestFillOverEqualSlotAllocatesNoBuffer: in steady state a miss evicts
// a region of the size it fills, and fills into the buffer that region
// left: markers and the victim list are all it allocates. A victim of
// another length is no use, and the fill allocates as it always did.
func TestFillOverEqualSlotAllocatesNoBuffer(t *testing.T) {
	if locks.CheckEnabled {
		t.Skip("the lockcheck runtime allocates on every Lock")
	}
	const n = 128 << 10
	// pingPong opens two regions of the given sizes in a cache that
	// holds only the larger, gives both a remote copy, and returns a
	// function that reads one, then the other: two misses, each
	// evicting the region the other one filled.
	pingPong := func(t *testing.T, sizes [2]int64) func() {
		fake := newBenchDodo(1<<20, 0)
		back := core.NewMemBacking(1, 4*n)
		c := NewCache(fake, Config{Capacity: n, Policy: LRU, PromoteOnAccess: true})
		var fds [2]int
		var want [2][]byte
		for i, size := range sizes {
			want[i] = bytes.Repeat([]byte{byte(0xA0 + i)}, int(size))
			if _, err := back.WriteAt(want[i], int64(i)*n); err != nil {
				t.Fatal(err)
			}
			fd, err := c.Copen(size, back, int64(i)*n)
			if err != nil {
				t.Fatal(err)
			}
			fds[i] = fd
		}
		got := make([]byte, n)
		read := func() {
			for i, fd := range fds {
				if _, err := c.Cread(fd, 0, got[:sizes[i]]); err != nil || !bytes.Equal(got[:sizes[i]], want[i]) {
					t.Fatalf("region %d reads 0x%02x…, %v; want 0x%02x", i, got[0], err, want[i][0])
				}
			}
		}
		read() // both have a remote copy from here on: evictions clone nothing
		if st, _ := c.State(fds[0]); st != StateRemote {
			t.Fatalf("setup: region 0 is %v after region 1 was read, want remote", st)
		}
		return read
	}

	t.Run("equal sizes", func(t *testing.T) {
		read := pingPong(t, [2]int64{n, n})
		if allocs := testing.AllocsPerRun(100, read); allocs > 20 {
			t.Errorf("two misses allocate %.0f times, want at most 20", allocs)
		}
		if b := allocatedPer(100, read); b > 2*1024 {
			t.Errorf("two misses of %d bytes allocate %d bytes, want under 1 KB each", n, b)
		}
	})
	t.Run("unequal sizes", func(t *testing.T) {
		read := pingPong(t, [2]int64{n, n / 2})
		if b := allocatedPer(100, read); b < n+n/2 {
			t.Errorf("misses of %d and %d bytes over each other's slots allocate %d bytes: a slot of the wrong length was used", n, n/2, b)
		}
	})
}

// TestReinstalledVictimKeepsItsBuffer: a victim whose flush failed goes
// back into the cache with the only copy of its bytes, so the fill that
// evicted it must not have taken its buffer.
func TestReinstalledVictimKeepsItsBuffer(t *testing.T) {
	const n = 4096
	fake := newBenchDodo(n, 0) // remote memory for one region: the victim gets no clone
	back := core.NewMemBacking(1, 4*n)
	c := NewCache(fake, Config{Capacity: n, Policy: LRU, PromoteOnAccess: true})
	fd := remoteOnly(t, c, back, 0, n, 0x11)

	vback := &flakyBacking{MemBacking: core.NewMemBacking(2, n)}
	victim, err := c.Copen(n, vback, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cwrite(victim, 0, bytes.Repeat([]byte{0xAA}, n)); err != nil {
		t.Fatal(err)
	}
	vback.mode.Store(diskRO)

	got := make([]byte, n)
	if _, err := c.Cread(fd, 0, got); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0x11}, n)) {
		t.Fatalf("Cread = 0x%02x…0x%02x, %v; want the region's 0x11", got[0], got[n-1], err)
	}
	if st, _ := c.State(victim); st != StateLocal {
		t.Fatalf("victim is %v after its flush failed, want local (reinstalled)", st)
	}
	if st, _ := c.State(fd); st != StateLocalRemote {
		t.Fatalf("region is %v, want local+remote", st)
	}
	checkResidentSet(t, c) // the reinstalled victim is resident again
	// Both are resident now. If they shared a buffer, this write would
	// show in the victim.
	if _, err := c.Cwrite(fd, 0, bytes.Repeat([]byte{0xBB}, n)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cread(victim, 0, got); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0xAA}, n)) {
		t.Fatalf("victim reads 0x%02x…0x%02x, %v; want its own 0xaa", got[0], got[n-1], err)
	}
}
