package region

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dodo/internal/core"
)

// benchDodo is a thread-safe Dodo fake that charges a fixed latency per
// remote operation, outside its own lock, so concurrent callers overlap
// the way real network round-trips do. The cache under test decides how
// much of that overlap survives: a cache that holds its global mutex
// across Mread serializes every sleep. The op counters let concurrency
// tests observe fetch coalescing.
type benchDodo struct {
	latency time.Duration

	mopens, mreads, mwrites, mcloses atomic.Int64

	mu       sync.Mutex
	capacity int64
	used     int64
	nextFD   int
	regions  map[int]*fakeRegion
}

// remoteUsed reports the bytes currently allocated in the fake remote
// cache — zero once every clone has been released.
func (f *benchDodo) remoteUsed() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.used
}

func newBenchDodo(capacity int64, latency time.Duration) *benchDodo {
	return &benchDodo{capacity: capacity, latency: latency, regions: make(map[int]*fakeRegion)}
}

func (f *benchDodo) Mopen(length int64, backing core.Backing, offset int64) (int, error) {
	f.mopens.Add(1)
	time.Sleep(f.latency)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.used+length > f.capacity {
		return -1, core.ErrNoMem
	}
	fd := f.nextFD
	f.nextFD++
	f.regions[fd] = &fakeRegion{data: make([]byte, length), backing: backing, backOff: offset}
	f.used += length
	return fd, nil
}

func (f *benchDodo) Mread(fd int, offset int64, buf []byte) (int, error) {
	f.mreads.Add(1)
	time.Sleep(f.latency)
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.regions[fd]
	if !ok {
		return -1, core.ErrNoMem
	}
	return copy(buf, r.data[offset:]), nil
}

func (f *benchDodo) Mwrite(fd int, offset int64, buf []byte) (int, error) {
	f.mwrites.Add(1)
	time.Sleep(f.latency)
	f.mu.Lock()
	r, ok := f.regions[fd]
	if !ok {
		f.mu.Unlock()
		return -1, core.ErrNoMem
	}
	n := copy(r.data[offset:], buf)
	backing, backOff := r.backing, r.backOff
	f.mu.Unlock()
	// Write-through to disk, like the real Mwrite.
	if _, err := backing.WriteAt(buf[:n], backOff+offset); err != nil {
		return -1, err
	}
	return n, nil
}

func (f *benchDodo) Mclose(fd int) error {
	f.mcloses.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.regions[fd]
	if !ok {
		return core.ErrInval
	}
	f.used -= int64(len(r.data))
	delete(f.regions, fd)
	return nil
}

func (f *benchDodo) Msync(fd int) error { return nil }

// slowBacking wraps a MemBacking with a per-I/O seek latency, modeling
// the disk a read-through pays when a region is neither local nor
// remote.
type slowBacking struct {
	inner   *core.MemBacking
	latency time.Duration
}

func (b *slowBacking) ReadAt(p []byte, off int64) (int, error) {
	time.Sleep(b.latency)
	return b.inner.ReadAt(p, off)
}

func (b *slowBacking) WriteAt(p []byte, off int64) (int, error) {
	time.Sleep(b.latency)
	return b.inner.WriteAt(p, off)
}

func (b *slowBacking) Sync() error    { return b.inner.Sync() }
func (b *slowBacking) Inode() uint64  { return b.inner.Inode() }
func (b *slowBacking) Writable() bool { return b.inner.Writable() }

// BenchmarkCreadParallel drives 8 goroutines through a mixed population
// — 64 local, 32 remote, 32 disk-only regions — with promotion disabled
// so the population is stable across iterations. The first-in policy
// refuses victims once the cache fills, which is what pins the three
// classes in place. Remote reads cost 30µs, disk reads 60µs; how much
// of that latency the 8 readers can overlap is the measurement.
func BenchmarkCreadParallel(b *testing.B) {
	const (
		regionSize = 4096
		nLocal     = 64
		nRemote    = 32
		nDisk      = 32
		readers    = 8
	)
	fake := newBenchDodo(1<<30, 30*time.Microsecond)
	back := &slowBacking{
		inner:   core.NewMemBacking(1, (nLocal+nRemote+nDisk)*regionSize),
		latency: 60 * time.Microsecond,
	}
	c := NewCache(fake, Config{
		Capacity:        nLocal * regionSize,
		Policy:          FirstIn,
		PromoteOnAccess: false,
	})
	var fds []int
	for i := 0; i < nLocal+nRemote+nDisk; i++ {
		fd, err := c.Copen(regionSize, back, int64(i)*regionSize)
		if err != nil {
			b.Fatal(err)
		}
		fds = append(fds, fd)
		if i >= nLocal && i < nLocal+nRemote {
			// The cache is full and first-in refuses victims, so the
			// prefetch stages this region in remote memory.
			c.Prefetch(fd)
			if st, _ := c.State(fd); st != StateRemote {
				b.Fatalf("region %d state = %v, want remote", i, st)
			}
		}
	}
	// Reads hit offset 512 for 1 KB: never a full-region read, so
	// read-through cannot opportunistically migrate the disk class.
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 1024)
			for i := g; i < b.N; i += readers {
				fd := fds[(i*13+g)%len(fds)]
				if _, err := c.Cread(fd, 512, buf); err != nil {
					b.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkPrefetchPipeline walks a long sequential file through a
// small cache. With PrefetchWorkers=0 every prefetch pull runs inline
// on the reading goroutine, so the walk pays each region's fetch
// latency in the foreground; with a worker pool the pulls for the next
// PrefetchWindow regions overlap the current read. The gap between the
// two sub-benchmarks is the pipelining win.
func BenchmarkPrefetchPipeline(b *testing.B) {
	const (
		regionSize = 4096
		nRegions   = 128
	)
	for _, workers := range []int{0, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			fake := newBenchDodo(1<<30, 30*time.Microsecond)
			back := &slowBacking{
				inner:   core.NewMemBacking(1, nRegions*regionSize),
				latency: 60 * time.Microsecond,
			}
			c := NewCache(fake, Config{
				Capacity:           8 * regionSize,
				Policy:             LRU,
				PromoteOnAccess:    true,
				SequentialPrefetch: true,
				PrefetchWindow:     4,
				PrefetchWorkers:    workers,
			})
			defer c.Close()
			var fds []int
			for i := 0; i < nRegions; i++ {
				fd, err := c.Copen(regionSize, back, int64(i)*regionSize)
				if err != nil {
					b.Fatal(err)
				}
				fds = append(fds, fd)
			}
			buf := make([]byte, regionSize)
			b.SetBytes(regionSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Cread(fds[i%nRegions], 0, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// hitSetRegions and hitSetRegion shape the working set of the hit
// benchmarks below: 64 regions of 8 KB, all resident.
const (
	hitSetRegions = 64
	hitSetRegion  = 8192
)

// openHitSet opens the hit benchmarks' working set in a cache that holds
// all of it, so that every read of a whole region is a local hit.
func openHitSet(b *testing.B) (*Cache, []int) {
	c := NewCache(newBenchDodo(1<<30, 0), Config{Capacity: hitSetRegions * hitSetRegion, Policy: LRU, PromoteOnAccess: true})
	back := core.NewMemBacking(1, hitSetRegions*hitSetRegion)
	fds := make([]int, hitSetRegions)
	for i := range fds {
		fd, err := c.Copen(hitSetRegion, back, int64(i)*hitSetRegion)
		if err != nil {
			b.Fatal(err)
		}
		fds[i] = fd
	}
	b.SetBytes(hitSetRegion)
	b.ReportAllocs()
	b.ResetTimer()
	return c, fds
}

// checkAllHits fails the benchmark if a read of the working set missed.
func checkAllHits(b *testing.B, c *Cache) {
	if s := c.Stats(); s.Promotions != 0 || s.Evictions != 0 {
		b.Fatalf("%d promotions, %d evictions: not every read was a hit", s.Promotions, s.Evictions)
	}
}

// BenchmarkCreadLocalHitParallel: every GOMAXPROCS goroutine reads whole
// 8 KB regions out of 64 resident ones, so every read is a local hit.
// The hits take no lock: they share only the clock's line.
func BenchmarkCreadLocalHitParallel(b *testing.B) {
	c, fds := openHitSet(b)
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		buf := make([]byte, hitSetRegion)
		for i := int(next.Add(1)) * 7; pb.Next(); i++ {
			if _, err := c.Cread(fds[i%hitSetRegions], 0, buf); err != nil {
				b.Error(err)
				return
			}
		}
	})
	checkAllHits(b, c)
}

// BenchmarkCreadLocalHitSerial is BenchmarkCreadLocalHitParallel with one
// reader: the same 64 whole 8 KB regions, read in turn. It is the
// single-reader figure the parallel one compares with to say whether
// hits scale. BenchmarkCreadLocalHit is not: it slides an 8 KB window
// over one 1 MB region in 8-byte steps, so its copies stay in the
// core's cache while these move 512 KB.
func BenchmarkCreadLocalHitSerial(b *testing.B) {
	c, fds := openHitSet(b)
	buf := make([]byte, hitSetRegion)
	for i := 0; i < b.N; i++ {
		if _, err := c.Cread(fds[i%hitSetRegions], 0, buf); err != nil {
			b.Fatal(err)
		}
	}
	checkAllHits(b, c)
}

// hitSetBuffers opens the hit benchmarks' working set and returns its
// regions' local buffers, the ones a hit copies out of.
func hitSetBuffers(b *testing.B) [][]byte {
	c, fds := openHitSet(b)
	srcs := make([][]byte, len(fds))
	for i, fd := range fds {
		srcs[i] = c.lookup(fd).local.buf
	}
	return srcs
}

// BenchmarkCopyOnlyParallel is BenchmarkCreadLocalHitParallel's copies
// alone: a bare copy out of the same buffers, in the same order, with
// no cache in the way. A hit's overhead is the hit benchmark's ns/op
// minus this one's at the same -cpu.
func BenchmarkCopyOnlyParallel(b *testing.B) {
	srcs := hitSetBuffers(b)
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		buf := make([]byte, hitSetRegion)
		for i := int(next.Add(1)) * 7; pb.Next(); i++ {
			copy(buf, srcs[i%hitSetRegions])
		}
	})
}

// BenchmarkCopyOnlySerial is BenchmarkCreadLocalHitSerial's copies
// alone, as BenchmarkCopyOnlyParallel is the parallel one's.
func BenchmarkCopyOnlySerial(b *testing.B) {
	srcs := hitSetBuffers(b)
	buf := make([]byte, hitSetRegion)
	for i := 0; i < b.N; i++ {
		copy(buf, srcs[i%hitSetRegions])
	}
}

// BenchmarkCreadLocalHitParallelFit8K is fit8k-unet's shape: two
// goroutines read whole 8 KB regions, picked at random, out of 1,536
// resident ones (12 MB), and check each read byte for byte against a
// shadow copy. Every read is a hit, so what it measures is the hit
// path's cost with two readers, the copies and the checks included.
func BenchmarkCreadLocalHitParallelFit8K(b *testing.B) {
	const (
		n       = 8192
		regions = 1536
		readers = 2
	)
	shadow := make([]byte, regions*n)
	rand.New(rand.NewSource(1)).Read(shadow)
	back := core.NewMemBacking(1, regions*n)
	if _, err := back.WriteAt(shadow, 0); err != nil {
		b.Fatal(err)
	}
	c := NewCache(newBenchDodo(1<<30, 0), Config{Capacity: regions * n, Policy: LRU, PromoteOnAccess: true})
	fds := make([]int, regions)
	for i := range fds {
		fd, err := c.Copen(n, back, int64(i)*n)
		if err != nil {
			b.Fatal(err)
		}
		fds[i] = fd
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			buf := make([]byte, n)
			for i := g; i < b.N; i += readers {
				k := rng.Intn(regions)
				if _, err := c.Cread(fds[k], 0, buf); err != nil || !bytes.Equal(buf, shadow[k*n:(k+1)*n]) {
					b.Errorf("region %d: %v, or other bytes", k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s := c.Stats(); s.Promotions != 0 || s.Evictions != 0 {
		b.Fatalf("%d promotions, %d evictions: not every read was a hit", s.Promotions, s.Evictions)
	}
}
