package workload

import (
	"fmt"
	"time"

	"dodo/internal/core"
	"dodo/internal/region"
	"dodo/internal/simdisk"
	"dodo/internal/simnet"
)

// VirtualTime accumulates simulated time for one run. It satisfies
// sim.Clock so the region cache's refraction timer and any other
// time-dependent component observe the run's own timeline.
type VirtualTime struct {
	start time.Time
	total time.Duration
}

// NewVirtualTime starts a timeline.
func NewVirtualTime() *VirtualTime {
	return &VirtualTime{start: time.Date(1999, 8, 1, 0, 0, 0, 0, time.UTC)}
}

// Add charges d of simulated time.
func (v *VirtualTime) Add(d time.Duration) { v.total += d }

// Total returns the accumulated time.
func (v *VirtualTime) Total() time.Duration { return v.total }

// Now returns the position on the timeline.
func (v *VirtualTime) Now() time.Time { return v.start.Add(v.total) }

// Sleep advances the timeline (sim.Clock).
func (v *VirtualTime) Sleep(d time.Duration) { v.Add(d) }

// Storage is the stack under test: it serves one request and returns
// its simulated service time.
type Storage interface {
	Read(off, size int64) (time.Duration, error)
	Write(off, size int64) (time.Duration, error)
}

// Run executes a benchmark spec against a storage stack and returns the
// total simulated run time and the per-iteration times.
func Run(spec Spec, st Storage) (total time.Duration, perIter []time.Duration, err error) {
	iters := spec.Iterations
	if iters <= 0 {
		iters = 4
	}
	for it := 0; it < iters; it++ {
		var t time.Duration
		for _, req := range spec.Pattern.Iteration(it) {
			var d time.Duration
			var err error
			if req.Write {
				d, err = st.Write(req.Offset, req.Size)
			} else {
				d, err = st.Read(req.Offset, req.Size)
			}
			if err != nil {
				return 0, nil, fmt.Errorf("workload: iteration %d offset %d: %w", it, req.Offset, err)
			}
			t += d + spec.Compute
		}
		perIter = append(perIter, t)
		total += t
	}
	return total, perIter, nil
}

// DiskStorage is the no-Dodo baseline: every read goes to the local
// filesystem (disk model + OS page cache).
type DiskStorage struct {
	Disk *simdisk.Disk
	File uint64
}

// Read serves one request from the filesystem.
func (d *DiskStorage) Read(off, size int64) (time.Duration, error) {
	return d.Disk.Read(d.File, off, size), nil
}

// Write buffers one write in the page cache.
func (d *DiskStorage) Write(off, size int64) (time.Duration, error) {
	return d.Disk.Write(d.File, off, size), nil
}

// DodoConfig assembles a Dodo-enabled storage stack for one run.
type DodoConfig struct {
	// Net is the communication cost model (UDP or U-Net).
	Net simnet.CostModel
	// RemoteBytes is the aggregate idle memory (12 x 100 MB = 1200 MB
	// in the paper's experiments).
	RemoteBytes int64
	// LocalCacheBytes is the region-management library's local cache
	// (80 MB in the paper).
	LocalCacheBytes int64
	// RegionSize is the granularity at which the dataset is carved into
	// Dodo regions (defaults to the request size).
	RegionSize int64
	// Policy is the region-replacement policy; the zero value is LRU.
	Policy region.Policy
	// DiskCacheBytes is the OS page cache left on the app node. With
	// the region cache pinning 80 MB, the baseline's page cache budget
	// shrinks accordingly.
	DiskCacheBytes int64
	// Disk is the disk model (default: the paper's Quantum Fireball).
	Disk simdisk.Model
	// RefractionPeriod for failed remote allocations (default 5s).
	RefractionPeriod time.Duration
	// WriteOverlap is the fraction of remote-write time hidden behind
	// the application's other work (default 0.9). Region pushes need no
	// synchronous reply before the application issues its next disk
	// read, so the NIC drains the blast while the app blocks on the
	// disk — only the residual software cost lands on the critical
	// path. Set to a negative value for fully synchronous writes.
	WriteOverlap float64
	// SequentialPrefetch pulls the regions after a detected sequential
	// stream before the workload asks for them. The driver always runs
	// the pipeline with zero workers — pulls execute inline on the
	// faulting call — so virtual-time accounting stays deterministic.
	SequentialPrefetch bool
	// PrefetchWindow is how many regions ahead the prefetcher pulls
	// once a stream is detected (default 1).
	PrefetchWindow int
}

// DodoStorage routes reads through the region-management library backed
// by a cost-accounting Dodo runtime: local region cache, then remote
// cluster memory, then disk — charging the calibrated cost of every hop.
type DodoStorage struct {
	vt      *VirtualTime
	cache   *region.Cache
	dodo    *accountingDodo
	backing *accountingBacking
	disk    *simdisk.Disk
	model   simdisk.Model

	regionSize int64
	fds        map[int64]int
}

// NewDodoStorage builds the stack.
func NewDodoStorage(cfg DodoConfig) *DodoStorage {
	if cfg.RegionSize == 0 {
		cfg.RegionSize = 128 << 10
	}
	model := cfg.Disk
	if model.Name == "" {
		model = simdisk.QuantumFireballST32()
	}
	vt := NewVirtualTime()
	disk := simdisk.NewDisk(model, cfg.DiskCacheBytes)
	backing := &accountingBacking{vt: vt, disk: disk, file: 1}
	overlap := cfg.WriteOverlap
	if overlap == 0 {
		overlap = 0.9
	}
	if overlap < 0 {
		overlap = 0
	}
	dodo := &accountingDodo{vt: vt, net: cfg.Net, capacity: cfg.RemoteBytes, disk: disk,
		writeOverlap: overlap, regions: map[int]int64{}}
	cache := region.NewCache(dodo, region.Config{
		Capacity:         cfg.LocalCacheBytes,
		Policy:           cfg.Policy,
		RefractionPeriod: cfg.RefractionPeriod,
		Clock:            vt,
		PromoteOnAccess:  true,
		// PrefetchWorkers stays 0: pulls run inline on the faulting
		// call, so fault sweeps and virtual-time runs are replayable.
		SequentialPrefetch: cfg.SequentialPrefetch,
		PrefetchWindow:     cfg.PrefetchWindow,
	})
	return &DodoStorage{
		vt:         vt,
		cache:      cache,
		dodo:       dodo,
		backing:    backing,
		disk:       disk,
		model:      model,
		regionSize: cfg.RegionSize,
		fds:        make(map[int64]int),
	}
}

// Read serves one request through the region cache, charging simulated
// time for every hop it takes.
func (s *DodoStorage) Read(off, size int64) (time.Duration, error) {
	t0 := s.vt.Total()
	// Requests may span regions; split on region boundaries.
	remaining := size
	for remaining > 0 {
		ridx := off / s.regionSize
		inOff := off - ridx*s.regionSize
		chunk := remaining
		if inOff+chunk > s.regionSize {
			chunk = s.regionSize - inOff
		}
		fd, ok := s.fds[ridx]
		if !ok {
			var err error
			fd, err = s.cache.Copen(s.regionSize, s.backing, ridx*s.regionSize)
			if err != nil {
				return 0, err
			}
			s.fds[ridx] = fd
		}
		buf := scratch(chunk)
		if _, err := s.cache.Cread(fd, inOff, buf); err != nil {
			return 0, err
		}
		// Delivering the bytes to the application is a memory copy
		// regardless of where they came from.
		s.vt.Add(s.model.HitCopy(chunk))
		off += chunk
		remaining -= chunk
	}
	return s.vt.Total() - t0, nil
}

// Write routes one write through the region cache (write-back locally,
// write-through to remote memory and the page cache otherwise).
func (s *DodoStorage) Write(off, size int64) (time.Duration, error) {
	t0 := s.vt.Total()
	remaining := size
	for remaining > 0 {
		ridx := off / s.regionSize
		inOff := off - ridx*s.regionSize
		chunk := remaining
		if inOff+chunk > s.regionSize {
			chunk = s.regionSize - inOff
		}
		fd, ok := s.fds[ridx]
		if !ok {
			var err error
			fd, err = s.cache.Copen(s.regionSize, s.backing, ridx*s.regionSize)
			if err != nil {
				return 0, err
			}
			s.fds[ridx] = fd
		}
		buf := scratch(chunk)
		if _, err := s.cache.Cwrite(fd, inOff, buf); err != nil {
			return 0, err
		}
		s.vt.Add(s.model.HitCopy(chunk))
		off += chunk
		remaining -= chunk
	}
	return s.vt.Total() - t0, nil
}

// Stats exposes the underlying caches for experiment reports.
func (s *DodoStorage) Stats() (region.Stats, DodoNetStats) {
	return s.cache.Stats(), s.dodo.stats
}

// scratchBuf is reused across requests; the driver is single-threaded.
var scratchBuf []byte

func scratch(n int64) []byte {
	if int64(len(scratchBuf)) < n {
		scratchBuf = make([]byte, n)
	}
	return scratchBuf[:n]
}

// DodoNetStats counts simulated remote-memory traffic.
type DodoNetStats struct {
	RemoteReads, RemoteWrites         int64
	RemoteReadBytes, RemoteWriteBytes int64
	Allocs, AllocFailures             int64
}

// accountingDodo implements region.Dodo by charging the network cost
// model instead of moving real bytes. Region contents are not stored:
// the virtual-time experiments measure time, and the workload driver
// never checks payloads (data-integrity coverage lives in the live
// cluster tests).
type accountingDodo struct {
	vt           *VirtualTime
	net          simnet.CostModel
	disk         *simdisk.Disk
	capacity     int64
	used         int64
	nextFD       int
	writeOverlap float64
	regions      map[int]int64
	stats        DodoNetStats
}

var _ region.Dodo = (*accountingDodo)(nil)

// controlRTT is the cost of one small control exchange with the central
// manager (alloc/free are two hops: client->cmd, cmd->imd).
func (a *accountingDodo) controlRTT() time.Duration { return 2 * a.net.RoundTrip(64) }

func (a *accountingDodo) Mopen(length int64, backing core.Backing, offset int64) (int, error) {
	a.vt.Add(a.controlRTT())
	if a.used+length > a.capacity {
		a.stats.AllocFailures++
		return -1, core.ErrNoMem
	}
	fd := a.nextFD
	a.nextFD++
	a.regions[fd] = length
	a.used += length
	a.stats.Allocs++
	return fd, nil
}

func (a *accountingDodo) Mread(fd int, offset int64, buf []byte) (int, error) {
	length, ok := a.regions[fd]
	if !ok {
		return -1, core.ErrNoMem
	}
	n := int64(len(buf))
	if offset+n > length {
		n = length - offset
	}
	a.vt.Add(a.net.RoundTrip(int(n)))
	a.stats.RemoteReads++
	a.stats.RemoteReadBytes += n
	return int(n), nil
}

func (a *accountingDodo) Mwrite(fd int, offset int64, buf []byte) (int, error) {
	length, ok := a.regions[fd]
	if !ok {
		return -1, core.ErrNoMem
	}
	n := int64(len(buf))
	if offset+n > length {
		n = length - offset
	}
	// Remote send and backing-file write proceed in parallel (§3); the
	// backing write lands in the page cache (write-back), so the
	// network almost always dominates. Most of the network time
	// overlaps the application's subsequent work (WriteOverlap).
	netT := a.net.OneWay(64) + a.net.OneWay(int(n))
	netT = time.Duration(float64(netT) * (1 - a.writeOverlap))
	diskT := a.disk.Write(1, offset, n)
	if diskT > netT {
		a.vt.Add(diskT)
	} else {
		a.vt.Add(netT)
	}
	a.stats.RemoteWrites++
	a.stats.RemoteWriteBytes += n
	return int(n), nil
}

func (a *accountingDodo) Mclose(fd int) error {
	a.vt.Add(a.controlRTT())
	length, ok := a.regions[fd]
	if !ok {
		return core.ErrInval
	}
	a.used -= length
	delete(a.regions, fd)
	return nil
}

func (a *accountingDodo) Msync(fd int) error { return nil }

// accountingBacking implements core.Backing against the simulated disk.
type accountingBacking struct {
	vt   *VirtualTime
	disk *simdisk.Disk
	file uint64
}

var _ core.Backing = (*accountingBacking)(nil)

func (b *accountingBacking) ReadAt(p []byte, off int64) (int, error) {
	b.vt.Add(b.disk.Read(b.file, off, int64(len(p))))
	return len(p), nil
}

func (b *accountingBacking) WriteAt(p []byte, off int64) (int, error) {
	b.vt.Add(b.disk.Write(b.file, off, int64(len(p))))
	return len(p), nil
}

func (b *accountingBacking) Sync() error { return nil }

func (b *accountingBacking) Inode() uint64 { return b.file }

func (b *accountingBacking) Writable() bool { return true }
