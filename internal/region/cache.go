package region

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dodo/internal/core"
	"dodo/internal/locks"
	"dodo/internal/sim"
)

// Dodo is the slice of the runtime library the cache needs. *core.Client
// satisfies it; the virtual-time experiment harness provides a
// cost-accounting implementation.
type Dodo interface {
	// Mopen allocates a remote region; the returned descriptor must be
	// Mclosed on every path, including error exits.
	Mopen(length int64, backing core.Backing, offset int64) (int, error)
	Mread(fd int, offset int64, buf []byte) (int, error)
	// Mwrite keeps no reference to buf once it has returned: the cache
	// pushes an evicted region's buffer through it and then fills the
	// next region into the same memory (fillRegion).
	Mwrite(fd int, offset int64, buf []byte) (int, error)
	Mclose(fd int) error
	Msync(fd int) error
}

var _ Dodo = (*core.Client)(nil)

// BatchReader is the retired batched-read extension of Dodo.
//
// Deprecated: goes with core.BatchRead and mread's use of it.
type BatchReader interface {
	MreadBatch(reqs []core.BatchRead) []core.BatchResult
}

// mread reads a whole region from remote memory for a fill.
//
// Deprecated: the BatchReader arm, kept because benchmark/'s own tests
// count a prefetching cache's MreadBatch calls: one region per call,
// which core answers with Mread. Goes with BatchReader.
func (c *Cache) mread(fd int, buf []byte, prefetched bool) (int, error) {
	if br, ok := c.dodo.(BatchReader); ok && prefetched {
		res := br.MreadBatch([]core.BatchRead{{Fd: fd, Buf: buf}})
		return res[0].N, res[0].Err
	}
	return c.dodo.Mread(fd, 0, buf)
}

// State is a region's caching state — the four states of §3.3.
type State int

// Region states.
const (
	// StateDiskOnly: not cached in memory, only on disk.
	StateDiskOnly State = iota
	// StateLocal: cached in the local region cache only.
	StateLocal
	// StateRemote: cached in remote cluster memory only.
	StateRemote
	// StateLocalRemote: cached both locally and remotely.
	StateLocalRemote
)

func (s State) String() string {
	switch s {
	case StateDiskOnly:
		return "disk-only"
	case StateLocal:
		return "local"
	case StateRemote:
		return "remote"
	case StateLocalRemote:
		return "local+remote"
	}
	return fmt.Sprintf("region.State(%d)", int(s))
}

// Errors returned by the cache.
var (
	ErrBadFD = errors.New("region: bad region descriptor")
	ErrRange = errors.New("region: access beyond region bounds")
)

// Config tunes a Cache.
type Config struct {
	// Capacity is the local cache budget in bytes (the paper's
	// experiments use 80 MB).
	Capacity int64
	// Policy is the replacement policy the cache starts with (the zero
	// value is LRU, §3.3); SetPolicy switches it later.
	Policy Policy
	// RefractionPeriod suppresses remote-clone attempts after one
	// fails for lack of remote space (Figure 5; default 5s).
	RefractionPeriod time.Duration
	// Clock provides time (default wall clock).
	Clock sim.Clock
	// PromoteOnAccess controls whether accessing a non-local region
	// pulls the whole region into the local cache. Its zero value, off,
	// is the default; every shipped caller turns it on. The first-in
	// policy effectively disables it by refusing victims once the cache
	// fills.
	PromoteOnAccess bool
	// SequentialPrefetch pulls upcoming contiguous regions of a backing
	// file toward the application when regions are accessed in order
	// (see prefetch.go). Off by default, as in the paper; this is the
	// cooperative-prefetching extension its related work points at.
	SequentialPrefetch bool
	// PrefetchWindow is how many regions ahead of a detected sequential
	// stream the prefetcher runs (default 1).
	PrefetchWindow int
	// PrefetchWorkers sizes the asynchronous prefetch pool. 0 (the
	// default) runs prefetches synchronously on the accessing
	// goroutine, which keeps virtual-time experiments and the seeded
	// fault sweeps deterministic under the sim clock; >0 starts that
	// many background workers so prefetch I/O overlaps the foreground
	// accesses that armed it.
	PrefetchWorkers int
}

func (c Config) withDefaults() Config {
	if c.RefractionPeriod == 0 {
		c.RefractionPeriod = 5 * time.Second
	}
	if c.Clock == nil {
		c.Clock = sim.WallClock{}
	}
	if c.PrefetchWindow < 1 {
		c.PrefetchWindow = 1
	}
	if c.PrefetchWorkers < 0 {
		c.PrefetchWorkers = 0
	}
	return c
}

// inflight is a region's in-flight marker: it is registered (under
// c.mu) by the operation that owns a region's transition — a fill, a
// dirty flush, or an eviction — before the lock is dropped for the
// I/O, and done is closed (again under c.mu) once the results are
// installed. Any operation that finds a marker on its region waits on
// done outside the lock, then re-looks the region up from scratch.
type inflight struct {
	done chan struct{}
}

// newInflight creates an in-flight marker. Whoever creates one owes
// its region a settled state: the marker must reach r.pend (and
// c.fills for fills) and eventually be cleared with done closed.
func newInflight() *inflight { return &inflight{done: make(chan struct{})} }

// cregion is one entry of the local cache directory. Every field but
// pub is guarded by the Cache's mu (the struct itself carries no lock),
// and fd, length, backing and backOff never change once the region is
// in the fd table: I/O phases work on ioView snapshots taken under the
// lock, and a non-nil pend gives its owner exclusive right to *mutate*
// the region's location state between two lock sections (see DESIGN.md
// §11).
type cregion struct {
	fd     int
	length int64
	// pub is what a hit copies from without the lock: local, or nil
	// while there is none or while Cwrite is writing into it in place.
	// Whoever writes into a slot's buffer takes it off pub before it
	// reads the slot's pins (see hit).
	pub atomic.Pointer[slot]
	// stamp is the clock's tick at the region's install or last touch
	// (policy.go); hits store it without the lock.
	// dodo:atomic
	stamp   atomic.Uint64
	backing core.Backing
	backOff int64

	local    *slot // non-nil iff cached locally
	dirty    bool  // local copy differs from disk
	remoteFD int   // core descriptor, -1 when no remote copy
	// remoteFailAt marks the remote copy suspect after an ErrNoMem
	// failure (host crashed or reclaimed, §3.1). The descriptor is kept:
	// the runtime's background recovery may re-open it, so the cache
	// retries after the refraction period instead of abandoning remote
	// memory forever. Zero means healthy.
	remoteFailAt time.Time
	// pend is the in-flight marker; nil when the region is stable.
	pend *inflight
	// cloning suppresses duplicate remote-clone attempts from
	// marker-less read-through paths (cloneRemote).
	cloning bool
	// writeGen counts acknowledged write-throughs. A clone captures the
	// generation with its data snapshot and aborts before pushing if it
	// has moved: a push of pre-write bytes would clobber the
	// acknowledged write on disk and publish it remotely.
	writeGen uint64
	// clonePend is set only for a clone's push phase (Mwrite in
	// flight). Write-throughs wait on it so no write can interleave
	// with a push that already passed its staleness check.
	clonePend *inflight
	// resident is r's index in the cache's resident set while local is
	// non-nil (policy.go).
	resident int
}

// slot is one buffer of the local cache and the count of hits copying
// out of it. The two travel together: an evicted region's slot becomes
// the slot of the region filled in its place (fillRegion).
type slot struct {
	buf []byte
	// pins counts the hits that may be reading buf (pin, unpin). A
	// writer into buf waits for it to reach zero (awaitUnpinnedLocked)
	// after taking the slot off its region's pub, so the pins it waits
	// for can only drain: a hit that pins later fails its check of pub
	// and unpins without reading.
	pins atomic.Int64
	// draining is set by the one goroutine waiting for pins to reach
	// zero; the unpin that brings them there wakes it.
	draining atomic.Bool
	_        [24]byte // to 64 bytes: one slot per cache line
}

func (r *cregion) state() State {
	switch {
	case r.local != nil && r.remoteFD >= 0:
		return StateLocalRemote
	case r.local != nil:
		return StateLocal
	case r.remoteFD >= 0:
		return StateRemote
	}
	return StateDiskOnly
}

// remoteMode classifies how an I/O phase may use a region's remote
// copy; it is decided under c.mu, before the lock is dropped.
type remoteMode int

const (
	// remoteNone: no usable remote copy (absent, or suspect inside the
	// refraction period).
	remoteNone remoteMode = iota
	// remoteHealthy: use the descriptor directly.
	remoteHealthy
	// remoteRevive: suspect but past refraction — writes during the
	// outage went disk-only, so the full contents must be re-pushed
	// before the copy is trusted again (§3.1).
	remoteRevive
)

// ioView is the under-lock snapshot an I/O phase works from once c.mu
// is dropped. cregion fields are only ever touched while holding the
// lock; everything an Mread/Mwrite/ReadAt/WriteAt needs travels here.
type ioView struct {
	fd       int
	length   int64
	backing  core.Backing
	backOff  int64
	remoteFD int
	mode     remoteMode
	// writeGen is the region's write generation at snapshot time; it
	// dates any bytes captured alongside this view for cloneRemote's
	// staleness check.
	writeGen uint64
}

// viewLocked snapshots r for an I/O phase. Caller holds c.mu.
func (c *Cache) viewLocked(r *cregion) ioView {
	return ioView{
		fd:       r.fd,
		length:   r.length,
		backing:  r.backing,
		backOff:  r.backOff,
		remoteFD: r.remoteFD,
		mode:     c.remoteModeLocked(r),
		writeGen: r.writeGen,
	}
}

// remoteModeLocked classifies r's remote copy. Caller holds c.mu.
func (c *Cache) remoteModeLocked(r *cregion) remoteMode {
	if r.remoteFD < 0 {
		return remoteNone
	}
	if r.remoteFailAt.IsZero() {
		return remoteHealthy
	}
	if c.cfg.Clock.Now().Sub(r.remoteFailAt) < c.cfg.RefractionPeriod {
		return remoteNone
	}
	return remoteRevive
}

// Stats reports cache activity; the virtual-time experiments derive
// every figure from these counters.
type Stats struct {
	LocalHits     int64 // accesses served from the local cache
	RemoteReads   int64 // bytes served from remote memory (read-through)
	DiskReads     int64 // bytes served from disk (read-through)
	Promotions    int64 // regions pulled into the local cache
	Overwrites    int64 // promotions that installed a whole-region write, fetching nothing
	Evictions     int64 // regions pushed out by grimReaper
	RemoteClones  int64 // evictions that went to remote memory
	DiskSpills    int64 // evictions that fell back to disk only
	WriteBacks    int64 // dirty flushes
	RefractSkips  int64 // remote clones skipped inside refraction
	Prefetches    int64 // prefetch pulls issued
	RemoteRevives int64 // suspect remote copies brought back into service
}

// Cache is the region-management library instance. No disk or network
// I/O ever runs while mu is held: operations decide and reserve under
// the lock, mark the regions they are transitioning with in-flight
// markers, perform the I/O on ioView snapshots, and re-lock to install
// the results (DESIGN.md §11). A local hit takes no lock at all: it
// finds the region in the fd table, pins its published slot, copies,
// and stamps the region (hit). Lock juggling is always local to one
// function: helpers called with the lock held (the *Locked family)
// never release it for good — awaitUnpinnedLocked drops it only inside
// its Wait — and helpers that acquire it are never called with it held.
type Cache struct {
	// dodo:unguarded — immutable after construction
	cfg Config
	// dodo:unguarded — immutable after construction
	dodo Dodo

	// What a hit reads and writes comes first, apart from the fields
	// mu guards: the clock pads itself onto a line of its own.
	//
	// table maps a descriptor to its open region (lookup). Hits read it
	// with atomic loads; mu's holders replace it when it grows.
	// dodo:atomic
	table atomic.Pointer[fdTable]
	// touching is policies[policy].touch, for hits to read without mu.
	// dodo:atomic
	touching atomic.Bool
	// clock stamps the resident regions (policy.go) and counts the
	// local hits.
	// dodo:unguarded — lock-free: its field is atomic
	clock clock

	mu locks.Mutex
	// freeFDs are the descriptors Copen hands out next, one per table
	// index whose region was closed; fresh is the next index never used.
	// dodo:guardedby mu
	freeFDs []int
	// dodo:guardedby mu
	fresh int
	// policy is the replacement policy: cfg.Policy until SetPolicy.
	// dodo:guardedby mu
	policy Policy
	// resident holds the regions with a local copy (policy.go).
	// dodo:guardedby mu
	resident []*cregion
	// lockStamps counts the clock's ticks that were not hits.
	// dodo:guardedby mu
	lockStamps uint64
	// rand is the state victimLocked draws its sample from; it starts
	// from a fixed seed, so that runs replay.
	// dodo:guardedby mu
	rand uint64
	// used counts local-cache bytes, including bytes pre-charged for
	// fills still in flight.
	// dodo:guardedby mu
	used int64
	// dodo:guardedby mu
	lastFail time.Time
	// dodo:guardedby mu
	failed bool
	// dodo:guardedby mu
	stats Stats
	// dodo:guardedby mu
	closed bool

	// prefetch state (prefetch.go)
	// dodo:guardedby mu
	byLocation map[prefKey]int
	// fills coalesces concurrent fetches of one backing location — the
	// singleflight per (inode, off): a fill marker is registered here
	// as well as on its region, and fill admission waits out any entry
	// already present for the location.
	// dodo:guardedby mu
	fills map[prefKey]*inflight
	// streams maps a backing inode to the offset where the next
	// sequential access would start, so interleaved scans over
	// different backing files each keep their own detector.
	// dodo:guardedby mu
	streams map[uint64]int64
	// prefetchPend counts prefetch jobs queued or running; Quiesce and
	// Close wait for it to drain.
	// dodo:guardedby mu
	prefetchPend int
	// quiesce signals prefetchPend transitions; it shares mu.
	// dodo:unguarded — sync.Cond is internally synchronized over mu
	quiesce *sync.Cond
	// unpinned is broadcast by an unpin that finds a slot draining; it
	// shares mu.
	// dodo:unguarded — sync.Cond is internally synchronized over mu
	unpinned *sync.Cond
	// prefetchQ feeds the worker pool one access's prefetch window at a
	// time; a worker pulls the window's regions in order, each through
	// the path a foreground miss takes. nil when PrefetchWorkers == 0.
	// dodo:unguarded — buffered channel, internally synchronized
	prefetchQ chan []int
	// prefetchStop stops the pool; closed once by Close.
	// dodo:unguarded — set at construction; closed once under the
	// closed flag in Close
	prefetchStop chan struct{}
	// dodo:unguarded — WaitGroup is internally synchronized
	prefetchWG sync.WaitGroup
}

// NewCache builds a region cache over the given Dodo runtime.
func NewCache(dodo Dodo, cfg Config) *Cache {
	c := &Cache{
		cfg:        cfg.withDefaults(),
		dodo:       dodo,
		policy:     cfg.Policy,
		rand:       1,
		byLocation: make(map[prefKey]int),
		fills:      make(map[prefKey]*inflight),
		streams:    make(map[uint64]int64),
	}
	c.mu.SetRank(locks.RankRegionCache)
	c.table.Store(&fdTable{regions: make([]atomic.Pointer[cregion], 64)})
	c.touching.Store(policies[c.policy].touch)
	c.quiesce = sync.NewCond(&c.mu)
	c.unpinned = sync.NewCond(&c.mu)
	if c.cfg.PrefetchWorkers > 0 {
		c.prefetchQ = make(chan []int, 4*c.cfg.PrefetchWorkers+c.cfg.PrefetchWindow)
		c.prefetchStop = make(chan struct{})
		for i := 0; i < c.cfg.PrefetchWorkers; i++ {
			c.prefetchWG.Add(1)
			go c.prefetchWorker()
		}
	}
	return c
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.LocalHits = int64(c.clock.now.Load() - c.lockStamps)
	return s
}

// fdTable is the descriptor table: a region's index in it is the low
// fdIndexBits of its descriptor, and the bits above count the index's
// reuses, so a closed descriptor never names a later region.
type fdTable struct {
	regions []atomic.Pointer[cregion]
}

// fdIndexBits is the width of a descriptor's table index. The first
// region at each index gets the index itself as its descriptor.
const fdIndexBits = 32

// lookup returns the open region fd names, or nil. It takes no lock:
// under mu it reads the current table; without it, a table that may
// have grown since, or a region closed since, which a hit finds out
// through pub.
func (c *Cache) lookup(fd int) *cregion {
	t := c.table.Load()
	i := fd & (1<<fdIndexBits - 1)
	if i >= len(t.regions) {
		return nil
	}
	if r := t.regions[i].Load(); r != nil && r.fd == fd {
		return r
	}
	return nil
}

// openLocked gives r a descriptor and enters it in the table: a closed
// region's index when there is one, so the table stays as large as the
// most regions ever open at once, times two. Caller holds c.mu.
func (c *Cache) openLocked(r *cregion) {
	if n := len(c.freeFDs); n > 0 {
		r.fd = c.freeFDs[n-1]
		c.freeFDs = c.freeFDs[:n-1]
	} else {
		r.fd = c.fresh
		c.fresh++
	}
	t := c.table.Load()
	i := r.fd & (1<<fdIndexBits - 1)
	if i >= len(t.regions) {
		grown := &fdTable{regions: make([]atomic.Pointer[cregion], 2*len(t.regions))}
		for j := range t.regions {
			grown.regions[j].Store(t.regions[j].Load())
		}
		c.table.Store(grown)
		t = grown
	}
	t.regions[i].Store(r)
}

// closeLocked takes r out of the table and frees its index for the
// next Copen, under a descriptor one reuse later. Caller holds c.mu.
func (c *Cache) closeLocked(r *cregion) {
	i := r.fd & (1<<fdIndexBits - 1)
	c.table.Load().regions[i].Store(nil)
	reuse := (r.fd>>fdIndexBits + 1) & (1<<31 - 1)
	c.freeFDs = append(c.freeFDs, reuse<<fdIndexBits|i)
}

// Used returns the bytes of local cache in use (fills in flight count
// against the budget from the moment their space is reserved).
func (c *Cache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// State reports a region's caching state.
func (c *Cache) State(fd int) (State, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.lookup(fd)
	if r == nil {
		return 0, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	return r.state(), nil
}

// SetPolicy switches the replacement policy (csetPolicy, §3.3). The
// stamps carry over as the old policy left them, so the new one's
// first victim is the oldest or newest of that order.
func (c *Cache) SetPolicy(p Policy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.policy = p
	c.touching.Store(policies[p].touch)
}

// Copen creates a region of length bytes backed by [offset,
// offset+length) of backing (§3.3). The region starts in the local cache
// when space can be made; otherwise it goes remote, or disk-only as the
// last resort. Contents are faulted in from disk on first access. The
// fill marker moves into r.pend/c.fills; clearFillLocked settles it.
func (c *Cache) Copen(length int64, backing core.Backing, offset int64) (int, error) {
	if length < 1 || offset < 0 || backing == nil {
		return -1, fmt.Errorf("%w: length %d offset %d", core.ErrInval, length, offset)
	}
	c.mu.Lock()
	r := &cregion{length: length, backing: backing, backOff: offset, remoteFD: -1}
	c.openLocked(r)
	fd := r.fd
	c.registerLocationLocked(r)
	// With local room the region is faulted in from disk immediately;
	// otherwise it stays disk-only for now, and the first full read or
	// the grimReaper migrates it to the remote cache with its real
	// contents in hand.
	if length > c.cfg.Capacity {
		c.mu.Unlock()
		return fd, nil
	}
	victims, fit := c.reserveLocked(length)
	if !fit && len(victims) == 0 {
		c.mu.Unlock()
		return fd, nil
	}
	var marker *inflight
	var v ioView
	key := prefKey{inode: backing.Inode(), off: offset}
	if fit {
		marker = newInflight()
		r.pend = marker
		c.fills[key] = marker
		v = c.viewLocked(r)
	}
	c.mu.Unlock()

	for i := range victims {
		c.evictIO(&victims[i])
	}
	var s *slot
	if fit {
		// A fresh region cannot have a remote copy yet: disk is the
		// only source.
		s = &slot{buf: make([]byte, length)}
		if _, err := v.backing.ReadAt(s.buf, v.backOff); err == nil {
			c.mu.Lock()
			c.stats.DiskReads += length
			c.mu.Unlock()
		}
	}

	c.mu.Lock()
	for i := range victims {
		c.settleEvictionLocked(&victims[i])
	}
	if fit {
		c.installLocked(r, s)
		c.clearFillLocked(r, marker, key)
	}
	c.mu.Unlock()
	return fd, nil
}

// Cread reads len(buf) bytes at offset within the region (§3.3). Each
// pass of the loop first tries a hit, which takes no lock; failing
// that, it looks the region up under the lock. The loop restarts
// whenever the region turns out to be mid-transition: it waits out the
// in-flight marker with the lock released and starts again from the
// hit.
func (c *Cache) Cread(fd int, offset int64, buf []byte) (int, error) {
	filled := false
	for {
		if r := c.lookup(fd); r != nil && offset >= 0 && offset <= r.length {
			if n, ok := c.hit(r, offset, buf); ok {
				c.notePrefetch(r)
				return n, nil
			}
		}
		c.mu.Lock()
		r := c.lookup(fd)
		if r == nil {
			c.mu.Unlock()
			return -1, fmt.Errorf("%w: %d", ErrBadFD, fd)
		}
		if r.pend != nil {
			p := r.pend
			c.mu.Unlock()
			<-p.done
			continue
		}
		if offset < 0 || offset > r.length {
			c.mu.Unlock()
			return -1, fmt.Errorf("%w: offset %d in %d-byte region", ErrRange, offset, r.length)
		}
		want := int64(len(buf))
		if offset+want > r.length {
			want = r.length - offset
		}
		if r.local == nil && c.cfg.PromoteOnAccess && !filled && r.length <= c.cfg.Capacity {
			c.mu.Unlock()
			filled = true // one attempt; the policy may refuse for good
			c.fillRegion(fd, false, nil)
			continue
		}
		if r.local != nil {
			// Resident and settled, so its slot is published: the hit
			// at the top of the loop serves it.
			c.mu.Unlock()
			continue
		}
		// Read-through without caching.
		v := c.viewLocked(r)
		c.mu.Unlock()
		n, err := c.readThrough(v, offset, want, buf)
		if err != nil {
			// The foreground read failed: do not arm or issue
			// prefetch off a broken stream.
			return -1, err
		}
		c.notePrefetch(r)
		return n, nil
	}
}

// hit serves a read of [offset, offset+len(buf)) of r, clipped to the
// region, from r's local copy without taking c.mu, and reports false
// when r has no published slot to serve it from. The caller has checked
// offset against r.length.
//
// The hit pins the slot, then checks that it is still r's published
// one; whatever writes into a slot's buffer takes it off pub, then
// reads its pins. Go's atomics are sequentially consistent, so of a hit
// and a writer racing for one slot, at least one sees the other's
// write: the writer sees the pin and waits for it (awaitUnpinnedLocked),
// or the hit sees pub changed and unpins without reading. A hit that
// passes its check may copy until it unpins.
func (c *Cache) hit(r *cregion, offset int64, buf []byte) (int, bool) {
	s := r.pub.Load()
	if s == nil {
		return 0, false
	}
	n, ok := c.copyFrom(r, s, offset, buf)
	if ok {
		now := c.clock.now.Add(1)
		if c.touching.Load() {
			r.stamp.Store(now)
		}
	}
	return n, ok
}

// copyFrom is hit's copy out of s, a slot it loaded from r.pub: it pins
// s, and copies only if s is still r's published slot.
func (c *Cache) copyFrom(r *cregion, s *slot, offset int64, buf []byte) (int, bool) {
	p := c.pin(s)
	if r.pub.Load() != s {
		c.unpin(p)
		return 0, false
	}
	n := copy(buf, p.buf[offset:])
	c.unpin(p)
	return n, true
}

// notePrefetch records an access to r, still open, for sequential
// detection and dispatches the prefetches it arms. It takes c.mu only
// when sequential prefetch is on. Called without c.mu.
func (c *Cache) notePrefetch(r *cregion) {
	if !c.cfg.SequentialPrefetch {
		return
	}
	c.mu.Lock()
	var jobs []int
	if c.lookup(r.fd) == r {
		jobs = c.maybePrefetchLocked(r)
	}
	c.mu.Unlock()
	c.dispatchPrefetch(jobs)
}

// Cwrite writes buf at offset within the region (§3.3). Locally cached
// regions absorb the write (write-back, flushed by eviction or Csync);
// a write of a whole non-resident region becomes its local copy with
// nothing fetched; other non-resident regions write through to remote
// memory and disk. The write-through's marker moves into r.pend and is
// settled before the return: without it a fill that started while the
// lock was down could fetch the bytes this write replaces and install
// them after the write had returned.
func (c *Cache) Cwrite(fd int, offset int64, buf []byte) (int, error) {
	filled := false
	for {
		c.mu.Lock()
		r := c.lookup(fd)
		if r == nil {
			c.mu.Unlock()
			return -1, fmt.Errorf("%w: %d", ErrBadFD, fd)
		}
		if r.pend != nil {
			p := r.pend
			c.mu.Unlock()
			<-p.done
			continue
		}
		if offset < 0 || offset > r.length {
			c.mu.Unlock()
			return -1, fmt.Errorf("%w: offset %d in %d-byte region", ErrRange, offset, r.length)
		}
		want := int64(len(buf))
		if offset+want > r.length {
			want = r.length - offset
		}
		if r.local == nil && c.cfg.PromoteOnAccess && !filled && r.length <= c.cfg.Capacity {
			// Every byte the fill would fetch is about to be replaced
			// when the write covers the region: hand it the new bytes
			// instead.
			var whole []byte
			if offset == 0 && want == r.length {
				whole = buf[:want]
			}
			c.mu.Unlock()
			filled = true
			if c.fillRegion(fd, false, whole) {
				return int(want), nil
			}
			continue
		}
		if r.local != nil {
			// Off pub first, so no hit that pins the slot from here on
			// reads it (hit); then wait for those that already may.
			s := r.local
			r.pub.Store(nil)
			if s.pins.Load() != 0 {
				// The marker keeps the locked paths and evictions off the
				// region while the wait has the lock down; it comes off
				// before the copy, which runs in the same lock hold as
				// the wake-up.
				marker := newInflight()
				r.pend = marker
				c.awaitUnpinnedLocked(s)
				r.pend = nil
				close(marker.done)
			}
			copy(s.buf[offset:offset+want], buf[:want])
			r.pub.Store(s)
			r.dirty = true
			if policies[c.policy].touch {
				c.stampLocked(r)
			}
			c.mu.Unlock()
			return int(want), nil
		}
		// Write through. A clone in its push phase holds bytes captured
		// before this write: wait it out so the push cannot land on top
		// of ours. (A clone that has not reached its push phase aborts
		// on the generation bump below instead — see cloneRemote.)
		if r.clonePend != nil {
			p := r.clonePend
			c.mu.Unlock()
			<-p.done
			continue
		}
		r.writeGen++
		marker := newInflight()
		r.pend = marker
		v := c.viewLocked(r)
		c.mu.Unlock()
		n, err := c.writeThrough(v, offset, want, buf)
		c.mu.Lock()
		r.pend = nil
		close(marker.done)
		c.mu.Unlock()
		return n, err
	}
}

// Csync forces the region to remote memory and disk (§3.3: "blocks till
// the region has been written to remote memory and to disk"). Its
// marker moves into r.pend and is settled before every return.
func (c *Cache) Csync(fd int) error {
	for {
		c.mu.Lock()
		r := c.lookup(fd)
		if r == nil {
			c.mu.Unlock()
			return fmt.Errorf("%w: %d", ErrBadFD, fd)
		}
		if r.pend != nil {
			p := r.pend
			c.mu.Unlock()
			<-p.done
			continue
		}
		if r.local != nil && r.dirty {
			marker := newInflight()
			r.pend = marker
			data := r.local.buf // the marker excludes concurrent mutation
			wantClone := r.remoteFD < 0
			v := c.viewLocked(r)
			c.mu.Unlock()

			flushed := false
			if wantClone && c.cloneRemote(fd, data, v.writeGen, true) {
				// The clone's Mwrite pushed data to the new remote
				// copy and through to disk: the flush already
				// happened.
				flushed = true
				c.mu.Lock()
				c.stats.WriteBacks++
				c.mu.Unlock()
			}
			var ferr error
			if !flushed {
				ferr = c.flushIO(v, data)
			}

			c.mu.Lock()
			r.pend = nil
			close(marker.done)
			if ferr != nil {
				c.mu.Unlock()
				return ferr
			}
			r.dirty = false
		}
		v := c.viewLocked(r)
		c.mu.Unlock()
		if v.remoteFD >= 0 {
			return c.dodo.Msync(v.remoteFD)
		}
		return v.backing.Sync()
	}
}

// Cclose flushes and releases the region (§3.3). Its marker moves into
// r.pend and is settled before every return.
func (c *Cache) Cclose(fd int) error {
	for {
		c.mu.Lock()
		r := c.lookup(fd)
		if r == nil {
			c.mu.Unlock()
			return fmt.Errorf("%w: %d", ErrBadFD, fd)
		}
		if r.pend != nil {
			p := r.pend
			c.mu.Unlock()
			<-p.done
			continue
		}
		if r.local != nil && r.dirty {
			marker := newInflight()
			r.pend = marker
			data := r.local.buf // the marker excludes concurrent mutation
			v := c.viewLocked(r)
			c.mu.Unlock()
			ferr := c.flushIO(v, data)
			c.mu.Lock()
			r.pend = nil
			close(marker.done)
			if ferr != nil {
				// The region stays open (and dirty) so the caller can
				// retry or sync elsewhere.
				c.mu.Unlock()
				return ferr
			}
			r.dirty = false
		}
		if r.local != nil {
			c.used -= r.length
			r.pub.Store(nil)
			r.local = nil
			c.unlinkLocked(r)
		}
		remoteFD := r.remoteFD
		c.unregisterLocationLocked(r)
		c.closeLocked(r)
		c.mu.Unlock()
		if remoteFD >= 0 {
			_ = c.dodo.Mclose(remoteFD) // region may already be reclaimed
		}
		return nil
	}
}

// evictJob is one eviction decided under the lock and executed outside
// it: the victim's buffer is detached at decision time, the dirty
// flush and remote clone happen in evictIO, and settleEvictionLocked
// installs the outcome and releases the marker.
type evictJob struct {
	r    *cregion
	view ioView
	// slot is the victim's detached slot. Once evictIO is back without
	// reinstall it is nobody's, and fillRegion may take it (leaving nil)
	// as the slot of the region it fills, after the hits that pinned it
	// before the detach have unpinned.
	slot   *slot
	dirty  bool
	marker *inflight
	// reinstall is set by evictIO when the flush failed: the bytes
	// have nowhere durable to go, so the region re-enters the cache.
	reinstall bool
}

// reserveLocked is the decision half of the grimReaper (Figure 5):
// pick victims by policy until need bytes fit, detach their buffers,
// and pre-charge the budget for the caller's fill. The flushes and
// remote clones the evictions imply run later, outside the lock, via
// evictIO/settleEvictionLocked. Caller holds c.mu.
//
// Even when the policy refuses and fit is false, the already-detached
// victims are committed and must still be flushed by the caller. Each
// victim's in-flight marker is published through victim.pend; the
// caller's settleEvictionLocked retires it.
func (c *Cache) reserveLocked(need int64) (victims []evictJob, fit bool) {
	for c.cfg.Capacity-c.used < need {
		victim := c.victimLocked()
		if victim == nil {
			return victims, false // policy refuses (first-in) or cache empty
		}
		if victim.pend != nil {
			// The victim is mid-transition (a Csync flush): give up
			// rather than spin on a region we may not touch.
			return victims, false
		}
		job := evictJob{
			r:      victim,
			slot:   victim.local,
			dirty:  victim.dirty,
			marker: newInflight(),
		}
		victim.pend = job.marker
		victim.pub.Store(nil)
		victim.local = nil
		victim.dirty = false
		c.used -= victim.length
		c.unlinkLocked(victim)
		job.view = c.viewLocked(victim)
		victims = append(victims, job)
	}
	c.used += need // pre-charge the fill; install adds nothing
	return victims, true
}

// evictIO is the I/O half of one eviction: flush dirty bytes to the
// victim's remote copy or disk, then try to stage the victim remotely
// (cloneRemoteRegion of Figure 5) so its next access skips the disk.
// Runs without c.mu.
func (c *Cache) evictIO(job *evictJob) {
	if job.dirty && c.flushIO(job.view, job.slot.buf) != nil {
		job.reinstall = true
		return
	}
	if job.view.remoteFD < 0 {
		c.cloneRemote(job.view.fd, job.slot.buf, job.view.writeGen, job.dirty)
	}
}

// settleEvictionLocked installs one eviction's outcome and releases
// its marker. Caller holds c.mu.
func (c *Cache) settleEvictionLocked(job *evictJob) {
	r := job.r
	if job.reinstall {
		// The flush failed: the detached bytes are the only copy, so
		// the region re-enters the cache, transiently overshooting the
		// budget rather than losing data. The next reservation evicts
		// harder.
		r.dirty = true
		c.used += r.length
		c.installLocked(r, job.slot)
	} else {
		c.stats.Evictions++
	}
	r.pend = nil
	close(job.marker.done)
}

// fillRegion pulls the region into the local cache (promotion). It
// acquires c.mu itself and must be called without it: victim
// selection, budget pre-charge and marker registration happen under
// the lock; the eviction flushes and the fetch run with it released;
// a final lock section installs the contents and wakes waiters. The
// contents go into the buffer of an evicted victim of the same length
// when there is one (Figure 5 evicts a region to make room for this
// one: the room is the same memory), and into a fresh one otherwise.
// prefetched marks a fill the prefetch pipeline asked for (see mread).
// overwrite, when not nil, is a write of the whole region (Cwrite): a
// copy of it is installed as the dirty local copy where the fetched
// contents would be, nothing is fetched, and fillRegion reports
// whether it was installed. The caller writes some other way if not.
func (c *Cache) fillRegion(fd int, prefetched bool, overwrite []byte) bool {
	c.mu.Lock()
	r := c.lookup(fd)
	if r == nil || r.local != nil || r.pend != nil || r.length > c.cfg.Capacity {
		// Gone, already local, or mid-transition (someone else's fill
		// or flush owns it — the caller's retry loop waits that out).
		c.mu.Unlock()
		return false
	}
	key := prefKey{inode: r.backing.Inode(), off: r.backOff}
	if f, busy := c.fills[key]; busy {
		// A region aliased to the same backing location is already
		// filling (the singleflight per (inode, off)): ride out its
		// I/O instead of issuing a duplicate fetch.
		c.mu.Unlock()
		<-f.done
		return false
	}
	victims, fit := c.reserveLocked(r.length)
	if !fit && len(victims) == 0 {
		c.mu.Unlock()
		return false // nothing to evict and no room: stay non-resident
	}
	var marker *inflight
	var v ioView
	if fit {
		marker = newInflight()
		r.pend = marker
		c.fills[key] = marker
		v = c.viewLocked(r)
	}
	c.mu.Unlock()

	for i := range victims {
		c.evictIO(&victims[i])
	}
	var s *slot
	if fit {
		// The evicted slot is the fill's slot: a victim of this
		// region's length whose bytes evictIO has put somewhere durable
		// has no further use for them, and nothing refers to its buffer
		// any more (Mwrite and WriteAt keep none). The hand-off lives
		// and dies inside this call; there is no free list behind it.
		// But a hit that pinned the slot before the victim was detached
		// may still be copying out of it: nothing is written into it
		// until those pins have drained.
		for i := range victims {
			if job := &victims[i]; !job.reinstall && int64(len(job.slot.buf)) == v.length {
				s, job.slot = job.slot, nil
				if s.pins.Load() != 0 {
					c.mu.Lock()
					c.awaitUnpinnedLocked(s)
					c.mu.Unlock()
				}
				break
			}
		}
		switch {
		case overwrite == nil:
			s = c.fetchContents(v, prefetched, s)
		case s == nil:
			s = &slot{buf: append([]byte(nil), overwrite...)}
		default:
			copy(s.buf, overwrite)
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range victims {
		c.settleEvictionLocked(&victims[i])
	}
	if !fit {
		return false
	}
	c.stats.Promotions++
	c.installLocked(r, s)
	if overwrite != nil {
		r.dirty = true
		c.stats.Overwrites++
	}
	c.clearFillLocked(r, marker, key)
	return overwrite != nil
}

// installLocked gives r, now holding the region's bytes in s, its
// local copy: in the resident set with a fresh stamp, then published
// for hits. Caller holds c.mu.
func (c *Cache) installLocked(r *cregion, s *slot) {
	r.resident = len(c.resident)
	c.resident = append(c.resident, r)
	c.stampLocked(r)
	r.local = s
	r.pub.Store(s)
}

// pin registers a hit that may read s's buffer until unpin: nothing
// writes into it meanwhile, once the hit has seen s still published
// (hit). Called without c.mu.
func (c *Cache) pin(s *slot) *slot {
	s.pins.Add(1)
	return s
}

// unpin returns a pin once its copy is done: one atomic add, and c.mu
// only when it is the last pin and a writer is waiting for it. Called
// without c.mu.
func (c *Cache) unpin(s *slot) {
	if s.pins.Add(-1) == 0 && s.draining.Load() {
		c.mu.Lock()
		c.unpinned.Broadcast()
		c.mu.Unlock()
	}
}

// awaitUnpinnedLocked waits until s has no pins. The caller has taken
// s off every region's pub and is the only writer into s, so the pins
// it waits for can only drain: a hit that pins s later sees pub
// changed and unpins without reading. c.mu is dropped while it waits.
// Caller holds c.mu.
//
// No wake-up is lost: this side stores draining and then loads pins,
// the last unpin adds to pins and then loads draining, and Go's atomics
// are sequentially consistent, so one side sees the other's write.
// Either the re-check sees no pin and does not sleep, or that unpin
// sees draining and broadcasts under c.mu, which this side holds until
// Wait has queued it. A late pin may lift pins off zero again; its own
// unpin is then the last one, and it sees draining.
func (c *Cache) awaitUnpinnedLocked(s *slot) {
	for s.pins.Load() != 0 {
		s.draining.Store(true)
		if s.pins.Load() == 0 {
			break
		}
		c.unpinned.Wait()
	}
	s.draining.Store(false)
}

// clearFillLocked releases a fill marker: waiters wake and the
// singleflight entry comes off (unless a later fill for a re-opened
// alias already replaced it). Caller holds c.mu.
func (c *Cache) clearFillLocked(r *cregion, marker *inflight, key prefKey) {
	r.pend = nil
	if c.fills[key] == marker {
		delete(c.fills, key)
	}
	close(marker.done)
}

// fetchContents reads the full region behind v, remote copy first, into
// s, or into a fresh slot when s is nil. It always returns a slot whose
// region-length buffer is zero wherever no source supplied bytes — all
// of it when every copy fails, matching the pre-concurrency fault-in
// behavior. s held another region a moment ago, so that is a rule every
// return path keeps: a remote read counts only when it delivered all
// v.length bytes, and readBacking clears what the disk did not. Runs
// without c.mu.
func (c *Cache) fetchContents(v ioView, prefetched bool, s *slot) *slot {
	if s == nil {
		s = &slot{buf: make([]byte, v.length)}
	}
	buf := s.buf
	switch v.mode {
	case remoteHealthy:
		n, err := c.mread(v.remoteFD, buf, prefetched)
		if err == nil && int64(n) == v.length {
			c.mu.Lock()
			c.stats.RemoteReads += int64(n)
			c.mu.Unlock()
			return s
		}
		c.remoteFailed(v.fd, err)
	case remoteRevive:
		// Writes during the outage went disk-only, so disk is the
		// authority: read it, push the bytes to revive the remote
		// copy, and serve the fill from the disk bytes.
		if c.readBacking(v, buf) {
			if _, err := c.dodo.Mwrite(v.remoteFD, 0, buf); err == nil {
				c.remoteRevived(v.fd)
			} else {
				c.remoteStaySuspect(v.fd)
			}
			return s
		}
	}
	c.readBacking(v, buf)
	return s
}

// readBacking reads the whole region behind v from its backing file
// into buf and reports whether the read succeeded. Whatever the read
// did not supply — the tail of a short read, all of a failed one — is
// cleared, whatever buf held before (a failed remote read's partial
// bytes, an evicted region's). Runs without c.mu.
func (c *Cache) readBacking(v ioView, buf []byte) bool {
	n, err := v.backing.ReadAt(buf, v.backOff)
	clear(buf[max(n, 0):])
	if err != nil {
		return false
	}
	c.mu.Lock()
	c.stats.DiskReads += v.length
	c.mu.Unlock()
	return true
}

// readThrough serves a read for a non-resident region from its remote
// copy or the backing file, without touching the local cache. Runs
// without c.mu, on an under-lock snapshot.
func (c *Cache) readThrough(v ioView, offset, want int64, buf []byte) (int, error) {
	if v.mode == remoteRevive {
		if c.reviveRemote(v) {
			v.mode = remoteHealthy
		} else {
			v.mode = remoteNone
		}
	}
	if v.mode == remoteHealthy {
		n, err := c.dodo.Mread(v.remoteFD, offset, buf[:want])
		if err == nil {
			c.mu.Lock()
			c.stats.RemoteReads += int64(n)
			c.mu.Unlock()
			return n, nil
		}
		// Remote copy lost: fall back to disk (§3.1 drop semantics).
		c.remoteFailed(v.fd, err)
	}
	n, err := v.backing.ReadAt(buf[:want], v.backOff+offset)
	if err != nil {
		return -1, fmt.Errorf("region: disk read: %w", err)
	}
	c.mu.Lock()
	c.stats.DiskReads += int64(n)
	c.mu.Unlock()
	// Opportunistic migration: a full-region read already has the
	// bytes in hand, so push them to the remote cache for later reads
	// (this is how first-in workloads populate remote memory without
	// displacing the protected local residents).
	if offset == 0 && want == v.length && int64(n) == v.length && v.remoteFD < 0 {
		c.cloneRemote(v.fd, buf[:want], v.writeGen, false)
	}
	return n, nil
}

// writeThrough propagates a write for a non-resident region to its
// remote copy (which reaches disk too) or the backing file. Runs
// without c.mu, on an under-lock snapshot.
func (c *Cache) writeThrough(v ioView, offset, want int64, buf []byte) (int, error) {
	if v.mode == remoteRevive {
		if c.reviveRemote(v) {
			v.mode = remoteHealthy
		} else {
			v.mode = remoteNone
		}
	}
	if v.mode == remoteHealthy {
		n, err := c.dodo.Mwrite(v.remoteFD, offset, buf[:want])
		if err == nil {
			return n, nil // Mwrite wrote disk too
		}
		c.remoteFailed(v.fd, err)
	}
	// A full-region write can establish the remote copy directly:
	// Mwrite propagates to both the remote host and the backing file.
	// Only for regions with no remote descriptor at all — a suspect
	// descriptor makes cloneRemote a no-op success, and the write
	// would reach neither remote memory nor disk.
	if offset == 0 && want == v.length && v.remoteFD < 0 {
		if c.cloneRemote(v.fd, buf[:want], v.writeGen, false) {
			return int(want), nil
		}
	}
	n, err := v.backing.WriteAt(buf[:want], v.backOff+offset)
	if err != nil {
		return -1, fmt.Errorf("region: disk write: %w", err)
	}
	return n, nil
}

// flushIO writes a region's full contents to its remote copy (Mwrite
// propagates to disk as well, §3) or directly to disk. The caller owns
// the region's marker; v is its under-lock snapshot. A suspect remote
// copy past refraction is revived by this very push. Runs without
// c.mu.
func (c *Cache) flushIO(v ioView, data []byte) error {
	if v.mode == remoteHealthy || v.mode == remoteRevive {
		if _, err := c.dodo.Mwrite(v.remoteFD, 0, data); err == nil {
			if v.mode == remoteRevive {
				c.remoteRevived(v.fd)
			}
			c.mu.Lock()
			c.stats.WriteBacks++
			c.mu.Unlock()
			return nil
		} else {
			c.remoteFailed(v.fd, err) // remote lost; fall through to disk
		}
	}
	if _, err := v.backing.WriteAt(data, v.backOff); err != nil {
		return fmt.Errorf("region: flushing region %d: %w", v.fd, err)
	}
	c.mu.Lock()
	c.stats.WriteBacks++
	c.mu.Unlock()
	return nil
}

// reviveRemote re-validates a suspect remote copy after the refraction
// period for a region with no local bytes: writes during the outage
// went disk-only, so the disk contents are pushed before the copy is
// trusted again (§3.1). Runs without c.mu.
func (c *Cache) reviveRemote(v ioView) bool {
	data := make([]byte, v.length)
	if _, err := v.backing.ReadAt(data, v.backOff); err != nil {
		return false
	}
	c.mu.Lock()
	c.stats.DiskReads += v.length
	c.mu.Unlock()
	if _, err := c.dodo.Mwrite(v.remoteFD, 0, data); err != nil {
		c.remoteStaySuspect(v.fd)
		return false
	}
	c.remoteRevived(v.fd)
	return true
}

// remoteFailed records a failed remote access. ErrNoMem (host crashed,
// reclaimed, or dropped, §3.1) keeps the descriptor and marks the copy
// suspect so the cache repopulates through the runtime's background
// recovery after the refraction period; any other error is
// unrecoverable and drops the remote copy for good. The region may
// have been closed while the lock was down; a missing fd is a no-op.
func (c *Cache) remoteFailed(fd int, err error) {
	c.mu.Lock()
	if r := c.lookup(fd); r != nil {
		if errors.Is(err, core.ErrNoMem) {
			r.remoteFailAt = c.cfg.Clock.Now()
		} else {
			r.remoteFD = -1
			r.remoteFailAt = time.Time{}
		}
	}
	c.mu.Unlock()
}

// remoteStaySuspect re-arms a suspect remote copy's refraction window
// after a failed revival push.
func (c *Cache) remoteStaySuspect(fd int) {
	c.mu.Lock()
	if r := c.lookup(fd); r != nil {
		r.remoteFailAt = c.cfg.Clock.Now()
	}
	c.mu.Unlock()
}

// remoteRevived clears a remote copy's suspect mark after a successful
// full-content push.
func (c *Cache) remoteRevived(fd int) {
	c.mu.Lock()
	if r := c.lookup(fd); r != nil {
		r.remoteFailAt = time.Time{}
		c.stats.RemoteRevives++
	}
	c.mu.Unlock()
}

// cloneRemote tries to give region fd a remote copy (cloneRemoteRegion
// of Figure 5), honoring the refraction period after a failed
// allocation. data supplies the region's current contents when the
// caller has them in hand; nil reads them from the backing file (a
// remote region must always hold real bytes). gen is the region's
// write generation (ioView.writeGen) observed under c.mu when data
// was captured: the clone aborts before its push if a write-through
// has landed since, because Mwrite propagates to disk and a push of
// pre-write bytes would silently clobber an acknowledged write.
// Writers arriving once the push phase has begun wait on the clone
// marker instead (see Cwrite), so the two can never interleave.
// clearDirty is set only by callers that own the region's marker and
// pass its live local bytes, so a successful push (which reaches disk
// too) may clear the dirty flag. Runs without c.mu; reports whether
// the region has a remote copy afterwards. The cloned descriptor
// either moves into r.remoteFD or is Mclosed on the failure,
// stale-data and closed-region paths.
func (c *Cache) cloneRemote(fd int, data []byte, gen uint64, clearDirty bool) bool {
	c.mu.Lock()
	r := c.lookup(fd)
	if r == nil {
		c.mu.Unlock()
		return false
	}
	if r.remoteFD >= 0 {
		c.mu.Unlock()
		return true
	}
	if r.cloning {
		// Another goroutine is already on it; this attempt is
		// opportunistic, so just report no copy yet.
		c.mu.Unlock()
		return false
	}
	if data == nil {
		// The contents will be read from disk after this claim: date
		// them here, not at the caller (which has no bytes in hand).
		gen = r.writeGen
	}
	if r.writeGen != gen {
		// data already predates a write-through: don't even start.
		c.mu.Unlock()
		return false
	}
	now := c.cfg.Clock.Now()
	if c.failed && now.Sub(c.lastFail) < c.cfg.RefractionPeriod {
		c.stats.RefractSkips++
		c.mu.Unlock()
		return false
	}
	r.cloning = true
	length, backing, backOff := r.length, r.backing, r.backOff
	c.mu.Unlock()

	mfd, err := c.dodo.Mopen(length, backing, backOff)
	if err != nil {
		// No space in the remote cache: enter refraction (Figure 5).
		c.mu.Lock()
		c.failed = true
		c.lastFail = c.cfg.Clock.Now()
		c.stats.DiskSpills++
		c.cloneResetLocked(fd)
		c.mu.Unlock()
		return false
	}
	diskRead := int64(0)
	if data == nil {
		// Disk-only source: the clone must carry the real contents.
		data = make([]byte, length)
		if _, err := backing.ReadAt(data, backOff); err != nil {
			_ = c.dodo.Mclose(mfd)
			c.mu.Lock()
			c.cloneResetLocked(fd)
			c.mu.Unlock()
			return false
		}
		diskRead = length
	}

	// Enter the push phase: re-check that data is still current, then
	// raise the clone marker so no write-through can interleave with
	// the push below.
	c.mu.Lock()
	rp := c.lookup(fd)
	if rp == nil || rp.writeGen != gen {
		// Closed, or an acknowledged write landed while the lock was
		// down (e.g. during Mopen): pushing would clobber it on disk.
		// Discard the fresh clone instead.
		c.cloneResetLocked(fd)
		c.mu.Unlock()
		_ = c.dodo.Mclose(mfd)
		return false
	}
	marker := newInflight()
	rp.clonePend = marker
	c.mu.Unlock()

	// Push the contents so the remote copy is authoritative.
	if _, err := c.dodo.Mwrite(mfd, 0, data); err != nil {
		// Release the half-built clone: keeping the fd would leak a
		// client descriptor plus its manager-side allocation, and the
		// runtime's recovery loop would grind on the orphan forever.
		_ = c.dodo.Mclose(mfd)
		c.mu.Lock()
		c.failed = true
		c.lastFail = c.cfg.Clock.Now()
		c.cloneSettleLocked(fd, marker)
		c.mu.Unlock()
		return false
	}

	c.mu.Lock()
	c.failed = false
	c.stats.DiskReads += diskRead
	r2 := c.lookup(fd)
	if r2 == nil {
		// Closed while the lock was down: release the fresh clone.
		c.cloneSettleLocked(fd, marker)
		c.mu.Unlock()
		_ = c.dodo.Mclose(mfd)
		return false
	}
	r2.remoteFD = mfd
	c.stats.RemoteClones++
	if clearDirty && r2.local != nil {
		r2.dirty = false // the push propagated the local bytes to disk
	}
	c.cloneSettleLocked(fd, marker)
	c.mu.Unlock()
	return true
}

// cloneResetLocked abandons a clone attempt that never reached its
// push phase: only the duplicate-suppression flag needs clearing.
// Caller holds c.mu.
func (c *Cache) cloneResetLocked(fd int) {
	if r := c.lookup(fd); r != nil {
		r.cloning = false
	}
}

// cloneSettleLocked ends a clone's push phase: clears the flags and
// releases the marker any write-through may be parked on. The marker
// is closed even when the region is gone — waiters hold their own
// reference. Caller holds c.mu.
func (c *Cache) cloneSettleLocked(fd int, m *inflight) {
	if r := c.lookup(fd); r != nil {
		r.cloning = false
		r.clonePend = nil
	}
	close(m.done)
}
