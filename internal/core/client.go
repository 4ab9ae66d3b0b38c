package core

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dodo/internal/bulk"
	"dodo/internal/locks"
	"dodo/internal/retry"
	"dodo/internal/sim"
	"dodo/internal/transport"
	"dodo/internal/wire"
)

// Errors mirroring the errno values of the paper's API (§3.2).
var (
	// ErrNoMem is the ENOMEM of §3.2: no remote memory could be
	// allocated, or the region is no longer active (host crashed,
	// reclaimed, or region dropped).
	ErrNoMem = errors.New("dodo: remote memory unavailable (ENOMEM)")
	// ErrInval is the EINVAL of §3.2: bad descriptor, offset, length or
	// backing file.
	ErrInval = errors.New("dodo: invalid argument (EINVAL)")
	// ErrClosed reports use of a closed client.
	ErrClosed = errors.New("dodo: client closed")
)

// Config tunes the runtime library.
type Config struct {
	// ManagerAddr is the central manager's transport address.
	ManagerAddr string
	// ClientID distinguishes clients in region keys (multi-client
	// extension of the paper's footnote 4).
	ClientID uint32
	// RefractionPeriod suppresses allocation attempts after a failed
	// one (§3.1; default 5s). Half of it is how long Mopen rides out a
	// manager outage (outageWindow).
	RefractionPeriod time.Duration
	// RecoveryBackoff is the initial delay before the background
	// recovery pass probes dropped regions; it doubles per failed pass,
	// capped at RefractionPeriod (default RefractionPeriod/8).
	RecoveryBackoff time.Duration
	// DisableRecovery turns the background recovery pass off, restoring
	// the paper's original drop-and-forget behavior.
	DisableRecovery bool
	// Seed seeds recovery-backoff jitter; 0 uses a fixed default so
	// test runs are reproducible.
	Seed int64
	// Clock provides time (default wall clock).
	Clock sim.Clock
	// Endpoint tunes the messaging layer.
	Endpoint bulk.Config
	// Logger receives operational events; nil silences them.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.RefractionPeriod == 0 {
		c.RefractionPeriod = 5 * time.Second
	}
	if c.RecoveryBackoff == 0 {
		c.RecoveryBackoff = c.RefractionPeriod / 8
	}
	if c.Seed == 0 {
		c.Seed = 727272
	}
	if c.Clock == nil {
		c.Clock = sim.WallClock{}
	}
	return c
}

// outageWindow bounds manager-outage mode: when the manager is
// unreachable (crashed, restarting) or still rebuilding its directory
// (StatusBusy), Mopen queues behind a capped-exponential backoff for up
// to this long before giving up with ErrNoMem. Reads and writes against
// already-validated regions never touch the manager and keep working
// throughout.
func (c Config) outageWindow() time.Duration { return c.RefractionPeriod / 2 }

// regionState is one row of the client's region table (§4.4).
type regionState struct {
	fd      int
	key     wire.RegionKey
	remote  wire.Region
	backing Backing
	// backOff is the region's base offset within the backing file.
	backOff int64
	length  int64
	// valid is the local/remote flag: false once the remote copy is
	// known lost.
	valid bool
	// gen counts invalidations. remoteWrite snapshots it and refuses
	// to report success when it changed while the write was in flight:
	// the confirmation may describe a superseded announcement — a
	// recovery repopulation pushed (possibly older) backing bytes with
	// a newer sequence, and the imd then confirmed this write without
	// applying it. Success here would let the caller trust a stale
	// remote copy.
	gen uint64
	// diskDirty records that, while the descriptor was invalid, the
	// app was told the region cannot take writes (a failed Mwrite, or
	// CheckAlloc answering false) — its documented recourse
	// is writing the backing file directly, and such writes never touch
	// the sequence counters. While set, a graceful-reclaim handoff copy
	// must not be adopted (it may be behind the disk); only an
	// end-to-end repopulation from the backing file clears it. A failed
	// Mread deliberately does not set the flag: refusing a read gives
	// the app no new license to write anywhere.
	diskDirty bool
	// needsReval marks a still-valid descriptor whose manager-side row
	// may be gone: the manager restarted under a new incarnation, so
	// its rebuilt directory must be consulted before this mapping is
	// trusted past the next keep-alive cycle. The region keeps serving
	// reads and writes (the hosting imd is unaffected by a manager
	// crash); the recovery loop clears the flag once checkAlloc against
	// the new incarnation confirms the row.
	needsReval bool
}

// Client is the Dodo runtime library instance linked into an
// application.
type Client struct {
	// dodo:unguarded — immutable after construction
	cfg Config
	// dodo:unguarded — set once in New before the endpoint loop starts
	ep *bulk.Endpoint
	// dodo:unguarded — immutable after construction
	log *log.Logger

	mu locks.Mutex
	// dodo:guardedby mu
	regions map[int]*regionState
	// aliases refcounts open descriptors per region key: duplicate
	// Mopens of the same (inode, offset) share one RD entry, and only
	// the last Mclose frees it.
	// dodo:guardedby mu
	aliases map[wire.RegionKey]int
	// writeSeq orders remote writes per region key. Every WriteReq
	// carries the next sequence so the hosting imd can discard a
	// duplicated or delayed announcement that would otherwise roll the
	// region back to older bytes. The counter survives re-opens (a
	// fresh imd region starts its gate at zero, so any positive
	// sequence passes) and is dropped only once the manager confirms
	// the free: an unconfirmed free can leave both the manager's RD
	// entry and the imd region (gate included) alive, and a later
	// Mopen of the same key re-attaches to them — restarting the
	// counter there would make every new write look superseded and
	// freeze the remote copy at stale bytes.
	// dodo:guardedby mu
	writeSeq map[wire.RegionKey]uint64
	// confirmedSeq tracks the highest writeSeq the hosting imd has
	// confirmed per key. When it equals writeSeq, every announced write
	// landed remotely — the settled state a graceful-reclaim handoff
	// copy can be adopted in without disk repopulation.
	// dodo:guardedby mu
	confirmedSeq map[wire.RegionKey]uint64
	// mgrIncarnation is the highest manager incarnation observed on any
	// response or keep-alive. A response stamped with an older value is
	// a delayed frame from a dead incarnation and is discarded; a newer
	// value means the manager restarted, so every valid descriptor is
	// marked needsReval (its directory row is being rebuilt from imd
	// inventory and must be confirmed before it is trusted further).
	// dodo:guardedby mu
	mgrIncarnation uint64
	// corruptHosts counts page-checksum failures by the host that
	// served the corrupt frame; reported on every keep-alive ack.
	// dodo:guardedby mu
	corruptHosts map[string]uint64
	// dodo:guardedby mu
	nextFD int
	// dodo:guardedby mu
	lastAllocFail time.Time
	// dodo:guardedby mu
	failedOnce bool
	// dodo:guardedby mu
	closed bool

	// Background recovery (drop -> backoff -> revalidate -> re-open).
	// dodo:unguarded — set at construction; closed once under mu in Close
	recoverStop chan struct{}
	// dodo:unguarded — buffered signal channel, internally synchronized
	recoverKick chan struct{}
	// dodo:unguarded — WaitGroup is internally synchronized
	recoverWG sync.WaitGroup

	// Stats counters: lone tallies with no cross-field invariant, kept
	// atomic so hot paths (Mread/Mwrite completions) never serialize on
	// mu just to count.
	// dodo:atomic
	remoteReads, remoteWrites atomic.Int64
	// dodo:atomic
	remoteReadBy, remoteWriteBy atomic.Int64
	// dodo:atomic
	dropEvents, refractionSkips atomic.Int64
	// dodo:atomic
	revalidations, reopens atomic.Int64
	// dodo:atomic
	handoffAdopts atomic.Int64
	// dodo:atomic
	checksumFails atomic.Int64
	// dodo:atomic
	inlineReads, eagerReads atomic.Int64
	// dodo:atomic
	inlineWrites atomic.Int64
}

// New creates a client runtime over tr.
func New(tr transport.Transport, cfg Config) *Client {
	cfg = cfg.withDefaults()
	c := &Client{
		cfg:          cfg,
		log:          cfg.Logger,
		regions:      make(map[int]*regionState),
		aliases:      make(map[wire.RegionKey]int),
		writeSeq:     make(map[wire.RegionKey]uint64),
		confirmedSeq: make(map[wire.RegionKey]uint64),
		corruptHosts: make(map[string]uint64),
		recoverStop:  make(chan struct{}),
		recoverKick:  make(chan struct{}, 1),
	}
	c.mu.SetRank(locks.RankCoreClient)
	// The client must echo the manager's keep-alives (§3.1) or its
	// regions are reclaimed as orphans. The ack piggybacks the client's
	// counters so the manager aggregates them cluster-wide. The probe's
	// incarnation stamp doubles as the client's restart detector: a
	// value newer than any seen before flips every valid descriptor to
	// needsReval.
	c.ep = bulk.NewEndpoint(tr, cfg.Endpoint, func(from string, msg wire.Message) wire.Message {
		if ka, ok := msg.(*wire.KeepAlive); ok {
			c.noteIncarnation(ka.Incarnation)
			return c.keepAliveAck(ka.ClientID)
		}
		return nil
	})
	if !cfg.DisableRecovery {
		c.recoverWG.Add(1)
		go c.recoveryLoop()
	}
	return c
}

// Addr returns the client's transport address.
func (c *Client) Addr() string { return c.ep.LocalAddr() }

// Close releases the client. Open regions are left to the central
// manager's keep-alive reclamation — exactly what happens when an
// application exits without mclosing (§4.3) — so persistent-region
// workloads like dmine can deliberately leave their data cached.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	select {
	case <-c.recoverStop:
	default:
		close(c.recoverStop)
	}
	err := c.ep.Close()
	c.recoverWG.Wait()
	return err
}

func (c *Client) logf(format string, args ...any) {
	if c.log != nil {
		c.log.Printf(format, args...)
	}
}

// Stats reports client-side counters.
type Stats struct {
	RemoteReads, RemoteWrites         int64
	RemoteReadBytes, RemoteWriteBytes int64
	DropEvents                        int64
	RefractionSkips                   int64
	// Revalidations counts checkAlloc probes, the recovery pass's and
	// CheckAlloc's; Reopens counts regions transparently re-opened
	// after a drop.
	Revalidations, Reopens int64
	// HandoffAdopts counts regions re-validated onto a graceful-reclaim
	// handoff copy without disk repopulation.
	HandoffAdopts int64
	// RetryExhausted counts endpoint operations that ran their retry
	// budget dry.
	RetryExhausted int64
	// ChecksumFailures counts remote reads whose page failed its
	// CRC32-C check; CorruptHosts breaks them down by serving host.
	ChecksumFailures int64
	CorruptHosts     []wire.HostCount
	// InlineReads counts remote reads answered inline in the read
	// response (1 RTT); EagerReads counts reads served by an
	// eager-first-window bulk transfer.
	InlineReads, EagerReads int64
	// InlineWrites counts remote pushes (Mwrite and recovery's
	// repopulation) sent as one WriteReq frame carrying the bytes, no
	// bulk transfer; the rest of RemoteWrites were pushed first.
	InlineWrites int64
	// Deprecated: always 0; read by benchmark/metrics.go, goes with BatchRead.
	BatchReads int64
	// Deprecated: always 0; read by benchmark/metrics.go. A read the
	// remote copy cannot serve fails with ErrNoMem (§3.1).
	HedgedReads, HedgeWins int64
	// ManagerIncarnation is the highest manager incarnation observed.
	ManagerIncarnation uint64
	OpenRegions        int
}

// Stats returns a snapshot. Counters are loaded atomically; only the
// region-table size needs the lock.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	open := len(c.regions)
	inc := c.mgrIncarnation
	c.mu.Unlock()
	return Stats{
		RemoteReads:        c.remoteReads.Load(),
		RemoteWrites:       c.remoteWrites.Load(),
		RemoteReadBytes:    c.remoteReadBy.Load(),
		RemoteWriteBytes:   c.remoteWriteBy.Load(),
		DropEvents:         c.dropEvents.Load(),
		RefractionSkips:    c.refractionSkips.Load(),
		Revalidations:      c.revalidations.Load(),
		Reopens:            c.reopens.Load(),
		HandoffAdopts:      c.handoffAdopts.Load(),
		RetryExhausted:     c.ep.RetryExhausted(),
		ChecksumFailures:   c.checksumFails.Load(),
		CorruptHosts:       c.corruptHostsSnapshot(),
		InlineReads:        c.inlineReads.Load(),
		InlineWrites:       c.inlineWrites.Load(),
		EagerReads:         c.eagerReads.Load(),
		ManagerIncarnation: inc,
		OpenRegions:        open,
	}
}

// dataBudget scales a call timeout with the transfer size so large
// regions are not cut off mid-blast.
func dataBudget(n int64) time.Duration {
	return 5*time.Second + time.Duration(n/(1<<20))*2*time.Second
}

// Mopen allocates a new remote memory region of length bytes, backed by
// the byte range [offset, offset+length) of backing (§3.2). It returns
// a non-negative region descriptor for use with the other calls.
//
// Errors follow the paper: ErrInval for a bad length, offset or
// non-writable backing; ErrNoMem when the cluster has no space (in
// which case further Mopens are suppressed for the refraction period).
//
// The descriptor owns a manager-side region mapping: every successful
// Mopen must be balanced by an Mclose on every path.
func (c *Client) Mopen(length int64, backing Backing, offset int64) (int, error) {
	if length < 1 || offset < 0 {
		return -1, fmt.Errorf("%w: length %d, offset %d", ErrInval, length, offset)
	}
	if backing == nil || !backing.Writable() {
		return -1, fmt.Errorf("%w: backing file not open for writing", ErrInval)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return -1, ErrClosed
	}
	// Refraction period: after a failed allocation, don't even ask
	// (§3.1: "the library refrains from making allocation calls for a
	// fixed time period").
	if c.failedOnce && c.cfg.Clock.Now().Sub(c.lastAllocFail) < c.cfg.RefractionPeriod {
		c.refractionSkips.Add(1)
		c.mu.Unlock()
		return -1, fmt.Errorf("%w: in refraction period", ErrNoMem)
	}
	c.mu.Unlock()

	key := wire.RegionKey{Inode: backing.Inode(), Offset: offset, ClientID: c.cfg.ClientID}
	// Manager-outage mode: a crashed or rebuilding manager answers with
	// silence or StatusBusy, neither of which means the cluster is out
	// of memory. Queue the allocation behind a capped-exponential
	// backoff for up to outageWindow — long enough to ride out a
	// restart plus its rebuild grace — before reporting ErrNoMem. The
	// retry budget is started lazily so the common single-shot success
	// costs nothing extra.
	var budget retry.Budget
	started := false
	var ar *wire.AllocResp
	for {
		resp, err := c.ep.Call(c.cfg.ManagerAddr, &wire.AllocReq{Key: key, Length: uint64(length)})
		outage := false
		if err != nil {
			outage = true // unreachable: crashed or restarting
		} else {
			var ok bool
			if ar, ok = resp.(*wire.AllocResp); !ok {
				return -1, fmt.Errorf("%w: unexpected response %v", ErrNoMem, resp.Kind())
			}
			if !c.noteIncarnation(ar.Incarnation) {
				outage = true // delayed answer from a dead incarnation
			} else if ar.Status == wire.StatusBusy {
				outage = true // directory rebuild in progress
			}
		}
		if !outage {
			break
		}
		if !started {
			started = true
			budget = retry.New(retry.Policy{
				Deadline: c.cfg.outageWindow(),
				Base:     c.cfg.RecoveryBackoff,
				Cap:      c.cfg.outageWindow() / 2,
				Factor:   2,
				Jitter:   0.1,
			}, c.cfg.Clock, rand.New(rand.NewSource(c.cfg.Seed)))
		}
		delay, more := budget.Next()
		if !more {
			// Outage outlived the window. Deliberately no refraction:
			// this is not a capacity verdict, and the next Mopen should
			// probe the manager again immediately.
			if err != nil {
				return -1, fmt.Errorf("%w: manager unreachable: %v", ErrNoMem, err)
			}
			return -1, fmt.Errorf("%w: manager rebuilding its directory", ErrNoMem)
		}
		if !sim.SleepInterruptible(c.cfg.Clock, delay, c.recoverStop) {
			return -1, ErrClosed
		}
	}
	if ar.Status != wire.StatusOK {
		c.mu.Lock()
		c.failedOnce = true
		c.lastAllocFail = c.cfg.Clock.Now()
		c.mu.Unlock()
		if ar.Status == wire.StatusInvalid {
			return -1, ErrInval
		}
		return -1, ErrNoMem
	}

	c.mu.Lock()
	fd := c.nextFD
	c.nextFD++
	c.regions[fd] = &regionState{
		fd:      fd,
		key:     key,
		remote:  ar.Region,
		backing: backing,
		backOff: offset,
		length:  length,
		valid:   true,
	}
	c.aliases[key]++
	c.mu.Unlock()
	c.logf("dodo: mopen fd %d -> %s region %d (%d bytes)", fd, ar.Region.HostAddr, ar.Region.RegionID, length)
	return fd, nil
}

// lookup returns a snapshot of the region table row for fd. A snapshot
// (not the live pointer) keeps Mread/Mwrite race-free against concurrent
// dropHost/CheckAlloc mutations.
func (c *Client) lookup(fd int) (regionState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return regionState{}, ErrClosed
	}
	r, ok := c.regions[fd]
	if !ok {
		return regionState{}, fmt.Errorf("%w: bad region descriptor %d", ErrInval, fd)
	}
	return *r, nil
}

// dropHost invalidates every region hosted by addr: when one access to a
// node fails, all descriptors for that node are dropped (§3.1).
func (c *Client) dropHost(addr string) {
	c.mu.Lock()
	n := 0
	for _, r := range c.regions {
		if r.valid && r.remote.HostAddr == addr {
			r.valid = false
			r.gen++
			n++
		}
	}
	if n > 0 {
		c.dropEvents.Add(1)
		c.logf("dodo: dropped %d region descriptors on failed host %s", n, addr)
	}
	c.mu.Unlock()
	if n > 0 {
		c.kickRecovery()
	}
}

// noteIncarnation folds an incarnation stamped on a manager response
// into the client's view. It returns false when the frame came from a
// dead incarnation — the caller must treat the response as a failure,
// exactly like a lost frame (incarnation fencing: a delayed pre-crash
// answer must not install directory state the restarted manager no
// longer vouches for). A newer incarnation than any seen before means
// the manager restarted: every valid descriptor flips to needsReval
// and the recovery loop is kicked to confirm each row against the
// rebuilt directory.
func (c *Client) noteIncarnation(inc uint64) bool {
	c.mu.Lock()
	if inc < c.mgrIncarnation {
		c.mu.Unlock()
		return false
	}
	kick := false
	if inc > c.mgrIncarnation {
		prev := c.mgrIncarnation
		c.mgrIncarnation = inc
		if prev != 0 {
			n := 0
			for _, r := range c.regions {
				if r.valid && !r.needsReval {
					r.needsReval = true
					n++
				}
			}
			if n > 0 {
				c.logf("dodo: manager restarted (incarnation %d -> %d); revalidating %d regions", prev, inc, n)
			}
			kick = n > 0
		}
	}
	c.mu.Unlock()
	if kick {
		c.kickRecovery()
	}
	return true
}

// noteCorrupt records one page-checksum failure served by addr.
func (c *Client) noteCorrupt(addr string) {
	c.checksumFails.Add(1)
	c.mu.Lock()
	c.corruptHosts[addr]++
	c.mu.Unlock()
}

// corruptHostsSnapshot returns the per-host corruption counters in
// address order for a keep-alive ack.
func (c *Client) corruptHostsSnapshot() []wire.HostCount {
	c.mu.Lock()
	hosts := make([]wire.HostCount, 0, len(c.corruptHosts))
	for addr, n := range c.corruptHosts {
		hosts = append(hosts, wire.HostCount{Addr: addr, Count: n})
	}
	c.mu.Unlock()
	if len(hosts) == 0 {
		return nil
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i].Addr < hosts[j].Addr })
	return hosts
}

// ackCounters names the running totals every keep-alive ack carries to
// the manager, in the order they are sent. A total the cluster should
// see is one row here: neither the wire nor the manager names it.
var ackCounters = []struct {
	name string
	load func(*Client) int64
}{
	{"drops", func(c *Client) int64 { return c.dropEvents.Load() }},
	{"revalidations", func(c *Client) int64 { return c.revalidations.Load() }},
	{"reopens", func(c *Client) int64 { return c.reopens.Load() }},
	{"handoff_adopts", func(c *Client) int64 { return c.handoffAdopts.Load() }},
	{"retry_exhausted", func(c *Client) int64 { return c.ep.RetryExhausted() }},
	{"checksum_failures", func(c *Client) int64 { return c.checksumFails.Load() }},
}

// keepAliveAck answers the manager's keep-alive with every counter in
// ackCounters and the per-host corruption breakdown.
func (c *Client) keepAliveAck(id uint32) *wire.KeepAliveAck {
	counters := make([]wire.Counter, len(ackCounters))
	for i, k := range ackCounters {
		counters[i] = wire.Counter{Name: k.name, Value: uint64(k.load(c))}
	}
	return &wire.KeepAliveAck{ClientID: id, Counters: counters, CorruptHosts: c.corruptHostsSnapshot()}
}

// markDiskDirty flags fd's region as possibly behind the backing file:
// the app has just been told the region cannot take a write, so its
// sanctioned fallback — writing the backing file directly — may happen
// at any point from here until a repopulation pushes the disk bytes
// back end-to-end. See regionState.diskDirty.
func (c *Client) markDiskDirty(fd int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.regions[fd]; ok {
		r.diskDirty = true
	}
}

// Mread reads up to len(buf) bytes at offset within the region into buf
// (§3.2). It returns the number of bytes read, which is short if fewer
// bytes are available at that offset. ErrNoMem reports an inactive
// region (invalid descriptor state, crashed or reclaimed host); ErrInval
// reports bad arguments. On ErrNoMem the caller falls back to the
// backing file.
func (c *Client) Mread(fd int, offset int64, buf []byte) (int, error) {
	r, err := c.lookup(fd)
	if err != nil {
		return -1, err
	}
	if offset < 0 || offset > r.length {
		return -1, fmt.Errorf("%w: offset %d in %d-byte region", ErrInval, offset, r.length)
	}
	if !r.valid {
		return -1, fmt.Errorf("%w: region %d is not active", ErrNoMem, fd)
	}
	want := int64(len(buf))
	if offset+want > r.length {
		want = r.length - offset
	}
	if want == 0 {
		return 0, nil
	}
	// The inline payload or bulk stream lands in buf with no
	// intermediate allocation.
	rr, err := c.startRemoteRead(r, offset, buf[:want])
	if err != nil {
		return -1, err
	}
	n, err := rr.finish()
	if err != nil {
		return -1, err
	}
	c.remoteReads.Add(1)
	c.remoteReadBy.Add(int64(n))
	return n, nil
}

// remoteRead is a read against the hosting imd once its request is
// out: the response to wait for, and for an eager read the transfer
// after it. finish assembles the bytes into dst. Failures drop every
// descriptor on the host (§3.1) and surface as ErrNoMem so callers fall
// back to the backing file.
//
// One exchange, two response shapes, chosen by size alone:
//
//   - a read that fits one frame comes back in the DataResp payload
//     itself — one round trip, no bulk machinery;
//   - for a larger read the client picks the transfer id, pre-registers
//     the receive, and advertises its window in the request; the imd
//     blasts the first window immediately, with the DataResp doubling
//     as the bulk offer. The selective-NACK engine governs the
//     transfer, so a lossy first window degrades to ordinary recovery.
type remoteRead struct {
	c    *Client
	host string
	dst  []byte
	call *bulk.Pending
	// xfer is the receive registered for an eager answer, or zero; crc
	// is the checksum the answer named.
	xfer uint64
	crc  uint32
}

// startRemoteRead registers the receive a large read needs and sends
// the request.
func (c *Client) startRemoteRead(r regionState, offset int64, dst []byte) (remoteRead, error) {
	rr := remoteRead{c: c, host: r.remote.HostAddr, dst: dst}
	req := &wire.ReadReq{
		RegionID: r.remote.RegionID,
		Epoch:    r.remote.Epoch,
		Offset:   uint64(offset),
		Length:   uint64(len(dst)),
	}
	// For a read the imd won't inline, pre-register the receive under a
	// client-chosen transfer id BEFORE the request leaves: the first
	// packets may land before the response does.
	if len(dst) > wire.InlineDataLimit(c.ep.Transport().MTU()) {
		id := c.ep.NextTransferID()
		chunk := c.ep.ChunkSize()
		window, err := c.ep.ExpectBulkInto(dst, rr.host, id, chunk)
		if err != nil {
			return rr, fmt.Errorf("%w: registering receive from %s: %v", ErrNoMem, rr.host, err)
		}
		rr.xfer = id
		req.XferID, req.ChunkSize, req.Window = id, uint32(chunk), uint32(window)
	}
	call, err := c.ep.Start(rr.host, req)
	if err != nil {
		return rr, rr.fail(fmt.Errorf("%w: host %s unreachable: %v", ErrNoMem, rr.host, err))
	}
	rr.call = call
	return rr, nil
}

// finish waits the read out and returns how many bytes landed in dst.
func (rr *remoteRead) finish() (int, error) {
	c, host := rr.c, rr.host
	resp, err := rr.call.Wait()
	if err != nil {
		return -1, rr.fail(fmt.Errorf("%w: host %s unreachable: %v", ErrNoMem, host, err))
	}
	// An inline payload aliases the response's frame, which goes back
	// to the pool once the payload is in dst.
	n, eager, err := rr.answered(resp)
	rr.call.Release()
	if !eager {
		return n, err
	}
	// The bytes assemble in dst, where the receive was registered.
	n, err = c.ep.RecvBulkInto(rr.dst, host, rr.xfer, dataBudget(int64(len(rr.dst))))
	if err != nil {
		c.dropHost(host)
		return -1, fmt.Errorf("%w: transfer failed: %v", ErrNoMem, err)
	}
	c.eagerReads.Add(1)
	return rr.check(n)
}

// answered takes the imd's response to the read: the bytes themselves
// when they rode it inline, a failure, or eager when they follow as the
// transfer the read registered.
func (rr *remoteRead) answered(resp wire.Message) (n int, eager bool, err error) {
	dr, ok := resp.(*wire.DataResp)
	if !ok {
		// A misrouted or unexpected response type must degrade, not
		// panic: dr is nil here, so it cannot be formatted.
		return -1, false, rr.fail(fmt.Errorf("%w: unexpected response %v", ErrNoMem, resp.Kind()))
	}
	if dr.Status != wire.StatusOK {
		return -1, false, rr.fail(fmt.Errorf("%w: read refused (%v)", ErrNoMem, dr.Status))
	}
	rr.crc = dr.Crc
	switch {
	case dr.Flags&wire.DataFlagInline != 0:
		// The bytes rode the response itself; any pre-registered
		// receive is moot.
		rr.cancel()
		rr.c.inlineReads.Add(1)
		n, err = rr.check(copy(rr.dst, dr.Payload))
		return n, false, err
	case dr.Flags&wire.DataFlagEager != 0 && rr.xfer != 0 && dr.TransferID == rr.xfer:
		return 0, true, nil
	}
	// An OK response in neither shape, or one naming a transfer this
	// read did not register, is a protocol violation.
	return -1, false, rr.fail(fmt.Errorf("%w: read response from %s carries no data", ErrNoMem, rr.host))
}

// check verifies the n bytes that arrived against the checksum the imd
// sent.
func (rr *remoteRead) check(n int) (int, error) {
	if wire.Checksum(rr.dst[:n]) != rr.crc {
		// The bytes that arrived are not the bytes the imd hashed:
		// fail the read rather than hand the app a corrupt page. The
		// drop → revalidate path then repopulates the region from the
		// backing file end-to-end.
		rr.c.noteCorrupt(rr.host)
		rr.c.dropHost(rr.host)
		return -1, fmt.Errorf("%w: page checksum mismatch from %s", ErrNoMem, rr.host)
	}
	return n, nil
}

// cancel drops the pre-registered receive, if any.
func (rr *remoteRead) cancel() {
	if rr.xfer != 0 {
		rr.c.ep.CancelExpect(rr.host, rr.xfer)
		rr.xfer = 0
	}
}

// fail ends the read with err: the receive is dropped, and so is the
// host.
func (rr *remoteRead) fail(err error) error {
	rr.cancel()
	rr.c.dropHost(rr.host)
	return err
}

// Mwrite writes buf to the backing file and to the remote region in
// parallel (§3: "Writes to remote memory are propagated to disk in
// parallel to being sent to the remote host"). It returns the bytes
// written into the region (short at the region tail). A backing-file
// failure surfaces as that write's error; a remote failure drops the
// host's descriptors and reports ErrNoMem (the disk copy may still have
// succeeded — the region is simply no longer cached).
func (c *Client) Mwrite(fd int, offset int64, buf []byte) (int, error) {
	r, err := c.lookup(fd)
	if err != nil {
		return -1, err
	}
	if offset < 0 || offset > r.length {
		return -1, fmt.Errorf("%w: offset %d in %d-byte region", ErrInval, offset, r.length)
	}
	if !r.valid {
		// The app is being told the region can't take this write; it
		// may now legitimately write the backing file directly, which
		// bumps no sequence — so any handoff snapshot is unadoptable.
		c.markDiskDirty(fd)
		return -1, fmt.Errorf("%w: region %d is not active", ErrNoMem, fd)
	}
	want := int64(len(buf))
	if offset+want > r.length {
		want = r.length - offset
	}
	if want == 0 {
		return 0, nil
	}
	data := buf[:want]

	// Disk and remote in parallel.
	type diskResult struct {
		n   int
		err error
	}
	diskCh := make(chan diskResult, 1)
	go func() {
		n, err := r.backing.WriteAt(data, r.backOff+offset)
		diskCh <- diskResult{n, err}
	}()

	remoteErr := c.remoteWrite(r, offset, data)
	disk := <-diskCh

	if disk.err != nil {
		// The paper passes through the backing write's errno.
		return -1, fmt.Errorf("dodo: backing write failed: %w", disk.err)
	}
	if remoteErr != nil {
		c.dropHost(r.remote.HostAddr)
		// Belt and braces: the unconfirmed announcement already blocks
		// adoption via the write-seq gate, but the app is also being
		// told to fall back to disk-only writes from here on.
		c.markDiskDirty(fd)
		return -1, fmt.Errorf("%w: remote write failed: %v", ErrNoMem, remoteErr)
	}
	c.remoteWrites.Add(1)
	c.remoteWriteBy.Add(want)
	return int(want), nil
}

// remoteWrite pushes data to the hosting imd under the region's next
// write sequence and records the confirmation. One exchange, two
// request shapes, chosen by size alone as a read's response is:
//
//   - a write that fits one frame rides the WriteReq itself — one round
//     trip on the ordinary call budget, no bulk machinery;
//   - a larger write pushes the bytes first (SendBulk returns once the
//     imd has all of them) and then names their transfer in the
//     WriteReq, whose call finds them waiting and so needs no more than
//     the ordinary budget either.
func (c *Client) remoteWrite(r regionState, offset int64, data []byte) error {
	host := r.remote.HostAddr
	c.mu.Lock()
	c.writeSeq[r.key]++
	seq := c.writeSeq[r.key]
	c.mu.Unlock()
	req := &wire.WriteReq{
		RegionID: r.remote.RegionID,
		Epoch:    r.remote.Epoch,
		Offset:   uint64(offset),
		Length:   uint64(len(data)),
		WriteSeq: seq,
		Crc:      wire.Checksum(data),
	}
	if len(data) <= wire.InlineWriteLimit(c.ep.Transport().MTU()) {
		req.Payload = data
		c.inlineWrites.Add(1)
	} else {
		req.TransferID = c.ep.NextTransferID()
		if err := c.ep.SendBulk(host, req.TransferID, data); err != nil {
			return err
		}
	}
	resp, err := c.ep.Call(host, req)
	if err != nil {
		return err
	}
	dr, ok := resp.(*wire.DataResp)
	if !ok {
		return fmt.Errorf("unexpected response %v", resp.Kind())
	}
	if dr.Status != wire.StatusOK {
		return fmt.Errorf("write refused (%v)", dr.Status)
	}
	if dr.Count != uint64(len(data)) {
		return fmt.Errorf("short remote write: %d of %d bytes", dr.Count, len(data))
	}
	// A drop/recovery cycle while this write was in flight means the
	// confirmation cannot be trusted: the recovery repopulation pushed
	// backing bytes — possibly older than ours — under a newer
	// sequence, so the imd may have confirmed this announcement without
	// applying it. Fail the write; the caller re-pushes against the
	// recovered region with a sequence that postdates the repopulation.
	c.mu.Lock()
	live, alive := c.regions[r.fd]
	recycled := !alive || live.gen != r.gen
	if !recycled && seq > c.confirmedSeq[r.key] {
		c.confirmedSeq[r.key] = seq
	}
	c.mu.Unlock()
	if recycled {
		return fmt.Errorf("region %d recovered while the write was in flight", r.fd)
	}
	return nil
}

// Mclose deallocates the region (§3.2). It contacts the central manager
// to free the remote memory and removes the descriptor; it does not
// touch the backing file.
func (c *Client) Mclose(fd int) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	r, ok := c.regions[fd]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: bad region descriptor %d", ErrInval, fd)
	}
	delete(c.regions, fd)
	c.aliases[r.key]--
	if c.aliases[r.key] > 0 {
		// Other descriptors still alias this RD entry (duplicate Mopen
		// of the same inode/offset); only the last Mclose frees it.
		c.mu.Unlock()
		return nil
	}
	delete(c.aliases, r.key)
	c.mu.Unlock()

	resp, err := c.ep.Call(c.cfg.ManagerAddr, &wire.FreeReq{Key: r.key})
	if err != nil {
		// The free never reached the manager: its RD entry — and the
		// imd region behind it, write-ordering gate included — may
		// still be live, and a future Mopen of this key can re-attach
		// to them. Keep the sequence counter so those writes stay
		// ahead of the gate.
		return fmt.Errorf("%w: cannot contact central manager: %v", ErrInval, err)
	}
	// The manager answered, so its RD entry is gone either way and the
	// next Mopen of this key gets a fresh region with a fresh gate; the
	// counter can restart. Skip the delete if the key was re-opened
	// while the free was in flight — the live descriptor owns it now.
	c.mu.Lock()
	if c.aliases[r.key] == 0 {
		delete(c.writeSeq, r.key)
		delete(c.confirmedSeq, r.key)
	}
	c.mu.Unlock()
	if fr, ok := resp.(*wire.FreeResp); !ok || fr.Status != wire.StatusOK {
		return fmt.Errorf("%w: region already reclaimed", ErrInval)
	}
	return nil
}

// Msync blocks until all data in the region is on disk (§3.2). Mwrite
// writes through to the backing synchronously, so this reduces to
// syncing the backing store.
func (c *Client) Msync(fd int) error {
	r, err := c.lookup(fd)
	if err != nil {
		return err
	}
	return r.backing.Sync()
}

// CheckAlloc asks the central manager whether the region behind fd is
// still allocated (the checkAlloc operation of §4.3) and settles the
// descriptor on the answer: it is one step of the recovery loop
// (revalidate) run on demand. true means the descriptor is valid and
// its remote copy holds the backing file's bytes:
//
//   - a row still mapped but not fresh is repopulated from the backing
//     file before the answer, so bytes the app wrote to the backing
//     file while the descriptor was dropped are what Mread serves;
//   - a fresh handoff copy is adopted behind adoptHandoff's gate, and
//     repopulated when the gate is not settled;
//   - a row that is gone is re-opened under the original key.
//
// false means the descriptor is invalid; it is marked disk-dirty, since
// the app may now write the backing file directly. An error means the
// manager gave no verdict (unreachable, a dead incarnation, busy) and
// the descriptor is unchanged. Every call counts in Stats.Revalidations.
func (c *Client) CheckAlloc(fd int) (bool, error) {
	if err := c.revalidate(fd); err != nil {
		return false, err
	}
	r, err := c.lookup(fd)
	if err != nil {
		return false, err
	}
	if !r.valid {
		c.markDiskDirty(fd)
	}
	return r.valid, nil
}

// RegionValid reports the local/remote flag of the region table row.
func (c *Client) RegionValid(fd int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.regions[fd]
	return ok && r.valid
}

// RegionHost reports which imd currently backs fd's region; ok is
// false while the descriptor is invalid (dropped, awaiting recovery).
func (c *Client) RegionHost(fd int) (addr string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, live := c.regions[fd]
	if !live || !r.valid {
		return "", false
	}
	return r.remote.HostAddr, true
}
