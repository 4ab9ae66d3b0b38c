// Package imd implements Dodo's idle memory daemon (§4.2).
//
// An imd is forked by the resource monitor daemon when its workstation
// becomes idle. It allocates a memory pool at startup (sized by the
// harvest limit of §3.1), initializes an epoch counter used to timestamp
// the remote regions it caches, announces itself to the central manager,
// serves alloc/free requests from the manager and read/write requests
// from client runtimes, and — when the workstation is reclaimed —
// completes ongoing transfers and exits.
package imd

import (
	"errors"
	"hash/fnv"
	"log"
	"math/rand"
	"sort"
	"sync"
	"time"

	"dodo/internal/bulk"
	"dodo/internal/locks"
	"dodo/internal/pool"
	"dodo/internal/retry"
	"dodo/internal/sim"
	"dodo/internal/transport"
	"dodo/internal/wire"
)

// Config tunes a daemon.
type Config struct {
	// ManagerAddr is the central manager's transport address.
	ManagerAddr string
	// PoolSize is the memory pool allocated at startup.
	PoolSize uint64
	// Epoch timestamps this daemon instance. The rmd hands each imd
	// incarnation a larger epoch than the last so the manager can
	// detect regions that died with a previous incarnation (§4.2-4.3).
	Epoch uint64
	// StatusInterval is the period of unsolicited availability reports
	// to the manager (default 1s; hints are also piggybacked on every
	// alloc/free response, §4.3).
	StatusInterval time.Duration
	// GraceWindow bounds the handoff phase of a polite drain: after the
	// HostBusy announcement the daemon keeps serving reads and pushes
	// its hottest pages to manager-chosen peers until the window
	// expires; whatever has not moved by then is aborted (default
	// 750ms). The owner's reclaim latency is bounded by this value.
	GraceWindow time.Duration
	// Clock provides time (default wall clock).
	Clock sim.Clock
	// Endpoint tunes the messaging layer.
	Endpoint bulk.Config
	// Logger receives operational events; nil silences them.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.StatusInterval == 0 {
		c.StatusInterval = time.Second
	}
	if c.GraceWindow == 0 {
		c.GraceWindow = 750 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = sim.WallClock{}
	}
	return c
}

// Daemon is one idle memory daemon instance.
type Daemon struct {
	// dodo:unguarded — immutable after construction
	cfg Config
	// dodo:unguarded — set once in New before handlers are gated open
	ep *bulk.Endpoint
	// dodo:unguarded — immutable after construction
	log *log.Logger

	mu locks.Mutex
	// dodo:guardedby mu
	pool *pool.Pool
	// dodo:guardedby mu
	draining bool
	// drainDone marks the end of the drain grace window: reads were
	// still served between draining and drainDone, and refuse after.
	// dodo:guardedby mu
	drainDone bool
	// dodo:guardedby mu
	closed bool
	// lastWriteSeq gates writes per region: an announcement whose
	// WriteSeq is not newer than the last applied one is a network
	// replay (duplicate or delayed frame) and must not be applied —
	// applying it would roll the region back to older bytes that the
	// client has already overwritten and confirmed. Entries are
	// dropped when the region is created or deleted.
	// dodo:guardedby mu
	lastWriteSeq map[uint64]uint64
	// readCount tracks per-region read hotness so a drain can hand off
	// the most-read pages first when the grace window cannot fit all.
	// dodo:guardedby mu
	readCount map[uint64]uint64
	// handoffApplied marks regions whose bytes arrived via a handoff
	// page push, making duplicate HandoffPage announcements idempotent
	// (the same confirm-after-apply discipline as lastWriteSeq).
	// dodo:guardedby mu
	handoffApplied map[uint64]bool
	// regionMeta remembers, per region, the allocation-time key, owning
	// client and pool offset from the manager's IMDAllocReq. It exists
	// solely so an inventory re-report after a manager crash can hand
	// the restarted manager enough to rebuild full directory rows
	// (§ restart recovery). Entries predating client tracking carry a
	// zero key and are skipped by the manager.
	// dodo:guardedby mu
	regionMeta map[uint64]regionMeta
	// mgrIncarnation is the highest manager incarnation observed in any
	// HostStatusAck or InventoryAck; reportedIncarnation is the highest
	// one whose inventory re-report the manager acknowledged OK. A gap
	// between the two means the manager restarted and has not yet
	// rebuilt our rows — the report loop closes it.
	// dodo:guardedby mu
	mgrIncarnation uint64
	// dodo:guardedby mu
	reportedIncarnation uint64
	// reportKick wakes the inventory report loop; buffered so a kick
	// while a report is in flight coalesces instead of blocking.
	// dodo:unguarded — channel is internally synchronized
	reportKick chan struct{}

	// dodo:unguarded — WaitGroup is internally synchronized
	transfers sync.WaitGroup // in-flight region data pushes
	// pendingWrites tracks writes admitted (draining flag checked)
	// whose apply has not landed yet; Drain waits on it before the
	// handoff reads region contents.
	// dodo:unguarded — WaitGroup is internally synchronized
	pendingWrites sync.WaitGroup
	// dodo:unguarded — set at construction; closed once under mu in Close
	stop chan struct{}
	// dodo:unguarded — WaitGroup is internally synchronized
	loops sync.WaitGroup

	// stats
	// dodo:guardedby mu
	reads, writes, readBytes, writeBytes, staleRejects int64
	// dodo:guardedby mu
	pagesHandedOff, handoffAborts int64
	// checksumRejects counts inbound frames (writes, handoff pages)
	// whose CRC32-C did not match their bytes.
	// dodo:guardedby mu
	checksumRejects int64
	// inventoryReports counts re-reports the manager acknowledged OK.
	// dodo:guardedby mu
	inventoryReports int64

	// eagerResp memoizes the response for each requester-chosen eager
	// transfer id, and eagerOrder its insertion order. A retransmitted
	// ReadReq (the client's Call resends on timeout) MUST get the
	// original response back without starting a second blast:
	// the pool may have been written in between, and a second blast
	// under the same transfer id would interleave two versions of the
	// bytes into the client's buffer and fail its end-to-end CRC.
	// Bounded FIFO — old entries only matter for duplicates, which the
	// client's call deadline bounds far tighter than the table size.
	// dodo:guardedby mu
	eagerResp map[eagerKey]*wire.DataResp
	// dodo:guardedby mu
	eagerOrder []eagerKey

	// pins counts, per region, the sends running outside mu straight
	// from the region's pool bytes (an eager read's blast, an inline
	// read's reply until it is encoded, a handoff page's push). While a
	// region is pinned nothing changes its bytes or frees its span: land
	// and handleFree wait on unpinned.
	// dodo:guardedby mu
	pins map[uint64]int
	// unpinned is broadcast when a region's last pin goes; it shares mu.
	// dodo:unguarded — sync.Cond is internally synchronized over mu
	unpinned *sync.Cond
}

// pinned is a region's bytes lent, in place in the pool, to one send
// that runs outside d.mu; unpin returns them.
type pinned struct {
	region uint64
	data   []byte
}

// pinnedReply is an inline read's response. Its payload is the region's
// bytes in place in the pool, pinned until the endpoint has encoded the
// response (bulk.Releaser): a write waits for the copy into the frame,
// not for the send, and the bytes are copied once on their way out.
type pinnedReply struct {
	wire.DataResp
	d   *Daemon
	pin pinned
}

// Release unpins the payload once the endpoint has encoded it. It is
// called only through bulk.Releaser, where no release annotation
// reaches, so TestWriteWaitsForPinnedInlineReply is what catches a
// Release that does not unpin.
func (r *pinnedReply) Release() {
	r.d.unpin(r.pin)
}

// eagerKey names a requester-chosen transfer: the requester's address
// plus the id it picked (unique per requester by construction).
type eagerKey struct {
	from string
	id   uint64
}

// eagerMemoCap bounds the eager response memo table.
const eagerMemoCap = 256

// regionMeta is the per-region allocation context replayed to a
// restarted manager in an InventoryReport.
type regionMeta struct {
	key    wire.RegionKey
	client string
	offset uint64
}

// New starts a daemon serving its pool on tr and registers it with the
// central manager.
func New(tr transport.Transport, cfg Config) *Daemon {
	cfg = cfg.withDefaults()
	d := &Daemon{
		cfg:            cfg,
		log:            cfg.Logger,
		pool:           pool.New(pool.NewFirstFit(cfg.PoolSize)),
		lastWriteSeq:   make(map[uint64]uint64),
		readCount:      make(map[uint64]uint64),
		handoffApplied: make(map[uint64]bool),
		regionMeta:     make(map[uint64]regionMeta),
		reportKick:     make(chan struct{}, 1),
		stop:           make(chan struct{}),
		eagerResp:      make(map[eagerKey]*wire.DataResp),
		pins:           make(map[uint64]int),
	}
	d.mu.SetRank(locks.RankIMD)
	d.unpinned = sync.NewCond(&d.mu)
	// Handlers may fire before this constructor returns; gate them
	// until d.ep is assigned.
	ready := make(chan struct{})
	d.ep = bulk.NewEndpoint(tr, cfg.Endpoint, func(from string, msg wire.Message) wire.Message {
		<-ready
		return d.handle(from, msg)
	})
	close(ready)
	// Namespace bulk transfer ids by incarnation: a restarted imd reuses
	// its transport address, and a client's bulk receiver keys transfer
	// state by (address, id). Without the seed, this incarnation's reads
	// would re-issue ids the previous one already used, and the client
	// would answer them from stale per-transfer state — failing the read
	// or, worse, serving the dead incarnation's bytes.
	d.ep.SeedTransferIDs(cfg.Epoch << 32)
	d.announce(wire.HostIdle)
	d.loops.Add(2)
	go d.statusLoop()
	go d.reportLoop()
	return d
}

// Addr returns the daemon's transport address.
func (d *Daemon) Addr() string { return d.ep.LocalAddr() }

// Epoch returns the daemon's epoch.
func (d *Daemon) Epoch() uint64 { return d.cfg.Epoch }

func (d *Daemon) logf(format string, args ...any) {
	if d.log != nil {
		d.log.Printf(format, args...)
	}
}

// announce sends a HostStatus to the manager (best-effort with retries).
func (d *Daemon) announce(state wire.HostState) {
	d.mu.Lock()
	avail, largest := d.pool.FreeBytes(), d.pool.LargestFree()
	d.mu.Unlock()
	d.mu.Lock()
	known := d.mgrIncarnation
	d.mu.Unlock()
	msg := &wire.HostStatus{
		HostAddr:    d.ep.LocalAddr(),
		State:       state,
		Epoch:       d.cfg.Epoch,
		AvailBytes:  avail,
		LargestFree: largest,
		Incarnation: known,
	}
	resp, err := d.ep.Call(d.cfg.ManagerAddr, msg)
	if err != nil {
		d.logf("imd %s: announcing %v to cmd failed: %v", d.Addr(), state, err)
		return
	}
	// The ack carries the manager's incarnation: a value newer than the
	// last one we reported an inventory against means the manager
	// restarted with an empty directory and needs a re-report (§ restart
	// recovery). A StatusStale ack means our announce itself carried a
	// dead incarnation; the ack still names the live one, so the same
	// path recovers.
	if ack, ok := resp.(*wire.HostStatusAck); ok {
		d.noteIncarnation(ack.Incarnation)
	}
}

// noteIncarnation folds an incarnation observed on a manager ack into
// the daemon's view, kicking the inventory report loop when the
// manager is ahead of the last acknowledged report.
func (d *Daemon) noteIncarnation(inc uint64) {
	d.mu.Lock()
	prev := d.mgrIncarnation
	if inc > d.mgrIncarnation {
		d.mgrIncarnation = inc
	}
	kick := false
	if inc > d.reportedIncarnation {
		if prev == 0 && d.pool.Regions() == 0 {
			// First contact with an empty pool: the manager cannot be
			// missing any of our regions, so there is nothing to
			// re-report — it learns regions as it allocates them.
			d.reportedIncarnation = inc
		} else {
			kick = true
		}
	}
	d.mu.Unlock()
	if kick {
		d.kickReport()
	}
}

// kickReport wakes the report loop without blocking; concurrent kicks
// coalesce.
func (d *Daemon) kickReport() {
	select {
	case d.reportKick <- struct{}{}:
	default:
	}
}

// statusLoop keeps the manager's IWD hints fresh.
func (d *Daemon) statusLoop() {
	defer d.loops.Done()
	for {
		select {
		case <-d.stop:
			return
		default:
		}
		if !sim.SleepInterruptible(d.cfg.Clock, d.cfg.StatusInterval, d.stop) {
			return
		}
		d.mu.Lock()
		draining := d.draining
		d.mu.Unlock()
		if !draining {
			d.announce(wire.HostIdle)
		}
	}
}

// reportLoop pushes a full inventory re-report whenever a manager
// restart is detected (reportKick), retrying with seeded-jittered
// backoff until the new incarnation acknowledges it. The jitter seed
// is derived from this daemon's address so a cluster of imds that all
// notice the restart on the same announce tick fan their reports out
// instead of stampeding the freshly restarted manager — while any
// seeded run still replays the identical schedule.
func (d *Daemon) reportLoop() {
	defer d.loops.Done()
	h := fnv.New64a()
	_, _ = h.Write([]byte(d.ep.LocalAddr()))
	rng := rand.New(rand.NewSource(int64(h.Sum64()) ^ int64(d.cfg.Epoch)))
	for {
		select {
		case <-d.stop:
			return
		case <-d.reportKick:
		}
		d.runInventoryReport(rng)
	}
}

// runInventoryReport drives one re-report episode: snapshot the pool,
// send, and retry under a bounded budget. Giving up is safe — the
// next announce ack re-kicks the loop as long as the gap between
// observed and reported incarnations remains.
func (d *Daemon) runInventoryReport(rng *rand.Rand) {
	budget := retry.New(retry.Policy{
		Deadline: 8 * d.cfg.StatusInterval,
		Base:     d.cfg.StatusInterval / 4,
		Cap:      2 * d.cfg.StatusInterval,
		Factor:   2,
		Jitter:   0.5,
	}, d.cfg.Clock, rng)
	for {
		select {
		case <-d.stop:
			return
		default:
		}
		d.mu.Lock()
		if d.draining || d.closed {
			// A draining daemon is leaving the cluster; its HostBusy
			// announce already tells the manager everything it needs.
			d.mu.Unlock()
			return
		}
		inc := d.mgrIncarnation
		if inc <= d.reportedIncarnation {
			d.mu.Unlock()
			return
		}
		report := d.buildReportLocked(inc)
		d.mu.Unlock()

		resp, err := d.ep.CallT(d.cfg.ManagerAddr, report, d.ep.CallTimeout(), 1)
		if err == nil {
			if ack, ok := resp.(*wire.InventoryAck); ok {
				switch {
				case ack.Status == wire.StatusOK:
					d.mu.Lock()
					if inc > d.reportedIncarnation {
						d.reportedIncarnation = inc
					}
					d.inventoryReports++
					done := d.mgrIncarnation <= d.reportedIncarnation
					d.mu.Unlock()
					if done {
						return
					}
					// The manager moved to yet another incarnation while
					// we reported; that ack was progress, so the budget
					// reopens for the next round.
					budget.Reset()
					continue
				case ack.Status == wire.StatusStale && ack.Incarnation > inc:
					// Fenced: the manager restarted again under a newer
					// incarnation. Adopt it and re-report.
					d.mu.Lock()
					if ack.Incarnation > d.mgrIncarnation {
						d.mgrIncarnation = ack.Incarnation
					}
					d.mu.Unlock()
					budget.Reset()
					continue
				}
			}
		}
		delay, ok := budget.Next()
		if !ok {
			d.logf("imd %s: inventory report to incarnation %d exhausted retries", d.Addr(), inc)
			return
		}
		if !sim.SleepInterruptible(d.cfg.Clock, delay, d.stop) {
			return
		}
	}
}

// buildReportLocked snapshots the full inventory for incarnation inc.
// Caller holds d.mu.
func (d *Daemon) buildReportLocked(inc uint64) *wire.InventoryReport {
	ids := d.pool.RegionIDs()
	regions := make([]wire.InventoryRegion, 0, len(ids))
	for _, id := range ids {
		size, _ := d.pool.RegionSize(id)
		meta := d.regionMeta[id]
		regions = append(regions, wire.InventoryRegion{
			RegionID:   id,
			PoolOffset: meta.offset,
			Length:     size,
			WriteSeq:   d.lastWriteSeq[id],
			Key:        meta.key,
			Client:     meta.client,
		})
	}
	return &wire.InventoryReport{
		HostAddr:    d.ep.LocalAddr(),
		Epoch:       d.cfg.Epoch,
		Incarnation: inc,
		AvailBytes:  d.pool.FreeBytes(),
		LargestFree: d.pool.LargestFree(),
		Regions:     regions,
	}
}

// Drain is the polite reclaim path, called by the rmd when the
// workstation owner returns (§4.1-4.2): the daemon announces HostBusy
// (refusing new writes and allocations), then spends a bounded grace
// window still serving reads while it hands off its hottest pages to
// manager-chosen peer imds, waits for in-flight bulk transfers to
// finish, and only then tears down. Contrast Crash/Close, which
// abandon everything immediately.
func (d *Daemon) Drain() {
	d.mu.Lock()
	if d.draining || d.closed {
		d.mu.Unlock()
		return
	}
	d.draining = true
	d.mu.Unlock()
	d.announce(wire.HostBusy)
	// Settle writes admitted before the flag flipped: a write applying
	// after its page was handed off would be confirmed to the client yet
	// missing from the copy — exactly the staleness the write-seq gate
	// exists to prevent.
	d.pendingWrites.Wait()
	d.handoff()
	d.mu.Lock()
	d.drainDone = true
	d.mu.Unlock()
	d.transfers.Wait() // complete ongoing transfers, then exit
	_ = d.teardown()   // Drain has no error to return
}

// Crash tears the daemon down as a kill -9 or power failure would: no
// drain, no HostBusy announcement. The manager keeps believing the host
// is idle until an alloc probe fails or an epoch check exposes the
// restart — exactly the orphan-detection path of §4.3. Fault harnesses
// use it to model workstation crashes.
func (d *Daemon) Crash() { _ = d.Close() }

// Close releases the daemon without the polite drain (crash path):
// in-flight transfers are abandoned, nothing is handed off.
func (d *Daemon) Close() error { return d.teardown() }

// teardown releases the daemon's resources. It is shared by the crash
// path (Close/Crash, where it runs immediately) and the drain path
// (where Drain reaches it only after the grace window and transfer
// completion).
func (d *Daemon) teardown() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	select {
	case <-d.stop:
	default:
		close(d.stop)
	}
	d.mu.Unlock()
	err := d.ep.Close()
	d.loops.Wait()
	return err
}

// handoff runs the drain grace window: offer resident regions to the
// manager hottest-first, then push each granted page to its target imd
// and report the outcome. It runs inline on the Drain caller's
// goroutine; reads are still being served concurrently, so everything
// here reads state under d.mu, and pushes a page's pinned bytes and
// performs RPCs lock-free.
func (d *Daemon) handoff() {
	deadline := d.cfg.Clock.Now().Add(d.cfg.GraceWindow)
	d.mu.Lock()
	regions := make([]wire.HandoffRegion, 0, d.pool.Regions())
	for _, id := range d.pool.RegionIDs() {
		size, _ := d.pool.RegionSize(id)
		regions = append(regions, wire.HandoffRegion{RegionID: id, Length: size, Reads: d.readCount[id]})
	}
	d.mu.Unlock()
	if len(regions) == 0 {
		return
	}
	// Hottest first; the grace window may not fit every page. Region id
	// breaks ties so the offer order is deterministic.
	sort.Slice(regions, func(i, j int) bool {
		if regions[i].Reads != regions[j].Reads {
			return regions[i].Reads > regions[j].Reads
		}
		return regions[i].RegionID < regions[j].RegionID
	})
	offer := &wire.HandoffOffer{HostAddr: d.ep.LocalAddr(), Epoch: d.cfg.Epoch, Regions: regions}
	rem := deadline.Sub(d.cfg.Clock.Now())
	if t := 2 * d.ep.CallTimeout(); rem > t {
		rem = t
	}
	if rem <= 0 {
		return
	}
	resp, err := d.ep.CallT(d.cfg.ManagerAddr, offer, rem, 0)
	if err != nil {
		d.logf("imd %s: handoff offer failed: %v", d.Addr(), err)
		return
	}
	acc, ok := resp.(*wire.HandoffAccept)
	if !ok || acc.Status != wire.StatusOK {
		return
	}
	for i, g := range acc.Grants {
		rem := deadline.Sub(d.cfg.Clock.Now())
		if rem <= 0 {
			// Grace expired: abort the remaining grants so the manager
			// frees their pre-allocated target regions.
			for _, rest := range acc.Grants[i:] {
				d.reportHandoff(rest.OldRegionID, wire.StatusBusy)
				d.mu.Lock()
				d.handoffAborts++
				d.mu.Unlock()
			}
			return
		}
		if d.pushPage(g, rem) {
			d.reportHandoff(g.OldRegionID, wire.StatusOK)
			d.mu.Lock()
			d.pagesHandedOff++
			d.mu.Unlock()
		} else {
			d.reportHandoff(g.OldRegionID, wire.StatusBusy)
			d.mu.Lock()
			d.handoffAborts++
			d.mu.Unlock()
		}
	}
}

// pushPage copies one region's bytes to its granted target imd: it
// pushes them over the bulk path, pinned in place in the pool, and then
// names the transfer in a HandoffPage, whose call is bounded by rem.
// True means the target confirmed the full page.
func (d *Daemon) pushPage(g wire.HandoffGrant, rem time.Duration) bool {
	d.mu.Lock()
	size, ok := d.pool.RegionSize(g.OldRegionID)
	if !ok {
		d.mu.Unlock()
		return false
	}
	data, err := d.pool.Read(g.OldRegionID, 0, size)
	if err != nil {
		d.mu.Unlock()
		return false
	}
	crc := d.sumLocked(g.OldRegionID, 0, data)
	pin := d.pinLocked(g.OldRegionID, data)
	d.mu.Unlock()

	id := d.ep.NextTransferID()
	err = d.ep.SendBulk(g.Target.HostAddr, id, pin.data)
	d.unpin(pin)
	if err != nil {
		return false
	}
	req := &wire.HandoffPage{RegionID: g.Target.RegionID, Epoch: g.Target.Epoch, Length: size, TransferID: id, Crc: crc}
	resp, err := d.ep.CallT(g.Target.HostAddr, req, rem/2, 1)
	if err != nil {
		return false
	}
	dr, ok := resp.(*wire.DataResp)
	return ok && dr.Status == wire.StatusOK && dr.Count == size
}

// reportHandoff tells the manager one region's handoff outcome so it
// can repoint (StatusOK) or free the target region (anything else).
func (d *Daemon) reportHandoff(oldID uint64, st wire.Status) {
	done := &wire.HandoffDone{HostAddr: d.ep.LocalAddr(), OldRegionID: oldID, Status: st}
	if _, err := d.ep.CallT(d.cfg.ManagerAddr, done, d.ep.CallTimeout(), 1); err != nil {
		d.logf("imd %s: reporting handoff of region %d: %v", d.Addr(), oldID, err)
	}
}

// Stats reports serving counters.
type Stats struct {
	Reads, Writes         int64
	ReadBytes, WriteBytes int64
	StaleRejects          int64
	// PagesHandedOff counts regions this daemon moved to peers during
	// its drain; HandoffAborts counts grants it had to abandon (grace
	// window expiry or unreachable target).
	PagesHandedOff, HandoffAborts int64
	// ChecksumRejects counts inbound writes and handoff pages refused
	// because their CRC32-C did not match the received bytes.
	ChecksumRejects int64
	// InventoryReports counts re-reports acknowledged by a restarted
	// manager.
	InventoryReports int64
	Regions          int
	FreeBytes        uint64
	LargestFree      uint64
}

// Stats returns a consistent snapshot.
func (d *Daemon) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		Reads:            d.reads,
		Writes:           d.writes,
		ReadBytes:        d.readBytes,
		WriteBytes:       d.writeBytes,
		StaleRejects:     d.staleRejects,
		PagesHandedOff:   d.pagesHandedOff,
		HandoffAborts:    d.handoffAborts,
		ChecksumRejects:  d.checksumRejects,
		InventoryReports: d.inventoryReports,
		Regions:          d.pool.Regions(),
		FreeBytes:        d.pool.FreeBytes(),
		LargestFree:      d.pool.LargestFree(),
	}
}

// HoldsRegion reports whether the pool currently holds the region.
// Test and harness introspection: cross-validating a rebuilt region
// directory against what the imds actually hold.
func (d *Daemon) HoldsRegion(id uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.pool.RegionSize(id)
	return ok
}

// handle dispatches one request.
func (d *Daemon) handle(from string, msg wire.Message) wire.Message {
	switch req := msg.(type) {
	case *wire.IMDAllocReq:
		return d.handleAlloc(req)
	case *wire.IMDFreeReq:
		return d.handleFree(req)
	case *wire.ReadReq:
		return d.handleRead(from, req)
	case *wire.WriteReq:
		return d.handleWrite(from, req)
	case *wire.HandoffPage:
		return d.handleHandoffPage(from, req)
	}
	// A request for the central manager is a misdirected peer's, and
	// the endpoint's dispatch consumes responses and bulk frames before
	// the handler runs: none is answered (TestHandleAnswersEveryType).
	return nil
}

// piggyback fills the availability hints carried on every manager-bound
// response (§4.3). Caller holds d.mu.
func (d *Daemon) piggybackLocked() (epoch, avail, largest uint64) {
	return d.cfg.Epoch, d.pool.FreeBytes(), d.pool.LargestFree()
}

func (d *Daemon) handleAlloc(req *wire.IMDAllocReq) wire.Message {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		e, a, l := d.piggybackLocked()
		return &wire.IMDAllocResp{Status: wire.StatusBusy, Epoch: e, AvailBytes: a, LargestFree: l}
	}
	if d.pool.Has(req.RegionID) {
		// Duplicate of a request whose response was lost: idempotent.
		e, a, l := d.piggybackLocked()
		return &wire.IMDAllocResp{Status: wire.StatusOK, Epoch: e, AvailBytes: a, LargestFree: l}
	}
	off, err := d.pool.Create(req.RegionID, req.Length)
	st := wire.StatusOK
	if err != nil {
		st = wire.StatusNoMem
	} else {
		// Fresh region: restart its write-ordering gate and hotness,
		// and remember the allocation context for inventory re-reports.
		delete(d.lastWriteSeq, req.RegionID)
		delete(d.readCount, req.RegionID)
		delete(d.handoffApplied, req.RegionID)
		d.regionMeta[req.RegionID] = regionMeta{key: req.Key, client: req.Client, offset: off}
	}
	e, a, l := d.piggybackLocked()
	return &wire.IMDAllocResp{Status: st, PoolOffset: off, Epoch: e, AvailBytes: a, LargestFree: l}
}

func (d *Daemon) handleFree(req *wire.IMDFreeReq) wire.Message {
	d.mu.Lock()
	defer d.mu.Unlock()
	// The span goes back to the allocator, cleared, only once no send
	// is reading it.
	d.awaitUnpinnedLocked(req.RegionID)
	st := wire.StatusOK
	if err := d.pool.Delete(req.RegionID); err != nil {
		st = wire.StatusNotFound
	} else {
		delete(d.lastWriteSeq, req.RegionID)
		delete(d.readCount, req.RegionID)
		delete(d.handoffApplied, req.RegionID)
		delete(d.regionMeta, req.RegionID)
	}
	e, a, l := d.piggybackLocked()
	return &wire.IMDFreeResp{Status: st, Epoch: e, AvailBytes: a, LargestFree: l}
}

// memoizedLocked returns the memoized response for a requester-chosen
// transfer id, if any. Caller holds d.mu.
func (d *Daemon) memoizedLocked(from string, id uint64) (*wire.DataResp, bool) {
	if id == 0 {
		return nil, false
	}
	resp, ok := d.eagerResp[eagerKey{from: from, id: id}]
	return resp, ok
}

// memoizeLocked records the response chosen for a requester-picked
// transfer id, evicting the oldest entry past the table bound. Caller
// holds d.mu and has seen memoizedLocked miss under the same hold.
func (d *Daemon) memoizeLocked(from string, id uint64, resp *wire.DataResp) {
	key := eagerKey{from: from, id: id}
	d.eagerResp[key] = resp
	d.eagerOrder = append(d.eagerOrder, key)
	if len(d.eagerOrder) > eagerMemoCap {
		delete(d.eagerResp, d.eagerOrder[0])
		d.eagerOrder = d.eagerOrder[1:]
	}
}

// pinLocked lends data, region's bytes in place in the pool, to a send
// the caller runs after dropping d.mu. Until unpin returns the pin, no
// write lands in the region and no free releases its span. Caller holds
// d.mu.
//
// dodo:acquires(pin)
func (d *Daemon) pinLocked(region uint64, data []byte) pinned {
	d.pins[region]++
	return pinned{region: region, data: data}
}

// unpin returns a pin taken by pinLocked, once its send has returned,
// and wakes what waits for the region's last pin.
//
// dodo:releases(pin)
func (d *Daemon) unpin(p pinned) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pins[p.region]--; d.pins[p.region] == 0 {
		delete(d.pins, p.region)
		d.unpinned.Broadcast()
	}
}

// awaitUnpinnedLocked waits until no send is reading region's bytes.
// d.mu is dropped while it waits, so the caller checks the region's
// state after it returns. Caller holds d.mu.
func (d *Daemon) awaitUnpinnedLocked(region uint64) {
	for d.pins[region] > 0 {
		d.unpinned.Wait()
	}
}

// sumLocked returns the checksum of data, the bytes of region from off:
// a whole region's is computed once per version of its bytes and kept
// in the pool (a write over the whole region leaves the sum it verified
// there), a part's is computed each time. Caller holds d.mu.
func (d *Daemon) sumLocked(region, off uint64, data []byte) uint32 {
	if size, _ := d.pool.RegionSize(region); off != 0 || uint64(len(data)) != size {
		return wire.Checksum(data)
	}
	if crc, ok := d.pool.Sum(region); ok {
		return crc
	}
	crc := wire.Checksum(data)
	d.pool.SetSum(region, crc)
	return crc
}

// canBlast reports whether a request too big to answer in one frame
// names a receive its bytes can be blasted into: the transfer id the
// requester pre-registered, and a packet size this endpoint can send.
func (d *Daemon) canBlast(xferID uint64, chunk uint32) bool {
	return xferID != 0 && chunk != 0 && int(chunk) <= d.ep.ChunkSize()
}

// handleRead validates the request and serves the bytes: inline in the
// DataResp when they fit one frame, otherwise as an eager blast, straight
// from the pinned pool bytes, under the transfer id the requester chose
// and pre-registered.
func (d *Daemon) handleRead(from string, req *wire.ReadReq) wire.Message {
	d.mu.Lock()
	// Retransmitted request for an eager transfer already underway: the
	// original response must come back untouched (see eagerResp).
	if resp, ok := d.memoizedLocked(from, req.XferID); ok {
		d.mu.Unlock()
		return resp
	}
	// A draining daemon keeps serving reads through the grace window
	// (drainDone marks its end): clients stay warm while the hand-off
	// runs, which is the whole point of the graceful reclaim.
	if d.draining && d.drainDone {
		d.mu.Unlock()
		return &wire.DataResp{Status: wire.StatusBusy}
	}
	if req.Epoch != d.cfg.Epoch {
		d.staleRejects++
		d.mu.Unlock()
		return &wire.DataResp{Status: wire.StatusStale}
	}
	if !d.pool.Has(req.RegionID) {
		d.mu.Unlock()
		return &wire.DataResp{Status: wire.StatusNotFound}
	}
	data, err := d.pool.Read(req.RegionID, req.Offset, req.Length)
	if err != nil {
		d.mu.Unlock()
		return &wire.DataResp{Status: wire.StatusInvalid}
	}
	inline := len(data) <= wire.InlineDataLimit(d.ep.Transport().MTU())
	if !inline && !d.canBlast(req.XferID, req.ChunkSize) {
		d.mu.Unlock()
		return &wire.DataResp{Status: wire.StatusInvalid}
	}
	d.reads++
	d.readBytes += int64(len(data))
	d.readCount[req.RegionID]++
	// The checksum covers the bytes as they are under this hold, so the
	// client verifies them end to end: a frame mangled anywhere between
	// this pool and the client's buffer fails the read instead of
	// corrupting it.
	crc := d.sumLocked(req.RegionID, req.Offset, data)

	// The whole read fits one frame alongside the response fields:
	// answer with the payload, no bulk transfer. The endpoint encodes
	// the response after this handler returns, straight from the pool
	// bytes, which the pin holds until it has.
	if inline {
		pin := d.pinLocked(req.RegionID, data)
		d.mu.Unlock()
		return &pinnedReply{DataResp: wire.DataResp{
			Status: wire.StatusOK, Count: uint64(len(data)), Crc: crc,
			Flags: wire.DataFlagInline, Payload: pin.data,
		}, d: d, pin: pin}
	}

	// The requester pre-registered its buffer under XferID and told us
	// the chunk/window it committed — blast the first window now,
	// DataResp doubles as the offer. The blast reads the pool itself:
	// the pin keeps writes and frees off the region until it returns.
	pin := d.pinLocked(req.RegionID, data)
	resp := &wire.DataResp{
		Status: wire.StatusOK, Count: uint64(len(data)), TransferID: req.XferID,
		Crc: crc, Flags: wire.DataFlagEager,
	}
	// Memoize under the hold that saw no memo and chose to blast: a
	// copy of this request queued on d.mu must find the response, never
	// a gap in which to start a second blast under the same id.
	d.memoizeLocked(from, req.XferID, resp)
	d.transfers.Add(1)
	d.mu.Unlock()
	go func() {
		defer d.transfers.Done()
		defer d.unpin(pin)
		if err := d.ep.SendBulkEager(from, req.XferID, pin.data, int(req.ChunkSize), int(req.Window)); err != nil {
			d.logf("imd %s: eager read push to %s: %v", d.Addr(), from, err)
		}
	}()
	return resp
}

// incoming is what the receive of a write or a handoff page needs once
// the request has passed its own checks: where the bytes go, where they
// come from, and the gate that keeps a copy of the request from
// applying them twice.
type incoming struct {
	region, offset, length uint64
	// xfer is the transfer the bytes were pushed under, or zero for a
	// write whose bytes ride the request as payload.
	xfer    uint64
	payload []byte
	crc     uint32
	// page marks a handoff page, applied once (handoffApplied); a write
	// is gated by its writeSeq (lastWriteSeq).
	page     bool
	writeSeq uint64
}

// appliedLocked reports whether p, or a newer write, is already in its
// region. Caller holds d.mu.
func (d *Daemon) appliedLocked(p incoming) bool {
	if p.page {
		return d.handoffApplied[p.region]
	}
	return p.writeSeq <= d.lastWriteSeq[p.region]
}

// handleWrite stores a write's bytes: the request's own payload when the
// write came as one frame (TransferID zero), otherwise the bulk data
// pushed under TransferID. Both shapes pass the same checks in the same
// order; only where the bytes come from differs.
func (d *Daemon) handleWrite(from string, req *wire.WriteReq) wire.Message {
	p := incoming{region: req.RegionID, offset: req.Offset, length: req.Length, xfer: req.TransferID,
		payload: req.Payload, crc: req.Crc, writeSeq: req.WriteSeq}
	inline := p.xfer == 0
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return &wire.DataResp{Status: wire.StatusBusy}
	}
	if req.Epoch != d.cfg.Epoch {
		d.staleRejects++
		d.mu.Unlock()
		return &wire.DataResp{Status: wire.StatusStale}
	}
	if !d.pool.Has(p.region) {
		d.mu.Unlock()
		return &wire.DataResp{Status: wire.StatusNotFound}
	}
	size, _ := d.pool.RegionSize(p.region)
	if p.offset > size || p.writeSeq == 0 {
		// Bad offset, or a sequence the region's gate cannot order:
		// clients number their writes from 1.
		d.mu.Unlock()
		return &wire.DataResp{Status: wire.StatusInvalid}
	}
	if inline != (len(p.payload) > 0) || inline && uint64(len(p.payload)) != p.length {
		// Neither shape: no bytes and no transfer to wait for, bytes
		// beside a transfer id, or a payload that is not the Length
		// bytes the request speaks for.
		d.mu.Unlock()
		return &wire.DataResp{Status: wire.StatusInvalid}
	}
	if d.appliedLocked(p) {
		// Replay of a write that already applied (or was overwritten by
		// a newer one): confirm without touching region memory.
		d.mu.Unlock()
		return &wire.DataResp{Status: wire.StatusOK, Count: p.length}
	}
	d.transfers.Add(1)
	// pendingWrites is taken under the same critical section that
	// checked draining: Drain flips the flag under d.mu and then waits
	// on this group, so every write it could not refuse is applied (or
	// failed) before the handoff snapshots region bytes.
	d.pendingWrites.Add(1)
	d.mu.Unlock()
	defer d.transfers.Done()
	defer d.pendingWrites.Done()
	return d.land(from, p)
}

// handleHandoffPage receives one region's bytes from a draining peer
// imd. The manager already allocated the destination region here; the
// page body was pushed over the bulk path under the named transfer id.
// Its checks are a write's, but whole-region and gated by the
// handoffApplied marker instead of a write sequence.
func (d *Daemon) handleHandoffPage(from string, req *wire.HandoffPage) wire.Message {
	p := incoming{region: req.RegionID, length: req.Length, xfer: req.TransferID, crc: req.Crc, page: true}
	d.mu.Lock()
	if d.draining {
		// A draining target must not accept pages it would itself need
		// to move; the sender aborts and the manager frees the grant.
		d.mu.Unlock()
		return &wire.DataResp{Status: wire.StatusBusy}
	}
	if req.Epoch != d.cfg.Epoch {
		d.staleRejects++
		d.mu.Unlock()
		return &wire.DataResp{Status: wire.StatusStale}
	}
	if !d.pool.Has(p.region) {
		d.mu.Unlock()
		return &wire.DataResp{Status: wire.StatusNotFound}
	}
	if p.xfer == 0 {
		// A page travels only as a pushed transfer.
		d.mu.Unlock()
		return &wire.DataResp{Status: wire.StatusInvalid}
	}
	if d.appliedLocked(p) {
		// Duplicate announcement of a page that already landed.
		d.mu.Unlock()
		return &wire.DataResp{Status: wire.StatusOK, Count: p.length}
	}
	d.transfers.Add(1)
	d.mu.Unlock()
	defer d.transfers.Done()
	return d.land(from, p)
}

// land is the receive a write and a handoff page share: take p's bytes,
// from the request or from the transfer they were pushed under, check
// them against p.crc, and apply them unless a copy of the request, or a
// newer write, got there first.
func (d *Daemon) land(from string, p incoming) wire.Message {
	// An inline payload is this handler's to read: it aliases the
	// received frame, which nothing else holds (wire.Decode).
	data := p.payload
	if p.xfer != 0 {
		// The pusher names the transfer once its push has returned, so
		// the bytes are normally here already; a request that outran
		// them waits, on a budget that scales with size.
		budget := 5*time.Second + time.Duration(p.length/(1<<20))*2*time.Second
		var err error
		data, err = d.ep.RecvBulk(from, p.xfer, budget)
		if errors.Is(err, bulk.ErrConsumed) {
			// A duplicated request raced us to the bytes. Confirm only
			// once the racing handler's apply (or a newer write) is
			// visible; confirming earlier is how a duplicate used to
			// acknowledge a write whose apply was still pending —
			// letting the pending bytes later roll the region back.
			d.mu.Lock()
			applied := d.appliedLocked(p)
			d.mu.Unlock()
			if applied {
				return &wire.DataResp{Status: wire.StatusOK, Count: p.length}
			}
			return &wire.DataResp{Status: wire.StatusInvalid}
		}
		if err != nil {
			d.logf("imd %s: receiving pushed bytes from %s: %v", d.Addr(), from, err)
			return &wire.DataResp{Status: wire.StatusInvalid}
		}
	}
	if wire.Checksum(data) != p.crc {
		// The bytes that arrived are not the bytes the sender hashed.
		// Refuse them rather than store a page the client believes is
		// durable, or make a corrupt page a region's new home: a
		// refused handoff is reported failed, the manager frees this
		// copy, and the client re-fetches from disk.
		d.mu.Lock()
		d.checksumRejects++
		d.mu.Unlock()
		return &wire.DataResp{Status: wire.StatusInvalid}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// A read's blast or a handoff push may be sending the region's bytes
	// from the pool: they leave with the bytes they started with.
	d.awaitUnpinnedLocked(p.region)
	if d.appliedLocked(p) {
		// A copy of this request, or a newer write, applied while the
		// lock was down for the receive.
		return &wire.DataResp{Status: wire.StatusOK, Count: p.length}
	}
	n, err := d.pool.Write(p.region, p.offset, data)
	if err != nil {
		return &wire.DataResp{Status: wire.StatusInvalid}
	}
	if size, _ := d.pool.RegionSize(p.region); p.offset == 0 && uint64(len(data)) == size {
		// The bytes are the whole region and p.crc was checked against
		// them above: the region's next whole read computes no sum.
		d.pool.SetSum(p.region, p.crc)
	}
	if p.page {
		d.handoffApplied[p.region] = true
	} else {
		d.lastWriteSeq[p.region] = p.writeSeq
	}
	d.writes++
	d.writeBytes += int64(n)
	return &wire.DataResp{Status: wire.StatusOK, Count: uint64(n)}
}
