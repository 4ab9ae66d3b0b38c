// Package manager implements Dodo's central manager daemon (cmd, §4.3).
//
// The cmd runs on a dedicated machine and keeps two data structures: the
// idle-workstation directory (IWD), tracking every recruited host with
// its epoch and largest-free-block hint, and the region directory (RD),
// a hash table of all allocated regions keyed by (backing-file inode,
// file offset, client). It exports alloc, free and checkAlloc to the
// client runtime, verifies hint-based availability against the hosting
// imd before committing an allocation, validates epochs to detect
// regions orphaned by imd restarts, and reclaims the regions of clients
// that stop answering its keep-alive echoes.
package manager

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"sync"
	"time"

	"dodo/internal/bulk"
	"dodo/internal/locks"
	"dodo/internal/sim"
	"dodo/internal/transport"
	"dodo/internal/wire"
)

// Config tunes the manager.
type Config struct {
	// KeepAliveInterval is the period of liveness echoes to clients
	// (default 2s; the paper sends them "periodically").
	KeepAliveInterval time.Duration
	// KeepAliveMisses is how many consecutive failed echoes orphan a
	// client (default 3).
	KeepAliveMisses int
	// Clock provides time (default wall clock).
	Clock sim.Clock
	// Endpoint tunes the messaging layer.
	Endpoint bulk.Config
	// Logger receives operational events; nil silences them.
	Logger *log.Logger
	// Seed seeds host selection; 0 uses a fixed default so test runs
	// are reproducible.
	Seed int64
	// HandoffGrace is how long the manager holds a draining host's
	// region mappings in the Busy overlay awaiting handoff completion
	// before checkAlloc falls back to the stale-drop path (default 2s;
	// should comfortably exceed the imds' drain grace window).
	HandoffGrace time.Duration
	// Incarnation is this manager instance's monotonic incarnation
	// number, stamped into every response and keep-alive. A fresh
	// deployment runs incarnation 1 (the default); a crash-restarted
	// manager must be handed a strictly larger value so the periphery
	// can tell the rebuilt directory from the dead one, and so delayed
	// pre-crash frames are fenced.
	Incarnation uint64
	// RebuildGrace is the soft-state rebuild window after a restart
	// (Incarnation > 1): while it lasts, checkAlloc holds unknown keys
	// with StatusBusy instead of purging them, alloc holds new keys
	// instead of placing possible duplicates, and the keep-alive sweep
	// does not count misses — all awaiting the imds' inventory
	// re-reports and the clients' revalidation (default 3x the
	// keep-alive interval).
	RebuildGrace time.Duration
}

func (c Config) withDefaults() Config {
	if c.KeepAliveInterval == 0 {
		c.KeepAliveInterval = 2 * time.Second
	}
	if c.KeepAliveMisses == 0 {
		c.KeepAliveMisses = 3
	}
	if c.Clock == nil {
		c.Clock = sim.WallClock{}
	}
	if c.Seed == 0 {
		c.Seed = 990401
	}
	if c.HandoffGrace == 0 {
		c.HandoffGrace = 2 * time.Second
	}
	if c.Incarnation == 0 {
		c.Incarnation = 1
	}
	if c.RebuildGrace == 0 {
		c.RebuildGrace = 3 * c.KeepAliveInterval
	}
	return c
}

// hostEntry is one IWD row.
type hostEntry struct {
	addr        string
	epoch       uint64
	availBytes  uint64
	largestFree uint64
}

// regionEntry is one RD row.
type regionEntry struct {
	key    wire.RegionKey
	region wire.Region
	client string // transport address of the owning client
	// fresh marks a region whose current host was populated by a
	// graceful-reclaim handoff: the host holds every byte the client
	// had confirmed, so checkAlloc advertises it as adoptable without
	// disk repopulation.
	fresh bool
}

// drainingHost is the graceful-reclaim overlay for a host that
// announced HostBusy: while it lasts, checkAlloc answers StatusBusy
// for that host's regions instead of stale-dropping them, giving the
// handoff a chance to repoint them to their new homes.
type drainingHost struct {
	epoch    uint64
	deadline time.Time
	// grants maps the draining host's region ids to their pre-allocated
	// targets until HandoffDone resolves each one.
	grants map[uint64]*handoffGrant
}

type handoffGrant struct {
	key    wire.RegionKey
	target wire.Region
}

// clientEntry tracks keep-alive state per client.
type clientEntry struct {
	addr   string
	misses int
}

// clientReport is a client's last keep-alive ack: its running totals
// by name, and its checksum failures by serving host. Kept even after
// the client is untracked, so cluster-wide aggregation survives churn
// without double counting (acks carry running totals, not deltas).
type clientReport struct {
	counters     []wire.Counter
	corruptHosts []wire.HostCount
}

// Manager is the central manager daemon.
type Manager struct {
	// dodo:unguarded — immutable after construction
	cfg Config
	// dodo:unguarded — set once in New before the endpoint loop starts
	ep *bulk.Endpoint
	// dodo:unguarded — immutable after construction
	log *log.Logger

	mu locks.Mutex
	// dodo:guardedby mu
	iwd map[string]*hostEntry
	// dodo:guardedby mu
	rd map[wire.RegionKey]*regionEntry
	// dodo:guardedby mu
	clients map[string]*clientEntry
	// dodo:guardedby mu
	recov map[string]clientReport
	// dodo:guardedby mu
	draining map[string]*drainingHost
	// dodo:guardedby mu
	rng *rand.Rand
	// dodo:guardedby mu
	nextID uint64
	// dodo:guardedby mu
	shutdown bool

	// dodo:unguarded — set at construction; closed once under mu in Close
	stop chan struct{}
	// dodo:unguarded — WaitGroup is internally synchronized
	wg sync.WaitGroup

	// dodo:unguarded — immutable after construction (boot time of this
	// incarnation; the rebuild window is measured from it)
	bootAt time.Time

	// stats
	// dodo:guardedby mu
	allocs, allocFailures, frees, staleDrops, orphanReclaims int64
	// dodo:guardedby mu
	handoffOffers, handoffPagesMoved, handoffAborts int64
	// Crash-recovery counters: inventory re-reports folded in, RD rows
	// rebuilt from them, and requests fenced for a dead incarnation.
	// dodo:guardedby mu
	inventoryReports, rebuiltRegions, fencedRequests int64
	// handoffLog records every repointing in order, for the
	// same-seed-same-schedule determinism checks.
	// dodo:guardedby mu
	handoffLog []string
}

// New starts a manager serving on tr.
func New(tr transport.Transport, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:      cfg,
		log:      cfg.Logger,
		iwd:      make(map[string]*hostEntry),
		rd:       make(map[wire.RegionKey]*regionEntry),
		clients:  make(map[string]*clientEntry),
		recov:    make(map[string]clientReport),
		draining: make(map[string]*drainingHost),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		stop:     make(chan struct{}),
	}
	m.bootAt = cfg.Clock.Now()
	// Region ids live in an incarnation-sized namespace: a restarted
	// manager's counter must not re-issue ids the dead incarnation
	// already granted, or an imd would treat the new allocation as an
	// idempotent duplicate of a live region and alias the two.
	m.nextID = (cfg.Incarnation - 1) << 32
	m.mu.SetRank(locks.RankManager)
	// Handlers run on their own goroutines and may fire before this
	// constructor returns; gate them until m.ep is assigned.
	ready := make(chan struct{})
	m.ep = bulk.NewEndpoint(tr, cfg.Endpoint, func(from string, msg wire.Message) wire.Message {
		<-ready
		return m.handle(from, msg)
	})
	close(ready)
	m.wg.Add(1)
	go m.keepAliveLoop()
	return m
}

// Addr returns the manager's transport address.
func (m *Manager) Addr() string { return m.ep.LocalAddr() }

// Incarnation returns this manager instance's incarnation number.
func (m *Manager) Incarnation() uint64 { return m.cfg.Incarnation }

// inRebuild reports whether the manager is inside its post-restart
// soft-state rebuild window. A first-incarnation manager starts with an
// authoritative (empty) directory and never rebuilds.
func (m *Manager) inRebuild() bool {
	return m.cfg.Incarnation > 1 && m.cfg.Clock.Now().Before(m.bootAt.Add(m.cfg.RebuildGrace))
}

// Close stops the manager.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.shutdown {
		m.mu.Unlock()
		return nil
	}
	m.shutdown = true
	close(m.stop)
	m.mu.Unlock()
	err := m.ep.Close()
	m.wg.Wait()
	return err
}

// probeTimeout is the per-attempt budget for speculative calls to hosts
// and clients that may be dead.
func (m *Manager) probeTimeout() time.Duration { return m.ep.CallTimeout() / 2 }

func (m *Manager) logf(format string, args ...any) {
	if m.log != nil {
		m.log.Printf(format, args...)
	}
}

// Snapshot reports directory sizes and counters for monitoring.
type Snapshot struct {
	IdleHosts      int
	Regions        int
	Clients        int
	Allocs         int64
	AllocFailures  int64
	Frees          int64
	StaleDrops     int64
	OrphanReclaims int64
	// Graceful-reclaim handoff counters.
	HandoffOffers     int64
	HandoffPagesMoved int64
	HandoffAborts     int64
	// Crash-recovery state and counters.
	Incarnation      uint64
	InventoryReports int64
	RebuiltRegions   int64
	FencedRequests   int64
	// Client sums every client's last keep-alive counters by name,
	// clients since untracked included.
	Client map[string]uint64
}

// managerCounters names the manager's own totals for the stats RPC. A
// new one is a Snapshot field and a row here.
var managerCounters = []struct {
	name string
	get  func(*Snapshot) int64
}{
	{"allocs", func(s *Snapshot) int64 { return s.Allocs }},
	{"alloc_failures", func(s *Snapshot) int64 { return s.AllocFailures }},
	{"frees", func(s *Snapshot) int64 { return s.Frees }},
	{"stale_drops", func(s *Snapshot) int64 { return s.StaleDrops }},
	{"orphan_reclaims", func(s *Snapshot) int64 { return s.OrphanReclaims }},
	{"handoff_offers", func(s *Snapshot) int64 { return s.HandoffOffers }},
	{"handoff_pages_moved", func(s *Snapshot) int64 { return s.HandoffPagesMoved }},
	{"handoff_aborts", func(s *Snapshot) int64 { return s.HandoffAborts }},
	{"inventory_reports", func(s *Snapshot) int64 { return s.InventoryReports }},
	{"rebuilt_regions", func(s *Snapshot) int64 { return s.RebuiltRegions }},
	{"fenced_requests", func(s *Snapshot) int64 { return s.FencedRequests }},
}

// counters lists the snapshot's totals in name order: the manager's
// own, and each client sum under a "client." prefix.
func (s *Snapshot) counters() []wire.Counter {
	out := make([]wire.Counter, 0, len(managerCounters)+len(s.Client))
	for _, k := range managerCounters {
		out = append(out, wire.Counter{Name: k.name, Value: uint64(k.get(s))})
	}
	for name, v := range s.Client {
		out = append(out, wire.Counter{Name: "client." + name, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats returns a consistent snapshot.
func (m *Manager) Stats() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotLocked()
}

func (m *Manager) snapshotLocked() Snapshot {
	s := Snapshot{
		IdleHosts:         len(m.iwd),
		Regions:           len(m.rd),
		Clients:           len(m.clients),
		Allocs:            m.allocs,
		AllocFailures:     m.allocFailures,
		Frees:             m.frees,
		StaleDrops:        m.staleDrops,
		OrphanReclaims:    m.orphanReclaims,
		HandoffOffers:     m.handoffOffers,
		HandoffPagesMoved: m.handoffPagesMoved,
		HandoffAborts:     m.handoffAborts,
		Incarnation:       m.cfg.Incarnation,
		InventoryReports:  m.inventoryReports,
		RebuiltRegions:    m.rebuiltRegions,
		FencedRequests:    m.fencedRequests,
		Client:            make(map[string]uint64),
	}
	for _, r := range m.recov {
		for _, k := range r.counters {
			s.Client[k.Name] += k.Value
		}
	}
	return s
}

// corruptHostsLocked merges the per-host checksum-failure breakdowns
// last reported by each client into one address-sorted list.
func (m *Manager) corruptHostsLocked() []wire.HostCount {
	byHost := make(map[string]uint64)
	for _, r := range m.recov {
		for _, hc := range r.corruptHosts {
			byHost[hc.Addr] += hc.Count
		}
	}
	if len(byHost) == 0 {
		return nil
	}
	out := make([]wire.HostCount, 0, len(byHost))
	for addr, n := range byHost {
		out = append(out, wire.HostCount{Addr: addr, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// handle dispatches one request.
func (m *Manager) handle(from string, msg wire.Message) wire.Message {
	switch req := msg.(type) {
	case *wire.HostStatus:
		return m.handleHostStatus(req)
	case *wire.AllocReq:
		return m.handleAlloc(from, req)
	case *wire.FreeReq:
		return m.handleFree(req)
	case *wire.CheckAllocReq:
		return m.handleCheckAlloc(req)
	case *wire.ClusterStatsReq:
		return m.handleClusterStats(req)
	case *wire.HandoffOffer:
		return m.handleHandoffOffer(req)
	case *wire.HandoffDone:
		return m.handleHandoffDone(req)
	case *wire.InventoryReport:
		return m.handleInventoryReport(req)
	}
	// A request for an imd or a client is a misdirected peer's, and the
	// endpoint's dispatch consumes responses and bulk frames before the
	// handler runs: none is answered (TestHandleAnswersEveryType).
	return nil
}

// handleClusterStats snapshots the IWD and counters for dodo-ctl.
func (m *Manager) handleClusterStats(*wire.ClusterStatsReq) wire.Message {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.snapshotLocked()
	resp := &wire.ClusterStatsResp{
		Status:       wire.StatusOK,
		Regions:      uint64(s.Regions),
		Clients:      uint64(s.Clients),
		Incarnation:  s.Incarnation,
		Counters:     s.counters(),
		CorruptHosts: m.corruptHostsLocked(),
	}
	for _, h := range m.iwd {
		resp.Hosts = append(resp.Hosts, wire.HostInfo{
			Addr:        h.addr,
			Epoch:       h.epoch,
			AvailBytes:  h.availBytes,
			LargestFree: h.largestFree,
		})
	}
	return resp
}

// handleHostStatus updates the IWD from an rmd/imd report.
func (m *Manager) handleHostStatus(req *wire.HostStatus) wire.Message {
	m.mu.Lock()
	// Incarnation fence: a report stamped with another incarnation was
	// addressed to a dead manager instance. Refusing it (most notably a
	// delayed pre-crash HostBusy) keeps a stale frame from tearing down
	// or resurrecting rows in the rebuilt directory. Zero is the
	// protocol's first-contact state — the sender has not heard from any
	// manager yet — and is always accepted.
	if req.Incarnation != 0 && req.Incarnation != m.cfg.Incarnation {
		m.fencedRequests++
		m.mu.Unlock()
		m.logf("cmd: fenced host-status from %s (incarnation %d, ours %d)",
			req.HostAddr, req.Incarnation, m.cfg.Incarnation)
		return &wire.HostStatusAck{Status: wire.StatusStale, Incarnation: m.cfg.Incarnation}
	}
	var orphans []wire.Region
	switch req.State {
	case wire.HostIdle:
		m.iwd[req.HostAddr] = &hostEntry{
			addr:        req.HostAddr,
			epoch:       req.Epoch,
			availBytes:  req.AvailBytes,
			largestFree: req.LargestFree,
		}
		// A re-recruited host starts a new epoch; any old drain is moot,
		// but its unresolved grants still hold pre-allocated regions on
		// peer imds — free them.
		orphans = m.discardDrainingLocked(req.HostAddr)
	case wire.HostBusy:
		delete(m.iwd, req.HostAddr)
		// Open the graceful-reclaim overlay: until the deadline, the
		// host's regions answer checkAlloc with Busy (retry soon) rather
		// than Stale (gone), so a handoff can repoint them first. The
		// announce arrives via ep.Call, which retransmits, so a delayed
		// duplicate must keep the existing same-epoch overlay — replacing
		// it would wipe grants a HandoffOffer already registered, losing
		// their repoints and leaking the pre-allocated targets.
		if dh := m.draining[req.HostAddr]; dh == nil || dh.epoch != req.Epoch {
			orphans = m.discardDrainingLocked(req.HostAddr)
			m.draining[req.HostAddr] = &drainingHost{
				epoch:    req.Epoch,
				deadline: m.cfg.Clock.Now().Add(m.cfg.HandoffGrace),
				grants:   make(map[uint64]*handoffGrant),
			}
		}
	}
	m.mu.Unlock()
	m.freeHandoffTargets(orphans)
	m.logf("cmd: host %s -> %v (epoch %d, avail %d)", req.HostAddr, req.State, req.Epoch, req.AvailBytes)
	return &wire.HostStatusAck{Status: wire.StatusOK, Incarnation: m.cfg.Incarnation}
}

// handleInventoryReport folds one imd's full inventory into the
// directory. This is the soft-state rebuild path: after a restart the
// RD is empty, every imd that learns the new incarnation re-reports
// what it holds, and the rows are reconstructed here — including the
// owning client, which re-arms keep-alive tracking. The handler is
// idempotent (reports arrive via Call, which retransmits) and also
// safe outside the rebuild window: a row already present and matching
// is skipped, and a reported region whose key the directory has since
// repointed elsewhere is freed on the reporter as a stale copy.
func (m *Manager) handleInventoryReport(req *wire.InventoryReport) wire.Message {
	m.mu.Lock()
	if req.Incarnation != m.cfg.Incarnation {
		m.fencedRequests++
		m.mu.Unlock()
		m.logf("cmd: fenced inventory from %s (incarnation %d, ours %d)",
			req.HostAddr, req.Incarnation, m.cfg.Incarnation)
		return &wire.InventoryAck{Status: wire.StatusStale, Incarnation: m.cfg.Incarnation}
	}
	// The report carries the same availability hints as an idle
	// announce; upsert the IWD row unless the host is mid-drain.
	if m.draining[req.HostAddr] == nil {
		m.iwd[req.HostAddr] = &hostEntry{
			addr:        req.HostAddr,
			epoch:       req.Epoch,
			availBytes:  req.AvailBytes,
			largestFree: req.LargestFree,
		}
	}
	var staleCopies []uint64
	rebuilt := 0
	for _, r := range req.Regions {
		if (r.Key == wire.RegionKey{}) {
			continue // region predates key metadata; cannot be re-keyed
		}
		if e, ok := m.rd[r.Key]; ok {
			if e.region.HostAddr == req.HostAddr && e.region.RegionID == r.RegionID {
				continue // already rebuilt from an earlier (or duplicate) report
			}
			// The directory has since mapped this key elsewhere (e.g. a
			// post-grace re-open repopulated it on a new host); the
			// reported copy is a dead-incarnation leftover. Free it.
			staleCopies = append(staleCopies, r.RegionID)
			continue
		}
		m.rd[r.Key] = &regionEntry{
			key: r.Key,
			region: wire.Region{
				HostAddr:   req.HostAddr,
				RegionID:   r.RegionID,
				PoolOffset: r.PoolOffset,
				Length:     r.Length,
				Epoch:      req.Epoch,
			},
			client: r.Client,
		}
		if r.Client != "" {
			m.trackClientLocked(r.Client)
		}
		rebuilt++
	}
	m.inventoryReports++
	m.rebuiltRegions += int64(rebuilt)
	m.mu.Unlock()
	for _, id := range staleCopies {
		m.ep.Notify(req.HostAddr, &wire.IMDFreeReq{RegionID: id})
	}
	m.logf("cmd: inventory from %s: %d regions reported, %d rebuilt, %d stale copies freed",
		req.HostAddr, len(req.Regions), rebuilt, len(staleCopies))
	return &wire.InventoryAck{Status: wire.StatusOK, Incarnation: m.cfg.Incarnation}
}

// discardDrainingLocked removes addr's graceful-reclaim overlay and
// returns the targets of its unresolved grants. The draining imd will
// never push to them — the overlay that tracked them is gone — so the
// caller must free them on their peers once m.mu is released; otherwise
// each would hold pre-allocated pool space until its host churned.
func (m *Manager) discardDrainingLocked(addr string) []wire.Region {
	dh := m.draining[addr]
	if dh == nil {
		return nil
	}
	delete(m.draining, addr)
	if len(dh.grants) == 0 {
		return nil
	}
	targets := make([]wire.Region, 0, len(dh.grants))
	for _, g := range dh.grants {
		targets = append(targets, g.target)
	}
	// Deterministic order, so a given overlay state frees in a
	// reproducible sequence.
	sort.Slice(targets, func(i, j int) bool {
		if targets[i].HostAddr != targets[j].HostAddr {
			return targets[i].HostAddr < targets[j].HostAddr
		}
		return targets[i].RegionID < targets[j].RegionID
	})
	m.handoffAborts += int64(len(targets))
	return targets
}

// freeHandoffTargets releases pre-allocated handoff destinations on
// their peer imds. Must run without m.mu held.
func (m *Manager) freeHandoffTargets(targets []wire.Region) {
	for _, t := range targets {
		m.ep.Notify(t.HostAddr, &wire.IMDFreeReq{RegionID: t.RegionID})
	}
}

// expireDraining discards overlays whose deadline has passed and frees
// their unresolved grant targets. checkAlloc traffic does this on
// demand; the sweep covers hosts no client asks about — e.g. when the
// HandoffAccept response was lost, so the imd never pushed a page or
// reported an outcome for the grants the manager recorded.
func (m *Manager) expireDraining() {
	m.mu.Lock()
	now := m.cfg.Clock.Now()
	var expired []string
	for addr, dh := range m.draining {
		if !now.Before(dh.deadline) {
			expired = append(expired, addr)
		}
	}
	sort.Strings(expired)
	var orphans []wire.Region
	for _, addr := range expired {
		orphans = append(orphans, m.discardDrainingLocked(addr)...)
	}
	m.mu.Unlock()
	m.freeHandoffTargets(orphans)
}

// handleAlloc implements the alloc operation: pick a random idle host
// believed to have a large-enough free block, verify by asking its imd,
// and retry other hosts until success or exhaustion (§4.3).
func (m *Manager) handleAlloc(from string, req *wire.AllocReq) wire.Message {
	inc := m.cfg.Incarnation
	if req.Length == 0 {
		return &wire.AllocResp{Status: wire.StatusInvalid, Incarnation: inc}
	}
	m.mu.Lock()
	// Duplicate request (client retry): answer with the existing region.
	if e, ok := m.rd[req.Key]; ok {
		region := e.region
		m.mu.Unlock()
		return &wire.AllocResp{Status: wire.StatusOK, Incarnation: inc, Region: region}
	}
	// During the post-restart rebuild window, hold allocations for keys
	// the directory does not know: the key may be about to reappear in
	// an inventory re-report, and placing a second copy now would
	// duplicate the allocation. Busy tells the client to back off and
	// retry; the window is bounded by RebuildGrace.
	if m.inRebuild() {
		m.mu.Unlock()
		m.logf("cmd: rebuild in progress; holding alloc of %v from %s", req.Key, from)
		return &wire.AllocResp{Status: wire.StatusBusy, Incarnation: inc}
	}
	// Candidate hosts, randomized (the paper picks randomly and retries).
	var candidates []string
	for addr, h := range m.iwd {
		if h.largestFree >= req.Length {
			candidates = append(candidates, addr)
		}
	}
	// Map iteration order is random; sort before the seeded shuffle so
	// the same seed yields the same placement schedule.
	sort.Strings(candidates)
	m.rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	m.nextID++
	id := m.nextID
	m.mu.Unlock()

	for _, host := range candidates {
		// Probe with a tight budget: a dead host must not stall the
		// client's allocation while live candidates remain. Key and
		// client ride along so the imd can reconstruct the directory
		// row in an inventory re-report after a manager crash.
		resp, err := m.ep.CallT(host, &wire.IMDAllocReq{RegionID: id, Length: req.Length,
			Key: req.Key, Client: from}, m.probeTimeout(), 1)
		if err != nil {
			// Host unreachable (shut down, crashed, or reclaimed):
			// drop it from the IWD and try another (§3.1).
			m.mu.Lock()
			delete(m.iwd, host)
			m.mu.Unlock()
			m.logf("cmd: alloc probe to %s failed: %v", host, err)
			continue
		}
		ar, ok := resp.(*wire.IMDAllocResp)
		if !ok {
			continue
		}
		m.mu.Lock()
		if h, live := m.iwd[host]; live {
			// The imd piggybacks availability on every response (§4.3).
			h.epoch = ar.Epoch
			h.availBytes = ar.AvailBytes
			h.largestFree = ar.LargestFree
		}
		if ar.Status != wire.StatusOK {
			m.mu.Unlock()
			continue
		}
		// Commit, unless a duplicate raced us to it.
		if e, dup := m.rd[req.Key]; dup {
			region := e.region
			m.mu.Unlock()
			m.ep.Notify(host, &wire.IMDFreeReq{RegionID: id})
			return &wire.AllocResp{Status: wire.StatusOK, Incarnation: inc, Region: region}
		}
		region := wire.Region{
			HostAddr:   host,
			RegionID:   id,
			PoolOffset: ar.PoolOffset,
			Length:     req.Length,
			Epoch:      ar.Epoch,
		}
		m.rd[req.Key] = &regionEntry{key: req.Key, region: region, client: from}
		// Track only committed owners: tracking on request would leak a
		// keep-alive probe target whenever the allocation failed.
		m.trackClientLocked(from)
		m.allocs++
		m.mu.Unlock()
		m.logf("cmd: allocated %v (%d bytes) on %s", req.Key, req.Length, host)
		return &wire.AllocResp{Status: wire.StatusOK, Incarnation: inc, Region: region}
	}
	m.mu.Lock()
	m.allocFailures++
	m.mu.Unlock()
	m.logf("cmd: allocation of %d bytes failed: no idle host has space", req.Length)
	return &wire.AllocResp{Status: wire.StatusNoMem, Incarnation: inc}
}

// handleFree implements the free operation (§4.3).
func (m *Manager) handleFree(req *wire.FreeReq) wire.Message {
	m.mu.Lock()
	e, ok := m.rd[req.Key]
	if !ok {
		m.mu.Unlock()
		return &wire.FreeResp{Status: wire.StatusNotFound, Incarnation: m.cfg.Incarnation}
	}
	delete(m.rd, req.Key)
	m.frees++
	m.untrackIdleClientLocked(e.client)
	host, id := e.region.HostAddr, e.region.RegionID
	m.mu.Unlock()
	// Forward to the hosting imd off the client's critical path;
	// best-effort (the host may be gone), but when the imd answers, its
	// piggybacked availability refreshes the IWD hints (§4.3).
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		resp, err := m.ep.CallT(host, &wire.IMDFreeReq{RegionID: id}, m.probeTimeout(), 1)
		if err != nil {
			return
		}
		fr, ok := resp.(*wire.IMDFreeResp)
		if !ok {
			return
		}
		m.mu.Lock()
		if h, live := m.iwd[host]; live && h.epoch == fr.Epoch {
			h.availBytes = fr.AvailBytes
			h.largestFree = fr.LargestFree
		}
		m.mu.Unlock()
	}()
	return &wire.FreeResp{Status: wire.StatusOK, Incarnation: m.cfg.Incarnation}
}

// handleCheckAlloc implements checkAlloc: look the region up and verify
// its epoch against the hosting workstation's IWD entry (§4.3).
func (m *Manager) handleCheckAlloc(req *wire.CheckAllocReq) wire.Message {
	inc := m.cfg.Incarnation
	m.mu.Lock()
	var orphans []wire.Region
	resp := func() wire.Message {
		e, ok := m.rd[req.Key]
		if !ok {
			// During the rebuild window an unknown key is indistinguishable
			// from a not-yet-re-reported one: hold it with Busy so the
			// client keeps retrying instead of tearing down and re-opening
			// a region whose bytes are still intact on some imd.
			if m.inRebuild() {
				return &wire.CheckAllocResp{Status: wire.StatusBusy, Incarnation: inc}
			}
			return &wire.CheckAllocResp{Status: wire.StatusNotFound, Incarnation: inc}
		}
		h, hostIdle := m.iwd[e.region.HostAddr]
		if !hostIdle || h.epoch != e.region.Epoch {
			// Host not (or no longer) idle under this epoch. If it is mid
			// graceful reclaim, hold the mapping and tell the client to retry:
			// a handoff may repoint the region any moment now.
			if dh := m.draining[e.region.HostAddr]; dh != nil {
				if dh.epoch == e.region.Epoch && m.cfg.Clock.Now().Before(dh.deadline) {
					return &wire.CheckAllocResp{Status: wire.StatusBusy, Incarnation: inc}
				}
				if !m.cfg.Clock.Now().Before(dh.deadline) {
					// Grace expired with grants unresolved: the targets
					// must be freed or they leak on the peers.
					orphans = m.discardDrainingLocked(e.region.HostAddr)
				}
			}
			// Host reclaimed or imd restarted since allocation: the region
			// is gone. Delete it and report failure.
			delete(m.rd, req.Key)
			m.staleDrops++
			m.untrackIdleClientLocked(e.client)
			return &wire.CheckAllocResp{Status: wire.StatusStale, Incarnation: inc}
		}
		return &wire.CheckAllocResp{Status: wire.StatusOK, Fresh: e.fresh, Incarnation: inc, Region: e.region}
	}()
	m.mu.Unlock()
	m.freeHandoffTargets(orphans)
	return resp
}

// handleHandoffOffer places a draining imd's hottest regions on peer
// imds. For each offered region still mapped in the RD, the manager
// picks the idle host with the most free space (addresses break ties,
// so the same cluster state yields the same schedule), pre-allocates a
// target region there, and records the grant in the draining overlay.
// The imd pushes the bytes and reports each outcome via HandoffDone.
func (m *Manager) handleHandoffOffer(req *wire.HandoffOffer) wire.Message {
	m.mu.Lock()
	dh := m.draining[req.HostAddr]
	if dh == nil || dh.epoch != req.Epoch || !m.cfg.Clock.Now().Before(dh.deadline) {
		m.mu.Unlock()
		return &wire.HandoffAccept{Status: wire.StatusStale}
	}
	m.handoffOffers++
	// Index the RD rows still pointing at the draining host, and
	// snapshot candidate targets, before dropping the lock for probes.
	byID := make(map[uint64]*regionEntry)
	for _, e := range m.rd {
		if e.region.HostAddr == req.HostAddr && e.region.Epoch == req.Epoch {
			byID[e.region.RegionID] = e
		}
	}
	targets := make([]*hostEntry, 0, len(m.iwd))
	for _, h := range m.iwd {
		targets = append(targets, &hostEntry{
			addr: h.addr, epoch: h.epoch,
			availBytes: h.availBytes, largestFree: h.largestFree,
		})
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].addr < targets[j].addr })
	m.mu.Unlock()

	var grants []wire.HandoffGrant
	for _, r := range req.Regions {
		e := byID[r.RegionID]
		if e == nil {
			continue // freed or unknown; nothing to repoint
		}
		if g, ok := m.placeHandoff(r, e.key, e.client, targets); ok {
			grants = append(grants, g)
		}
	}

	m.mu.Lock()
	dh = m.draining[req.HostAddr]
	if dh == nil || dh.epoch != req.Epoch {
		m.mu.Unlock()
		// The drain resolved while we were probing: release the targets.
		for _, g := range grants {
			m.ep.Notify(g.Target.HostAddr, &wire.IMDFreeReq{RegionID: g.Target.RegionID})
		}
		return &wire.HandoffAccept{Status: wire.StatusStale}
	}
	for _, g := range grants {
		dh.grants[g.OldRegionID] = &handoffGrant{key: byID[g.OldRegionID].key, target: g.Target}
	}
	m.mu.Unlock()
	m.logf("cmd: handoff offer from %s: %d regions offered, %d granted", req.HostAddr, len(req.Regions), len(grants))
	return &wire.HandoffAccept{Status: wire.StatusOK, Grants: grants}
}

// placeHandoff picks a target host for one offered region and
// pre-allocates the destination there. Targets are tried most-free
// first (address ascending on ties); the slice's hints are refreshed
// from piggybacked availability so later placements see earlier ones.
func (m *Manager) placeHandoff(r wire.HandoffRegion, key wire.RegionKey, client string, targets []*hostEntry) (wire.HandoffGrant, bool) {
	order := make([]*hostEntry, len(targets))
	copy(order, targets)
	// Stable sort on top of the address-ascending base order keeps the
	// tie-break deterministic.
	sort.SliceStable(order, func(i, j int) bool { return order[i].largestFree > order[j].largestFree })
	for _, t := range order {
		if t.largestFree < r.Length {
			continue
		}
		m.mu.Lock()
		m.nextID++
		id := m.nextID
		m.mu.Unlock()
		resp, err := m.ep.CallT(t.addr, &wire.IMDAllocReq{RegionID: id, Length: r.Length,
			Key: key, Client: client}, m.probeTimeout(), 1)
		if err != nil {
			t.largestFree = 0 // unreachable; skip for the rest of this offer
			continue
		}
		ar, ok := resp.(*wire.IMDAllocResp)
		if !ok {
			continue
		}
		t.epoch, t.availBytes, t.largestFree = ar.Epoch, ar.AvailBytes, ar.LargestFree
		if ar.Status != wire.StatusOK {
			continue
		}
		return wire.HandoffGrant{
			OldRegionID: r.RegionID,
			Target: wire.Region{
				HostAddr:   t.addr,
				RegionID:   id,
				PoolOffset: ar.PoolOffset,
				Length:     r.Length,
				Epoch:      ar.Epoch,
			},
		}, true
	}
	return wire.HandoffGrant{}, false
}

// handleHandoffDone resolves one granted handoff: on success the RD row
// is atomically repointed at the new host and marked fresh, so the
// owner's next checkAlloc revalidates to the copy instead of falling
// back to disk; on failure the pre-allocated target is released.
func (m *Manager) handleHandoffDone(req *wire.HandoffDone) wire.Message {
	m.mu.Lock()
	var g *handoffGrant
	if dh := m.draining[req.HostAddr]; dh != nil {
		g = dh.grants[req.OldRegionID]
		delete(dh.grants, req.OldRegionID)
	}
	if g == nil {
		m.mu.Unlock()
		return &wire.HostStatusAck{Status: wire.StatusNotFound}
	}
	freeTarget := false
	if req.Status == wire.StatusOK {
		if e, ok := m.rd[g.key]; ok && e.region.HostAddr == req.HostAddr {
			m.handoffLog = append(m.handoffLog, fmt.Sprintf("%v %s/%d -> %s/%d",
				g.key, req.HostAddr, req.OldRegionID, g.target.HostAddr, g.target.RegionID))
			e.region = g.target
			e.fresh = true
			m.handoffPagesMoved++
		} else {
			freeTarget = true // freed or re-placed while the push ran
		}
	} else {
		m.handoffAborts++
		freeTarget = true
	}
	addr, id := g.target.HostAddr, g.target.RegionID
	m.mu.Unlock()
	if freeTarget {
		m.ep.Notify(addr, &wire.IMDFreeReq{RegionID: id})
	}
	m.logf("cmd: handoff of %s/%d done: %v", req.HostAddr, req.OldRegionID, req.Status)
	return &wire.HostStatusAck{Status: wire.StatusOK}
}

// RegionRows snapshots the region directory's rows (host-then-id
// sorted). Test and harness introspection: after a crash-recovery sweep
// every row must point at a region its host's imd actually holds — a
// row that does not is dead-incarnation residue the rebuild failed to
// fence.
func (m *Manager) RegionRows() []wire.Region {
	m.mu.Lock()
	defer m.mu.Unlock()
	rows := make([]wire.Region, 0, len(m.rd))
	for _, e := range m.rd {
		rows = append(rows, e.region)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].HostAddr != rows[j].HostAddr {
			return rows[i].HostAddr < rows[j].HostAddr
		}
		return rows[i].RegionID < rows[j].RegionID
	})
	return rows
}

// HandoffSchedule returns the ordered log of region repointings made by
// graceful-reclaim handoffs, for same-seed determinism checks.
func (m *Manager) HandoffSchedule() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.handoffLog...)
}

// trackClientLocked registers a client for keep-alive monitoring.
func (m *Manager) trackClientLocked(addr string) {
	if _, ok := m.clients[addr]; !ok {
		m.clients[addr] = &clientEntry{addr: addr}
	}
}

// untrackIdleClientLocked forgets a client that owns no RD entries:
// without this, a client whose regions were all freed would be probed
// by the keep-alive loop forever. Its recovery counters stay in
// m.recov so cluster totals survive the untracking.
func (m *Manager) untrackIdleClientLocked(addr string) {
	if _, ok := m.clients[addr]; !ok {
		return
	}
	for _, e := range m.rd {
		if e.client == addr {
			return
		}
	}
	delete(m.clients, addr)
	m.logf("cmd: client %s owns no regions; keep-alive tracking dropped", addr)
}

// keepAliveLoop periodically echoes every known client and reclaims the
// regions of clients that stop responding (§3.1, §4.3).
func (m *Manager) keepAliveLoop() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		default:
		}
		if !sim.SleepInterruptible(m.cfg.Clock, m.cfg.KeepAliveInterval, m.stop) {
			return
		}
		m.expireDraining()
		m.mu.Lock()
		addrs := make([]string, 0, len(m.clients))
		for addr := range m.clients {
			addrs = append(addrs, addr)
		}
		m.mu.Unlock()
		for _, addr := range addrs {
			addr := addr
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				resp, err := m.ep.CallT(addr, &wire.KeepAlive{Incarnation: m.cfg.Incarnation},
					m.probeTimeout(), 1)
				m.mu.Lock()
				c, ok := m.clients[addr]
				if !ok {
					m.mu.Unlock()
					return
				}
				if err == nil {
					c.misses = 0
					// The ack piggybacks the client's running totals;
					// remember the latest report.
					if ack, isAck := resp.(*wire.KeepAliveAck); isAck {
						m.recov[addr] = clientReport{ack.Counters, ack.CorruptHosts}
					}
					m.mu.Unlock()
					return
				}
				// Post-restart grace: while the rebuild window is open, a
				// missed echo proves nothing — the client may still be in
				// outage-mode backoff, or its address only just resurfaced
				// via an inventory report. Counting misses here would
				// orphan survivors before they get a chance to revalidate.
				if m.inRebuild() {
					m.mu.Unlock()
					return
				}
				c.misses++
				dead := c.misses >= m.cfg.KeepAliveMisses
				m.mu.Unlock()
				if dead {
					m.reclaimClient(addr)
				}
			}()
		}
	}
}

// reclaimClient frees every region owned by a dead client.
func (m *Manager) reclaimClient(addr string) {
	m.mu.Lock()
	delete(m.clients, addr)
	var victims []*regionEntry
	for key, e := range m.rd {
		if e.client == addr {
			victims = append(victims, e)
			delete(m.rd, key)
		}
	}
	m.orphanReclaims += int64(len(victims))
	m.mu.Unlock()
	for _, e := range victims {
		m.ep.Notify(e.region.HostAddr, &wire.IMDFreeReq{RegionID: e.region.RegionID})
	}
	m.logf("cmd: client %s presumed dead; reclaimed %d regions", addr, len(victims))
}
