// Package locks provides the rank-ordered mutex every Dodo subsystem
// locks through, and the single declared lock hierarchy for the whole
// repository (see DESIGN.md §8).
//
// A goroutine may only acquire a mutex whose rank is strictly greater
// than every rank it already holds. Because the declared order is a
// total order over all lock classes, any schedule that obeys it is
// deadlock-free by construction: a cycle in the waits-for graph would
// need some goroutine to acquire downward.
//
// Enforcement is split between build modes:
//
//   - default build: SetRank stores the rank and Lock/Unlock delegate
//     straight to sync.Mutex — no bookkeeping, no atomics, no extra
//     allocation. Production pays nothing for the hierarchy.
//   - `-tags lockcheck`: every Lock records the acquisition in a
//     per-goroutine held-stack and panics on a rank inversion or on a
//     mutex whose rank was never declared. verify.sh runs the full
//     test suite in this mode, so the runtime cross-checks whatever
//     the static lock-order analyzer (internal/vet) could not see —
//     interface-mediated calls, callbacks, reflection.
//
// The static analyzer and this runtime deliberately overlap: the
// analyzer proves ordering over all paths it can resolve without
// running anything; lockcheck catches the paths it cannot.
package locks

import "sync"

// Rank is a lock class's position in the declared hierarchy. Locks must
// be acquired in strictly increasing rank order; two locks of the same
// rank may never be held together.
type Rank uint8

// The declared hierarchy, outermost first. A holder of RankCluster may
// acquire anything below it; a holder of RankUDP may acquire nothing.
// The ordering mirrors the request path: harness (cluster, faults,
// monitor) over daemons (manager, imd) over the client stack (region
// cache over core) over messaging (bulk) over the network substrates
// (usocket, UDP).
//
// internal/sim's clock mutex is intentionally *not* in the hierarchy:
// timers are armed from under almost every lock here and their
// callbacks re-enter the stack from the outside, so the clock sits
// beneath (and invisible to) the ranked world.
const (
	rankUnset Rank = iota

	// RankCluster: cluster.Cluster.mu — deployment directory.
	RankCluster
	// RankWorkstation: cluster.Workstation.mu — per-host rmd/imd slot.
	RankWorkstation
	// RankFaults: faults.Scheduler.mu — fault schedule cursor.
	RankFaults
	// RankMonitor: monitor.Monitor.mu — idleness state machine.
	RankMonitor
	// RankManager: manager.Manager.mu — IWD/RD directories.
	RankManager
	// RankIMD: imd.Daemon.mu — pool and write-seq gates.
	RankIMD
	// RankRegionCache: region.Cache.mu — client-side region cache.
	RankRegionCache
	// RankCoreClient: core.Client.mu — descriptor table.
	RankCoreClient
	// RankBacking: core.MemBacking.mu — simulated backing store.
	RankBacking
	// RankReadDst: core.readDst.mu — where a remote read's bytes land.
	RankReadDst
	// RankBulkEndpoint: bulk.Endpoint.mu — call/transfer correlation.
	RankBulkEndpoint
	// RankBulkTransfer: bulk.rxTransfer.mu — one receive-side transfer.
	RankBulkTransfer
	// RankSegment: usocket.Segment.mu — emulated Ethernet wire.
	RankSegment
	// RankSocket: usocket.Socket.mu — one U-Net endpoint.
	RankSocket
	// RankUDP: transport.UDP.mu — kernel-socket route cache.
	RankUDP

	rankSentinel // keep last
)

var rankNames = map[Rank]string{
	rankUnset:        "unset",
	RankCluster:      "cluster",
	RankWorkstation:  "workstation",
	RankFaults:       "faults",
	RankMonitor:      "monitor",
	RankManager:      "manager",
	RankIMD:          "imd",
	RankRegionCache:  "region-cache",
	RankCoreClient:   "core-client",
	RankBacking:      "backing",
	RankReadDst:      "read-dst",
	RankBulkEndpoint: "bulk-endpoint",
	RankBulkTransfer: "bulk-transfer",
	RankSegment:      "usocket-segment",
	RankSocket:       "usocket-socket",
	RankUDP:          "udp",
}

func (r Rank) String() string {
	if s, ok := rankNames[r]; ok {
		return s
	}
	return "rank?"
}

// Mutex is a sync.Mutex carrying its declared rank. The zero value is
// usable as a mutex but has no rank; under `-tags lockcheck` locking it
// panics, which is what makes every forgotten SetRank a test failure
// rather than a silent hole in the hierarchy. Mutex implements
// sync.Locker, so sync.NewCond(&m) works; Cond.Wait keeps the
// held-stack accurate because its internal Unlock/Lock go through the
// wrapper.
type Mutex struct {
	rank Rank
	mu   sync.Mutex
}

// SetRank declares the mutex's place in the hierarchy. Call it once
// from the owning struct's constructor, before the first Lock.
func (m *Mutex) SetRank(r Rank) { m.rank = r }

// Lock acquires the mutex, enforcing the rank order under lockcheck.
func (m *Mutex) Lock() {
	lockAcquire(m)
	m.mu.Lock()
}

// Unlock releases the mutex.
func (m *Mutex) Unlock() {
	m.mu.Unlock()
	lockRelease(m)
}
