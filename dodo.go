// Package dodo is the public face of this reproduction of "Dodo: A
// User-level System for Exploiting Idle Memory in Workstation Clusters"
// (Koussih, Acharya, Setia; HPDC 1999).
//
// Dodo lets data-intensive applications use the idle memory of other
// workstations as a cache layer between local memory and disk, entirely
// at user level. A deployment consists of:
//
//   - one central manager daemon (cmd) on a dedicated machine;
//   - a resource monitor daemon (rmd) on every participating
//     workstation, which forks an idle memory daemon (imd) while the
//     machine is idle and kills it when the owner returns;
//   - the runtime library linked into each application, exposing the
//     explicit Mopen/Mread/Mwrite/Mclose/Msync API of the paper, with
//     the optional region-management library (Copen/Cread/...) layered
//     on top.
//
// This package re-exports the client-side API and provides convenience
// constructors that wire the pieces over UDP (the daemons also run over
// the U-Net-style usocket substrate; see the cmd/ binaries). The
// subsystem packages live under internal/: the wire protocol, the bulk
// transfer protocol with selective NACKs, the daemons, the region cache
// and its replacement policies, the calibrated disk/network simulation
// substrate and the experiment harness that regenerates every table and
// figure of the paper.
package dodo

import (
	"fmt"
	"os"

	"dodo/internal/bulk"
	"dodo/internal/core"
	"dodo/internal/imd"
	"dodo/internal/manager"
	"dodo/internal/monitor"
	"dodo/internal/region"
	"dodo/internal/transport"
	"dodo/internal/wire"
)

// Client is the Dodo runtime library (libdodo): the paper's explicit
// remote-memory API. Obtain one with Dial.
type Client = core.Client

// ClientConfig tunes the runtime library.
type ClientConfig = core.Config

// Backing is the disk store behind a region; FileBacking wraps *os.File
// and MemBacking provides an in-memory store for tests.
type Backing = core.Backing

// FileBacking adapts an *os.File opened read-write.
type FileBacking = core.FileBacking

// MemBacking is an in-memory Backing.
type MemBacking = core.MemBacking

// RegionCache is the region-management library (libmanage): a local
// cache of regions with a choice of replacement policies, layered over
// the Client.
type RegionCache = region.Cache

// RegionConfig tunes the region cache.
type RegionConfig = region.Config

// Policy is a replacement policy (LRU, MRU, first-in, FIFO); the zero
// value is LRU.
type Policy = region.Policy

// Errors mirroring the paper's errno-style results.
var (
	// ErrNoMem is ENOMEM: no remote memory, or the region is inactive.
	ErrNoMem = core.ErrNoMem
	// ErrInval is EINVAL: bad descriptor, offset, length or backing.
	ErrInval = core.ErrInval
)

// NewFileBacking wraps an open, writable file as a region backing.
func NewFileBacking(f *os.File) (*FileBacking, error) { return core.NewFileBacking(f) }

// NewMemBacking creates an in-memory backing with the given inode id.
func NewMemBacking(inode uint64, size int) *MemBacking { return core.NewMemBacking(inode, size) }

// Dial connects a client runtime to the central manager at managerAddr
// ("host:port") over UDP, binding the local endpoint to localAddr (pass
// "0.0.0.0:0" or "127.0.0.1:0" for an ephemeral port).
func Dial(localAddr, managerAddr string, cfg ClientConfig) (*Client, error) {
	tr, err := transport.ListenUDP(localAddr)
	if err != nil {
		return nil, fmt.Errorf("dodo: %w", err)
	}
	cfg.ManagerAddr = managerAddr
	return core.New(tr, cfg), nil
}

// NewClient attaches a client runtime to an existing transport; tests
// and single-process deployments use this with the emulated U-Net
// segment.
func NewClient(tr transport.Transport, cfg ClientConfig) *Client { return core.New(tr, cfg) }

// NewRegionCache layers the region-management library over a client.
// Policy defaults to LRU; use NewPolicy to pick another (§3.3's
// csetPolicy corresponds to (*RegionCache).SetPolicy).
func NewRegionCache(cli *Client, cfg RegionConfig) *RegionCache { return region.NewCache(cli, cfg) }

// NewPolicy returns the named replacement policy: "lru", "mru",
// "first-in" or "fifo".
func NewPolicy(name string) (Policy, error) { return region.NewPolicy(name) }

// Manager is the central manager daemon (cmd).
type Manager = manager.Manager

// ManagerConfig tunes the manager.
type ManagerConfig = manager.Config

// ListenManager starts a central manager on a UDP address.
func ListenManager(addr string, cfg ManagerConfig) (*Manager, error) {
	tr, err := transport.ListenUDP(addr)
	if err != nil {
		return nil, fmt.Errorf("dodo: %w", err)
	}
	return manager.New(tr, cfg), nil
}

// IMD is the idle memory daemon.
type IMD = imd.Daemon

// IMDConfig tunes an idle memory daemon.
type IMDConfig = imd.Config

// ListenIMD starts an idle memory daemon on a UDP address, registering
// it with the manager named in cfg.ManagerAddr.
func ListenIMD(addr string, cfg IMDConfig) (*IMD, error) {
	tr, err := transport.ListenUDP(addr)
	if err != nil {
		return nil, fmt.Errorf("dodo: %w", err)
	}
	return imd.New(tr, cfg), nil
}

// Monitor is the resource monitor daemon's policy engine (rmd).
type Monitor = monitor.Monitor

// MonitorConfig tunes the idleness predicate.
type MonitorConfig = monitor.Config

// MonitorHooks receive recruit/reclaim transitions.
type MonitorHooks = monitor.Hooks

// NewMonitor builds an rmd state machine over an activity source; use
// monitor.NewSystemSource for live Linux probes.
func NewMonitor(src monitor.Source, cfg MonitorConfig, hooks MonitorHooks) *Monitor {
	return monitor.New(src, cfg, hooks)
}

// HarvestLimit computes the maximum pool an imd may allocate on a host
// given its memory usage (§3.1: in-use + paging free list + 15% headroom
// stay untouched). Pass headroomFrac < 0 for the paper's 15%.
func HarvestLimit(m monitor.MemSample, headroomFrac float64) uint64 {
	return monitor.HarvestLimit(m, headroomFrac)
}

// EndpointConfig tunes the messaging layer (timeouts, retry budgets,
// bulk-transfer windows) for any of the constructors above.
type EndpointConfig = bulk.Config

// ClusterState is a snapshot of a running cluster, from the central
// manager's perspective (the dodo-ctl view).
type ClusterState struct {
	Hosts   []wire.HostInfo
	Regions uint64
	Clients uint64
	// Incarnation is the manager's incarnation number; its counters
	// cover the current incarnation only.
	Incarnation uint64
	// Counters holds every total the manager reports, by name: its own,
	// and the sums of its clients' keep-alive reports under a "client."
	// prefix.
	Counters map[string]uint64
	// CorruptHosts breaks the clients' page-checksum failures down by
	// the host that served the corrupt frame.
	CorruptHosts []wire.HostCount
}

// QueryCluster asks the central manager at managerAddr (over UDP) for
// its current state.
func QueryCluster(managerAddr string) (ClusterState, error) {
	tr, err := transport.ListenUDP("0.0.0.0:0")
	if err != nil {
		return ClusterState{}, fmt.Errorf("dodo: %w", err)
	}
	ep := bulk.NewEndpoint(tr, bulk.Config{}, nil)
	defer ep.Close()
	resp, err := ep.Call(managerAddr, &wire.ClusterStatsReq{})
	if err != nil {
		return ClusterState{}, fmt.Errorf("dodo: querying %s: %w", managerAddr, err)
	}
	st, ok := resp.(*wire.ClusterStatsResp)
	if !ok || st.Status != wire.StatusOK {
		return ClusterState{}, fmt.Errorf("dodo: manager refused the stats query")
	}
	counters := make(map[string]uint64, len(st.Counters))
	for _, k := range st.Counters {
		counters[k.Name] = k.Value
	}
	return ClusterState{
		Hosts:        st.Hosts,
		Regions:      st.Regions,
		Clients:      st.Clients,
		Incarnation:  st.Incarnation,
		Counters:     counters,
		CorruptHosts: st.CorruptHosts,
	}, nil
}
