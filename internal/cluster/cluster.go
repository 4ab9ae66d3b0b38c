// Package cluster assembles complete Dodo deployments in one process:
// a central manager, one resource-monitor + idle-memory-daemon pair per
// workstation, and client runtimes, all wired over one emulated U-Net
// segment (package usocket), the fabric the benchmarks measure.
//
// It supplies the glue the paper describes in §4.1: the rmd forks the
// imd when its workstation goes idle (with a fresh epoch) and signals it
// to drain when the owner returns.
package cluster

import (
	"fmt"
	"log"
	"sync"
	"time"

	"dodo/internal/bulk"
	"dodo/internal/core"
	"dodo/internal/imd"
	"dodo/internal/locks"
	"dodo/internal/manager"
	"dodo/internal/monitor"
	"dodo/internal/usocket"
)

// Config assembles a cluster. Workstations are added individually with
// AddWorkstation.
type Config struct {
	// PoolBytes is each imd's memory pool. When zero, the harvest
	// limit must be supplied per-host via the Workstation API.
	PoolBytes uint64
	// Monitor tunes the idleness policy (§4.1 defaults when zero).
	Monitor monitor.Config
	// Endpoint tunes all messaging. Its RecvWindow is capped at half
	// usocket.HostRing, the depth of every host's receive ring.
	Endpoint bulk.Config
	// Manager tunes the central manager.
	Manager manager.Config
	// IMD carries per-imd knobs (grace window, status interval, clock)
	// applied at each recruitment; ManagerAddr, PoolSize, Epoch,
	// Endpoint and Logger are filled in by the harness.
	IMD imd.Config
	// Logger receives lifecycle events; nil silences them.
	Logger *log.Logger
}

// Cluster is a running deployment.
type Cluster struct {
	// dodo:unguarded — immutable after construction
	cfg Config
	// dodo:unguarded — immutable after construction
	seg *usocket.Segment

	mu locks.Mutex
	// mgr is the live central manager; nil between a CrashManager and
	// the following RestartManager.
	// dodo:guardedby mu
	mgr *manager.Manager
	// mgrIncarnation numbers manager incarnations, starting at 1 for
	// the one New boots. A real deployment would persist this tiny
	// counter (or derive it from a boot timestamp); the harness plays
	// the role of that stable store.
	// dodo:guardedby mu
	mgrIncarnation uint64
	// dodo:guardedby mu
	workstations []*Workstation
	// dodo:guardedby mu
	clients []*core.Client
	// dodo:guardedby mu
	closed bool
}

// Workstation is one participating desktop machine: a resource monitor
// plus the idle memory daemon it forks while the host is idle.
type Workstation struct {
	// dodo:unguarded — immutable after construction
	Name string

	// dodo:unguarded — immutable after construction
	cluster *Cluster
	// dodo:unguarded — immutable after construction
	mon *monitor.Monitor

	mu locks.Mutex
	// dodo:guardedby mu
	imd *imd.Daemon
	// dodo:guardedby mu
	epoch uint64
	// dodo:guardedby mu
	pool uint64
	// drainWG tracks a predecessor imd still spending its drain grace
	// window; the next recruitment waits for its teardown (as the rmd
	// waits for the old imd process to exit) before re-forking on the
	// same address.
	// dodo:unguarded — WaitGroup is internally synchronized
	drainWG sync.WaitGroup
}

// New builds a cluster over a fresh segment. The manager is the host
// named "cmd".
func New(cfg Config) *Cluster {
	c := &Cluster{
		cfg:            cfg,
		seg:            usocket.NewSegment(),
		mgrIncarnation: 1,
	}
	c.mu.SetRank(locks.RankCluster)
	c.mgr = manager.New(c.host("cmd"), c.managerConfig(1))
	return c
}

// host opens the named host on the segment. The segment gives a name
// one address for good, and the harness closes a name's previous holder
// before it opens the name again, so a failure is a harness bug.
func (c *Cluster) host(name string) *usocket.UNet {
	tr, err := c.seg.Host(name)
	if err != nil {
		panic(fmt.Sprintf("cluster: %v", err))
	}
	return tr
}

// managerConfig derives one incarnation's manager configuration.
func (c *Cluster) managerConfig(incarnation uint64) manager.Config {
	mgrCfg := c.cfg.Manager
	mgrCfg.Endpoint = c.endpoint()
	mgrCfg.Incarnation = incarnation
	if mgrCfg.Logger == nil {
		mgrCfg.Logger = c.cfg.Logger
	}
	return mgrCfg
}

// Segment exposes the fabric (for fault injection and its counts).
func (c *Cluster) Segment() *usocket.Segment { return c.seg }

// Manager exposes the central manager; nil while it is crashed.
func (c *Cluster) Manager() *manager.Manager {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mgr
}

// ManagerIncarnation reports the incarnation of the most recently
// started manager.
func (c *Cluster) ManagerIncarnation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mgrIncarnation
}

// CrashManager kills the central manager outright: the process dies
// and its in-memory directory dies with it (contrast a blackout, which
// only partitions a surviving process). No-op while already crashed.
func (c *Cluster) CrashManager() {
	c.mu.Lock()
	m := c.mgr
	c.mgr = nil
	c.mu.Unlock()
	if m != nil {
		_ = m.Close()
	}
}

// RestartManager boots a fresh manager at the same address under the
// next incarnation. Its directory starts empty and rebuilds as soft
// state from imd inventory re-reports; clients revalidate against it
// via the incarnation stamped on every response. No-op while a manager
// is already running.
func (c *Cluster) RestartManager() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mgr != nil || c.closed {
		return
	}
	c.mgrIncarnation++
	c.mgr = manager.New(c.host("cmd"), c.managerConfig(c.mgrIncarnation))
}

// endpoint is the messaging configuration every host gets: the
// caller's, with a receive window of at most half a host's ring, which
// holds a window with its offer and the control frames around it. The
// ring overflows only when others send to the host at the same time.
func (c *Cluster) endpoint() bulk.Config {
	ep := c.cfg.Endpoint
	if ep.RecvWindow == 0 || ep.RecvWindow > usocket.HostRing/2 {
		ep.RecvWindow = usocket.HostRing / 2
	}
	return ep
}

// ManagerAddr returns the manager's address on the fabric.
func (c *Cluster) ManagerAddr() string { return c.seg.Addr("cmd") }

// AddWorkstation registers a workstation with the given activity source
// driving its monitor. The workstation starts busy; the monitor's
// Run/Step drives recruiting.
func (c *Cluster) AddWorkstation(name string, src monitor.Source) *Workstation {
	w := &Workstation{Name: name, cluster: c, pool: c.cfg.PoolBytes}
	w.mu.SetRank(locks.RankWorkstation)
	monCfg := c.cfg.Monitor
	w.mon = monitor.New(src, monCfg, monitor.Hooks{
		OnRecruit: func(now time.Time) { w.recruit() },
		OnReclaim: func(now time.Time) { w.reclaim() },
	})
	c.mu.Lock()
	c.workstations = append(c.workstations, w)
	c.mu.Unlock()
	return w
}

// Monitor exposes the workstation's rmd state machine.
func (w *Workstation) Monitor() *monitor.Monitor { return w.mon }

// SetPool overrides the pool size used at the next recruitment (the
// harvest limit of §3.1, computed from the host's memory sample).
func (w *Workstation) SetPool(bytes uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pool = bytes
}

// IMD returns the live idle-memory daemon, if the host is recruited.
func (w *Workstation) IMD() *imd.Daemon {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.imd
}

// recruit forks the imd (rmd behavior on busy->idle, §4.1): new epoch,
// fresh pool, registration with the manager.
func (w *Workstation) recruit() {
	w.mu.Lock()
	if w.imd != nil {
		w.mu.Unlock()
		return
	}
	w.mu.Unlock()
	// A draining predecessor still owns the imd address for its grace
	// window; wait for its teardown before forking the next incarnation.
	w.drainWG.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.imd != nil {
		return
	}
	w.epoch++
	imdCfg := w.cluster.cfg.IMD
	imdCfg.ManagerAddr = w.cluster.ManagerAddr()
	imdCfg.PoolSize = w.pool
	imdCfg.Epoch = w.epoch
	imdCfg.Endpoint = w.cluster.endpoint()
	if imdCfg.Logger == nil {
		imdCfg.Logger = w.cluster.cfg.Logger
	}
	w.imd = imd.New(w.cluster.host(w.imdName()), imdCfg)
}

// reclaim signals the imd to drain and exit (rmd behavior on
// idle->busy, §4.1). The drain runs in the background: the owner gets
// the machine back immediately while the imd spends its grace window
// serving reads and handing pages off to peers.
func (w *Workstation) reclaim() {
	w.mu.Lock()
	d := w.imd
	w.imd = nil
	if d != nil {
		w.drainWG.Add(1)
	}
	w.mu.Unlock()
	if d != nil {
		go func() {
			defer w.drainWG.Done()
			d.Drain()
		}()
	}
}

// Step advances the workstation's monitor by one sample at now.
func (w *Workstation) Step(now time.Time) monitor.State { return w.mon.Step(now) }

// NewClient attaches a client runtime as the named host.
func (c *Cluster) NewClient(name string, cfg core.Config) *core.Client {
	cfg.ManagerAddr = c.ManagerAddr()
	cfg.Endpoint = c.endpoint()
	if cfg.Logger == nil {
		cfg.Logger = c.cfg.Logger
	}
	cli := core.New(c.host(name), cfg)
	c.mu.Lock()
	c.clients = append(c.clients, cli)
	c.mu.Unlock()
	return cli
}

// Close tears the whole deployment down.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	ws := append([]*Workstation(nil), c.workstations...)
	clients := append([]*core.Client(nil), c.clients...)
	mgr := c.mgr
	c.mgr = nil
	c.mu.Unlock()
	var first error
	for _, cli := range clients {
		if err := cli.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, w := range ws {
		w.mu.Lock()
		d := w.imd
		w.imd = nil
		w.mu.Unlock()
		if d != nil {
			if err := d.Close(); err != nil && first == nil {
				first = err
			}
		}
		// A drain still in its grace window tears itself down; join it
		// so Close leaves no daemon behind.
		w.drainWG.Wait()
	}
	if mgr != nil {
		if err := mgr.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// AlwaysIdle is a monitor source describing a dedicated (Beowulf-style)
// node: no console, no load — the §3 "dedicated cluster" case where
// machines are recruited whenever lightly loaded.
func AlwaysIdle() monitor.Source {
	return monitor.SourceFunc(func(now time.Time) monitor.Sample {
		return monitor.Sample{Time: now, ConsoleActive: false, Load: 0}
	})
}

// Scripted returns a source that reports console activity exactly at
// the given instants (second granularity from start).
func Scripted(start time.Time, activeSeconds map[int]bool) monitor.Source {
	return monitor.SourceFunc(func(now time.Time) monitor.Sample {
		sec := int(now.Sub(start) / time.Second)
		return monitor.Sample{Time: now, ConsoleActive: activeSeconds[sec]}
	})
}
