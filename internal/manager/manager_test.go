package manager

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"dodo/internal/bulk"
	"dodo/internal/pool"
	"dodo/internal/transport"
	"dodo/internal/wire"
)

func fastEndpointCfg() bulk.Config {
	return bulk.Config{
		CallTimeout:   100 * time.Millisecond,
		CallRetries:   2,
		WindowTimeout: 80 * time.Millisecond,
		NackDelay:     30 * time.Millisecond,
	}
}

func fastCfg() Config {
	return Config{
		KeepAliveInterval: 100 * time.Millisecond,
		KeepAliveMisses:   2,
		Endpoint:          fastEndpointCfg(),
	}
}

// fakeIMD is a minimal idle-memory daemon for manager tests: a pool
// behind an endpoint answering IMDAllocReq/IMDFreeReq.
type fakeIMD struct {
	ep    *bulk.Endpoint
	mu    sync.Mutex
	pool  *pool.Pool
	epoch uint64
}

func newFakeIMD(n *transport.Network, addr string, size uint64, epoch uint64) *fakeIMD {
	f := &fakeIMD{pool: pool.NewFirstFitPool(size), epoch: epoch}
	f.ep = bulk.NewEndpoint(n.Host(addr), fastEndpointCfg(), f.handle)
	return f
}

func (f *fakeIMD) handle(from string, msg wire.Message) wire.Message {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch req := msg.(type) {
	case *wire.IMDAllocReq:
		if f.pool.Has(req.RegionID) {
			// Duplicate: idempotent success.
			return &wire.IMDAllocResp{Status: wire.StatusOK, Epoch: f.epoch,
				AvailBytes: f.pool.FreeBytes(), LargestFree: f.pool.LargestFree()}
		}
		off, err := f.pool.Create(req.RegionID, req.Length)
		st := wire.StatusOK
		if err != nil {
			st = wire.StatusNoMem
		}
		return &wire.IMDAllocResp{Status: st, PoolOffset: off, Epoch: f.epoch,
			AvailBytes: f.pool.FreeBytes(), LargestFree: f.pool.LargestFree()}
	case *wire.IMDFreeReq:
		st := wire.StatusOK
		if err := f.pool.Delete(req.RegionID); err != nil {
			st = wire.StatusNotFound
		}
		return &wire.IMDFreeResp{Status: st, Epoch: f.epoch,
			AvailBytes: f.pool.FreeBytes(), LargestFree: f.pool.LargestFree()}
	}
	return nil
}

func (f *fakeIMD) regions() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pool.Regions()
}

func (f *fakeIMD) has(id uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pool.Has(id)
}

// registerHost announces a host as idle to the manager.
func registerHost(t *testing.T, cli *bulk.Endpoint, mgr string, addr string, epoch, avail uint64) {
	t.Helper()
	resp, err := cli.Call(mgr, &wire.HostStatus{
		HostAddr: addr, State: wire.HostIdle, Epoch: epoch, AvailBytes: avail, LargestFree: avail,
	})
	if err != nil {
		t.Fatalf("HostStatus: %v", err)
	}
	if ack := resp.(*wire.HostStatusAck); ack.Status != wire.StatusOK {
		t.Fatalf("HostStatus ack = %v", ack.Status)
	}
}

type testRig struct {
	n   *transport.Network
	mgr *Manager
	cli *bulk.Endpoint
}

func newRig(t *testing.T) *testRig {
	t.Helper()
	n := transport.NewNetwork()
	mgr := New(n.Host("cmd"), fastCfg())
	cli := bulk.NewEndpoint(n.Host("client"), fastEndpointCfg(), clientHandler)
	t.Cleanup(func() { mgr.Close(); cli.Close() })
	return &testRig{n: n, mgr: mgr, cli: cli}
}

// clientHandler answers keep-alives, as the runtime library must.
func clientHandler(from string, msg wire.Message) wire.Message {
	if ka, ok := msg.(*wire.KeepAlive); ok {
		return &wire.KeepAliveAck{ClientID: ka.ClientID}
	}
	return nil
}

func key(inode uint64, off int64) wire.RegionKey {
	return wire.RegionKey{Inode: inode, Offset: off, ClientID: 1}
}

func TestHostRegistrationAndDeregistration(t *testing.T) {
	r := newRig(t)
	registerHost(t, r.cli, "cmd", "imd1", 1, 1<<20)
	if got := r.mgr.Stats().IdleHosts; got != 1 {
		t.Fatalf("IdleHosts = %d, want 1", got)
	}
	resp, err := r.cli.Call("cmd", &wire.HostStatus{HostAddr: "imd1", State: wire.HostBusy})
	if err != nil || resp.(*wire.HostStatusAck).Status != wire.StatusOK {
		t.Fatalf("busy status: %v", err)
	}
	if got := r.mgr.Stats().IdleHosts; got != 0 {
		t.Fatalf("IdleHosts after busy = %d, want 0", got)
	}
}

func TestAllocThroughRealIMDFlow(t *testing.T) {
	r := newRig(t)
	imd := newFakeIMD(r.n, "imd1", 1<<20, 7)
	t.Cleanup(func() { imd.ep.Close() })
	registerHost(t, r.cli, "cmd", "imd1", 7, 1<<20)

	resp, err := r.cli.Call("cmd", &wire.AllocReq{Key: key(1, 0), Length: 4096})
	if err != nil {
		t.Fatalf("AllocReq: %v", err)
	}
	ar := resp.(*wire.AllocResp)
	if ar.Status != wire.StatusOK {
		t.Fatalf("alloc status = %v", ar.Status)
	}
	if ar.Region.HostAddr != "imd1" || ar.Region.Length != 4096 || ar.Region.Epoch != 7 {
		t.Fatalf("region = %+v", ar.Region)
	}
	if !imd.has(ar.Region.RegionID) {
		t.Fatal("imd pool does not hold the allocated region")
	}
	if got := r.mgr.Stats().Allocs; got != 1 {
		t.Fatalf("Allocs = %d, want 1", got)
	}
}

func TestAllocNoHostsReturnsNoMem(t *testing.T) {
	r := newRig(t)
	resp, err := r.cli.Call("cmd", &wire.AllocReq{Key: key(1, 0), Length: 4096})
	if err != nil {
		t.Fatalf("AllocReq: %v", err)
	}
	if st := resp.(*wire.AllocResp).Status; st != wire.StatusNoMem {
		t.Fatalf("alloc with no hosts = %v, want StatusNoMem", st)
	}
	if got := r.mgr.Stats().AllocFailures; got != 1 {
		t.Fatalf("AllocFailures = %d, want 1", got)
	}
}

func TestAllocZeroLengthInvalid(t *testing.T) {
	r := newRig(t)
	resp, err := r.cli.Call("cmd", &wire.AllocReq{Key: key(1, 0), Length: 0})
	if err != nil {
		t.Fatal(err)
	}
	if st := resp.(*wire.AllocResp).Status; st != wire.StatusInvalid {
		t.Fatalf("zero-length alloc = %v, want StatusInvalid", st)
	}
}

func TestAllocIsIdempotentByKey(t *testing.T) {
	r := newRig(t)
	imd := newFakeIMD(r.n, "imd1", 1<<20, 1)
	t.Cleanup(func() { imd.ep.Close() })
	registerHost(t, r.cli, "cmd", "imd1", 1, 1<<20)

	r1, err := r.cli.Call("cmd", &wire.AllocReq{Key: key(9, 100), Length: 1024})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := r.cli.Call("cmd", &wire.AllocReq{Key: key(9, 100), Length: 1024})
	if err != nil {
		t.Fatal(err)
	}
	a, b := r1.(*wire.AllocResp).Region, r2.(*wire.AllocResp).Region
	if a != b {
		t.Fatalf("duplicate alloc returned different regions: %+v vs %+v", a, b)
	}
	if imd.regions() != 1 {
		t.Fatalf("imd holds %d regions after duplicate alloc, want 1", imd.regions())
	}
}

func TestAllocFallsBackToSecondHost(t *testing.T) {
	r := newRig(t)
	// imd1 claims space in the IWD but is actually full; imd2 has room.
	full := newFakeIMD(r.n, "imd1", 512, 1)
	roomy := newFakeIMD(r.n, "imd2", 1<<20, 1)
	t.Cleanup(func() { full.ep.Close(); roomy.ep.Close() })
	registerHost(t, r.cli, "cmd", "imd1", 1, 1<<20) // stale oversized hint
	registerHost(t, r.cli, "cmd", "imd2", 1, 1<<20)

	resp, err := r.cli.Call("cmd", &wire.AllocReq{Key: key(2, 0), Length: 8192})
	if err != nil {
		t.Fatal(err)
	}
	ar := resp.(*wire.AllocResp)
	if ar.Status != wire.StatusOK || ar.Region.HostAddr != "imd2" {
		t.Fatalf("alloc = %v on %s, want OK on imd2", ar.Status, ar.Region.HostAddr)
	}
}

func TestAllocDropsUnreachableHost(t *testing.T) {
	r := newRig(t)
	// Only one candidate, and it is unreachable: the manager must probe
	// it, fail, drop it from the IWD, and report no memory.
	registerHost(t, r.cli, "cmd", "dead-imd", 1, 1<<20)
	r.n.Host("dead-imd") // exists but never answers
	r.n.Partition("dead-imd")

	resp, err := r.cli.Call("cmd", &wire.AllocReq{Key: key(3, 0), Length: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if st := resp.(*wire.AllocResp).Status; st != wire.StatusNoMem {
		t.Fatalf("alloc with only a dead host = %v, want StatusNoMem", st)
	}
	// The unreachable host must have been dropped from the IWD.
	if got := r.mgr.Stats().IdleHosts; got != 0 {
		t.Fatalf("IdleHosts = %d after probing dead host, want 0", got)
	}
}

func TestFreeForwardsToIMD(t *testing.T) {
	r := newRig(t)
	imd := newFakeIMD(r.n, "imd1", 1<<20, 1)
	t.Cleanup(func() { imd.ep.Close() })
	registerHost(t, r.cli, "cmd", "imd1", 1, 1<<20)

	if _, err := r.cli.Call("cmd", &wire.AllocReq{Key: key(4, 0), Length: 2048}); err != nil {
		t.Fatal(err)
	}
	resp, err := r.cli.Call("cmd", &wire.FreeReq{Key: key(4, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if st := resp.(*wire.FreeResp).Status; st != wire.StatusOK {
		t.Fatalf("free = %v", st)
	}
	// Free is forwarded asynchronously; wait for the imd to see it.
	deadline := time.Now().Add(2 * time.Second)
	for imd.regions() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if imd.regions() != 0 {
		t.Fatal("imd still holds the freed region")
	}
	// Second free: not found.
	resp, err = r.cli.Call("cmd", &wire.FreeReq{Key: key(4, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if st := resp.(*wire.FreeResp).Status; st != wire.StatusNotFound {
		t.Fatalf("double free = %v, want StatusNotFound", st)
	}
}

func TestCheckAllocValidAndStale(t *testing.T) {
	r := newRig(t)
	imd := newFakeIMD(r.n, "imd1", 1<<20, 5)
	t.Cleanup(func() { imd.ep.Close() })
	registerHost(t, r.cli, "cmd", "imd1", 5, 1<<20)

	alloc, err := r.cli.Call("cmd", &wire.AllocReq{Key: key(5, 0), Length: 1024})
	if err != nil {
		t.Fatal(err)
	}
	want := alloc.(*wire.AllocResp).Region

	resp, err := r.cli.Call("cmd", &wire.CheckAllocReq{Key: key(5, 0)})
	if err != nil {
		t.Fatal(err)
	}
	ca := resp.(*wire.CheckAllocResp)
	if ca.Status != wire.StatusOK || ca.Region != want {
		t.Fatalf("checkAlloc = %v %+v, want OK %+v", ca.Status, ca.Region, want)
	}

	// The imd restarts: epoch bumps. checkAlloc must detect staleness,
	// delete the region, and report failure (§4.3).
	registerHost(t, r.cli, "cmd", "imd1", 6, 1<<20)
	resp, err = r.cli.Call("cmd", &wire.CheckAllocReq{Key: key(5, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if st := resp.(*wire.CheckAllocResp).Status; st != wire.StatusStale {
		t.Fatalf("stale checkAlloc = %v, want StatusStale", st)
	}
	if got := r.mgr.Stats().StaleDrops; got != 1 {
		t.Fatalf("StaleDrops = %d, want 1", got)
	}
	// And the region is gone from the RD now.
	resp, err = r.cli.Call("cmd", &wire.CheckAllocReq{Key: key(5, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if st := resp.(*wire.CheckAllocResp).Status; st != wire.StatusNotFound {
		t.Fatalf("checkAlloc after stale drop = %v, want StatusNotFound", st)
	}
}

func TestCheckAllocHostReclaimedIsStale(t *testing.T) {
	r := newRig(t)
	imd := newFakeIMD(r.n, "imd1", 1<<20, 5)
	t.Cleanup(func() { imd.ep.Close() })
	registerHost(t, r.cli, "cmd", "imd1", 5, 1<<20)
	if _, err := r.cli.Call("cmd", &wire.AllocReq{Key: key(6, 0), Length: 512}); err != nil {
		t.Fatal(err)
	}
	// Owner reclaims the workstation.
	if _, err := r.cli.Call("cmd", &wire.HostStatus{HostAddr: "imd1", State: wire.HostBusy}); err != nil {
		t.Fatal(err)
	}
	resp, err := r.cli.Call("cmd", &wire.CheckAllocReq{Key: key(6, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if st := resp.(*wire.CheckAllocResp).Status; st != wire.StatusStale {
		t.Fatalf("checkAlloc on reclaimed host = %v, want StatusStale", st)
	}
}

func TestKeepAliveReclaimsDeadClient(t *testing.T) {
	n := transport.NewNetwork()
	mgr := New(n.Host("cmd"), fastCfg())
	t.Cleanup(func() { mgr.Close() })
	imd := newFakeIMD(n, "imd1", 1<<20, 1)
	t.Cleanup(func() { imd.ep.Close() })

	cli := bulk.NewEndpoint(n.Host("client"), fastEndpointCfg(), clientHandler)
	registerHost(t, cli, "cmd", "imd1", 1, 1<<20)
	if _, err := cli.Call("cmd", &wire.AllocReq{Key: key(7, 0), Length: 1024}); err != nil {
		t.Fatal(err)
	}
	if imd.regions() != 1 {
		t.Fatal("precondition: imd should hold one region")
	}

	// Client dies: stop answering keep-alives.
	cli.Close()
	n.Partition("client")

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s := mgr.Stats(); s.OrphanReclaims == 1 && s.Regions == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	s := mgr.Stats()
	if s.OrphanReclaims != 1 || s.Regions != 0 || s.Clients != 0 {
		t.Fatalf("after client death: %+v, want 1 orphan reclaim, 0 regions, 0 clients", s)
	}
	deadline = time.Now().Add(2 * time.Second)
	for imd.regions() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if imd.regions() != 0 {
		t.Fatal("imd still holds the orphaned region")
	}
}

func TestKeepAliveKeepsLiveClient(t *testing.T) {
	r := newRig(t)
	imd := newFakeIMD(r.n, "imd1", 1<<20, 1)
	t.Cleanup(func() { imd.ep.Close() })
	registerHost(t, r.cli, "cmd", "imd1", 1, 1<<20)
	if _, err := r.cli.Call("cmd", &wire.AllocReq{Key: key(8, 0), Length: 1024}); err != nil {
		t.Fatal(err)
	}
	// Survive several keep-alive rounds.
	time.Sleep(500 * time.Millisecond)
	s := r.mgr.Stats()
	if s.OrphanReclaims != 0 || s.Regions != 1 {
		t.Fatalf("live client was reclaimed: %+v", s)
	}
}

func TestManagerCloseIsIdempotent(t *testing.T) {
	n := transport.NewNetwork()
	mgr := New(n.Host("cmd"), fastCfg())
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAllocsDistinctKeys(t *testing.T) {
	r := newRig(t)
	imd := newFakeIMD(r.n, "imd1", 1<<22, 1)
	t.Cleanup(func() { imd.ep.Close() })
	registerHost(t, r.cli, "cmd", "imd1", 1, 1<<22)

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := r.cli.Call("cmd", &wire.AllocReq{Key: key(100, int64(w)), Length: 4096})
			if err != nil {
				errs[w] = err
				return
			}
			if resp.(*wire.AllocResp).Status != wire.StatusOK {
				errs[w] = bulk.ErrRejected
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if got := r.mgr.Stats().Regions; got != workers {
		t.Fatalf("Regions = %d, want %d", got, workers)
	}
	if imd.regions() != workers {
		t.Fatalf("imd regions = %d, want %d", imd.regions(), workers)
	}
}

func TestFreeRefreshesIWDHints(t *testing.T) {
	r := newRig(t)
	imd := newFakeIMD(r.n, "imd1", 1<<20, 1)
	t.Cleanup(func() { imd.ep.Close() })
	registerHost(t, r.cli, "cmd", "imd1", 1, 1<<20)

	if _, err := r.cli.Call("cmd", &wire.AllocReq{Key: key(55, 0), Length: 1 << 19}); err != nil {
		t.Fatal(err)
	}
	// The alloc response's piggyback halves the availability hint.
	availHint := func() uint64 {
		resp, err := r.cli.Call("cmd", &wire.ClusterStatsReq{})
		if err != nil {
			t.Fatal(err)
		}
		st := resp.(*wire.ClusterStatsResp)
		if len(st.Hosts) != 1 {
			t.Fatalf("hosts = %d", len(st.Hosts))
		}
		return st.Hosts[0].AvailBytes
	}
	if got := availHint(); got != 1<<19 {
		t.Fatalf("avail hint after alloc = %d, want %d", got, 1<<19)
	}
	if _, err := r.cli.Call("cmd", &wire.FreeReq{Key: key(55, 0)}); err != nil {
		t.Fatal(err)
	}
	// The async free response must restore the full-pool availability.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if availHint() == 1<<20 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("avail hint = %d after free, want %d", availHint(), 1<<20)
}

// TestFailedAllocDoesNotTrackClient: a client whose allocation fails
// owns nothing, so the keep-alive loop must not start probing it.
func TestFailedAllocDoesNotTrackClient(t *testing.T) {
	r := newRig(t)
	resp, err := r.cli.Call("cmd", &wire.AllocReq{Key: key(70, 0), Length: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if st := resp.(*wire.AllocResp).Status; st != wire.StatusNoMem {
		t.Fatalf("alloc with no hosts = %v, want StatusNoMem", st)
	}
	if got := r.mgr.Stats().Clients; got != 0 {
		t.Fatalf("Clients = %d after a failed alloc, want 0 (keep-alive leak)", got)
	}
}

// TestClientUntrackedAfterLastFree: once a client frees its last region
// it must leave the keep-alive set — otherwise every client that ever
// allocated is probed forever.
func TestClientUntrackedAfterLastFree(t *testing.T) {
	r := newRig(t)
	imd := newFakeIMD(r.n, "imd1", 1<<20, 1)
	t.Cleanup(func() { imd.ep.Close() })
	registerHost(t, r.cli, "cmd", "imd1", 1, 1<<20)

	if _, err := r.cli.Call("cmd", &wire.AllocReq{Key: key(71, 0), Length: 1024}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.cli.Call("cmd", &wire.AllocReq{Key: key(71, 4096), Length: 1024}); err != nil {
		t.Fatal(err)
	}
	if got := r.mgr.Stats().Clients; got != 1 {
		t.Fatalf("Clients = %d after allocs, want 1", got)
	}
	if _, err := r.cli.Call("cmd", &wire.FreeReq{Key: key(71, 0)}); err != nil {
		t.Fatal(err)
	}
	// One region left: still tracked.
	if got := r.mgr.Stats().Clients; got != 1 {
		t.Fatalf("Clients = %d with one region left, want 1", got)
	}
	if _, err := r.cli.Call("cmd", &wire.FreeReq{Key: key(71, 4096)}); err != nil {
		t.Fatal(err)
	}
	if got := r.mgr.Stats().Clients; got != 0 {
		t.Fatalf("Clients = %d after last free, want 0 (keep-alive leak)", got)
	}
}

// ackingClient is a fake client whose keep-alive acks report the given
// counters and corruption rows; it is tracked once it holds a region.
func ackingClient(t *testing.T, n *transport.Network, addr string, inode uint64, counters []wire.Counter, corrupt []wire.HostCount) *bulk.Endpoint {
	t.Helper()
	cli := bulk.NewEndpoint(n.Host(addr), fastEndpointCfg(), func(from string, msg wire.Message) wire.Message {
		if ka, ok := msg.(*wire.KeepAlive); ok {
			return &wire.KeepAliveAck{ClientID: ka.ClientID, Counters: counters, CorruptHosts: corrupt}
		}
		return nil
	})
	t.Cleanup(func() { cli.Close() })
	if _, err := cli.Call("cmd", &wire.AllocReq{Key: key(inode, 0), Length: 1024}); err != nil {
		t.Fatal(err)
	}
	return cli
}

// waitClientSums polls the manager's snapshot until its client sums
// include want.
func waitClientSums(t *testing.T, mgr *Manager, want map[string]uint64) Snapshot {
	t.Helper()
	matches := func(s Snapshot) bool {
		for name, v := range want {
			if s.Client[name] != v {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !matches(mgr.Stats()) {
		time.Sleep(20 * time.Millisecond)
	}
	s := mgr.Stats()
	if !matches(s) {
		t.Fatalf("client sums = %v, want %v", s.Client, want)
	}
	return s
}

// statsCounters asks the manager for its stats over the wire and
// returns the response's counters by name, failing on a repeated name.
func statsCounters(t *testing.T, cli *bulk.Endpoint) (*wire.ClusterStatsResp, map[string]uint64) {
	t.Helper()
	resp, err := cli.Call("cmd", &wire.ClusterStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	st := resp.(*wire.ClusterStatsResp)
	byName := make(map[string]uint64)
	for _, k := range st.Counters {
		if _, dup := byName[k.Name]; dup {
			t.Fatalf("counter %q listed twice in %v", k.Name, st.Counters)
		}
		byName[k.Name] = k.Value
	}
	return st, byName
}

// TestKeepAliveAggregatesRecoveryCounters: keep-alive acks piggyback the
// client's cumulative recovery counters; the manager's snapshot sums
// them, and the totals survive the client being untracked.
func TestKeepAliveAggregatesRecoveryCounters(t *testing.T) {
	n := transport.NewNetwork()
	mgr := New(n.Host("cmd"), fastCfg())
	t.Cleanup(func() { mgr.Close() })
	imd := newFakeIMD(n, "imd1", 1<<20, 1)
	t.Cleanup(func() { imd.ep.Close() })
	reg := bulk.NewEndpoint(n.Host("rmd"), fastEndpointCfg(), nil)
	t.Cleanup(func() { reg.Close() })
	registerHost(t, reg, "cmd", "imd1", 1, 1<<20)

	cli := ackingClient(t, n, "client", 72, []wire.Counter{
		{Name: "drops", Value: 3}, {Name: "revalidations", Value: 2}, {Name: "reopens", Value: 1},
	}, nil)
	want := map[string]uint64{"drops": 3, "revalidations": 2, "reopens": 1}
	waitClientSums(t, mgr, want)
	// Free the last region: the client is untracked, but the cluster
	// totals must not drop (acks carry running totals, not deltas).
	if _, err := cli.Call("cmd", &wire.FreeReq{Key: key(72, 0)}); err != nil {
		t.Fatal(err)
	}
	s := mgr.Stats()
	if s.Clients != 0 {
		t.Fatalf("Clients = %d after last free, want 0", s.Clients)
	}
	for name, v := range want {
		if s.Client[name] != v {
			t.Fatalf("recovery totals lost on untrack: %v", s.Client)
		}
	}
}

// TestUnknownCounterIsSummed: a counter name the manager has never
// heard of is summed across clients and reported, with no manager
// change — the manager names only its own counters.
func TestUnknownCounterIsSummed(t *testing.T) {
	n := transport.NewNetwork()
	mgr := New(n.Host("cmd"), fastCfg())
	t.Cleanup(func() { mgr.Close() })
	imd := newFakeIMD(n, "imd1", 1<<20, 1)
	t.Cleanup(func() { imd.ep.Close() })
	reg := bulk.NewEndpoint(n.Host("rmd"), fastEndpointCfg(), nil)
	t.Cleanup(func() { reg.Close() })
	registerHost(t, reg, "cmd", "imd1", 1, 1<<20)

	ackingClient(t, n, "client-a", 81, []wire.Counter{{Name: "frobs_polished", Value: 5}, {Name: "drops", Value: 1}},
		[]wire.HostCount{{Addr: "imd1", Count: 2}})
	ackingClient(t, n, "client-b", 82, []wire.Counter{{Name: "frobs_polished", Value: 7}},
		[]wire.HostCount{{Addr: "imd1", Count: 1}, {Addr: "imd9", Count: 4}})
	waitClientSums(t, mgr, map[string]uint64{"frobs_polished": 12, "drops": 1})

	st, byName := statsCounters(t, reg)
	if byName["client.frobs_polished"] != 12 || byName["client.drops"] != 1 || byName["allocs"] != 2 {
		t.Fatalf("stats counters = %v", st.Counters)
	}
	for i := 1; i < len(st.Counters); i++ {
		if st.Counters[i-1].Name >= st.Counters[i].Name {
			t.Fatalf("stats counters not in name order: %v", st.Counters)
		}
	}
	want := []wire.HostCount{{Addr: "imd1", Count: 3}, {Addr: "imd9", Count: 4}}
	if !reflect.DeepEqual(st.CorruptHosts, want) {
		t.Fatalf("corrupt hosts = %v, want %v", st.CorruptHosts, want)
	}
}

func TestClusterStatsRPC(t *testing.T) {
	r := newRig(t)
	imd := newFakeIMD(r.n, "imd1", 1<<20, 4)
	t.Cleanup(func() { imd.ep.Close() })
	registerHost(t, r.cli, "cmd", "imd1", 4, 1<<20)
	if _, err := r.cli.Call("cmd", &wire.AllocReq{Key: key(60, 0), Length: 4096}); err != nil {
		t.Fatal(err)
	}
	resp, err := r.cli.Call("cmd", &wire.ClusterStatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	st := resp.(*wire.ClusterStatsResp)
	if st.Status != wire.StatusOK || len(st.Hosts) != 1 || st.Regions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if _, byName := statsCounters(t, r.cli); byName["allocs"] != 1 {
		t.Fatalf("stats counters = %v, want allocs 1", byName)
	}
	if st.Hosts[0].Addr != "imd1" || st.Hosts[0].Epoch != 4 {
		t.Fatalf("host row = %+v", st.Hosts[0])
	}
}
