package cluster

import (
	"fmt"
	"testing"
	"time"

	"dodo/internal/bulk"
	"dodo/internal/faults"
	"dodo/internal/imd"
	"dodo/internal/manager"
	"dodo/internal/monitor"
	"dodo/internal/sim"
	"dodo/internal/wire"
)

// mgrSweepPlan layers manager crash/restart windows on the standard
// churn plan: the directory dies and rebuilds mid-workload.
func mgrSweepPlan(hosts []string) faults.Plan {
	p := sweepPlan(hosts)
	p.MgrCrashMean = 1000 * time.Millisecond
	p.MgrRestartDelay = 300 * time.Millisecond
	return p
}

// mgrSweepCluster is sweepCluster with fast announce and rebuild
// cadences, so inventory re-reports and client revalidation converge
// inside the test's settle windows.
func mgrSweepCluster(t *testing.T) (*Cluster, []*Workstation, []string) {
	t.Helper()
	c := New(Config{
		PoolBytes: 1 << 20,
		Monitor:   monitor.Config{IdleAfter: 2 * time.Second},
		Endpoint:  fastEp(),
		Manager: manager.Config{
			KeepAliveInterval: 200 * time.Millisecond,
			KeepAliveMisses:   8,
			RebuildGrace:      600 * time.Millisecond,
		},
		IMD: imd.Config{StatusInterval: 100 * time.Millisecond},
	})
	t.Cleanup(func() { c.Close() })
	names := []string{"ws0", "ws1", "ws2"}
	var stations []*Workstation
	for _, name := range names {
		w := c.AddWorkstation(name, AlwaysIdle())
		driveIdle(w, 3)
		stations = append(stations, w)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && c.Manager().Stats().IdleHosts < len(names) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := c.Manager().Stats().IdleHosts; got != len(names) {
		t.Fatalf("idle hosts = %d, want %d", got, len(names))
	}
	return c, stations, names
}

// validateRegionDirectory cross-checks every RD row against what the
// imds actually hold: a row whose host runs a live imd under the row's
// epoch must be backed by a real region there. A row with a mismatched
// epoch is lazily-cleaned stale state (it exists without manager
// crashes too) — but a live-epoch row without a backing region is
// dead-incarnation residue the rebuild failed to fence.
func validateRegionDirectory(mgr *manager.Manager, stations []*Workstation) error {
	byAddr := make(map[string]*Workstation, len(stations))
	for _, w := range stations {
		byAddr[w.IMDAddr()] = w
	}
	for _, row := range mgr.RegionRows() {
		w := byAddr[row.HostAddr]
		if w == nil {
			return fmt.Errorf("RD row points at unknown host %s", row.HostAddr)
		}
		d := w.IMD()
		if d == nil || d.Epoch() != row.Epoch {
			continue
		}
		if !d.HoldsRegion(row.RegionID) {
			return fmt.Errorf("dead RD row: %s region %d not held by the live imd", row.HostAddr, row.RegionID)
		}
	}
	return nil
}

// TestManagerCrashRecovery is the crash-recovery acceptance sweep: the
// standard three-pattern workload runs while a seeded schedule crashes
// and restarts the central manager (on top of imd crashes, blackouts,
// reclaims and link faults). Every byte must stay correct (runSweepCore
// verifies backing files against shadows — zero lost acknowledged
// writes), and once churn subsides: the manager runs a later
// incarnation with a directory rebuilt from imd inventory re-reports,
// every client has revalidated onto it, and no directory row points at
// a region that does not exist.
func TestManagerCrashRecovery(t *testing.T) {
	c, stations, names := mgrSweepCluster(t)
	cli, _, _ := runSweepCore(t, c, mgrSweepPlan(names))

	finalInc := c.ManagerIncarnation()
	if finalInc < 2 {
		t.Fatalf("manager incarnation = %d; the plan never crashed the manager", finalInc)
	}
	mgr := c.Manager()
	if mgr == nil {
		t.Fatal("manager not running after a completed (self-healing) schedule")
	}
	if got := mgr.Stats().Incarnation; got != finalInc {
		t.Fatalf("manager reports incarnation %d, harness says %d", got, finalInc)
	}

	// The rebuilt directory came from inventory re-reports.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && mgr.Stats().InventoryReports == 0 {
		time.Sleep(20 * time.Millisecond)
	}
	if st := mgr.Stats(); st.InventoryReports == 0 {
		t.Fatalf("no inventory re-reports reached the final incarnation: %+v", st)
	}

	// Every client revalidated: the runtime adopted the final
	// incarnation and its recovery pass probed the rebuilt directory.
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := cli.Stats()
		if st.ManagerIncarnation == finalInc && st.Revalidations > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := cli.Stats(); st.ManagerIncarnation != finalInc || st.Revalidations == 0 {
		t.Fatalf("client never revalidated onto incarnation %d: %+v", finalInc, st)
	}

	// Zero dead-incarnation RD rows. Retried briefly: the recovery loop
	// may still be converging when the first snapshot is cut.
	deadline = time.Now().Add(5 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		if lastErr = validateRegionDirectory(mgr, stations); lastErr == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if lastErr != nil {
		t.Fatalf("region directory never converged: %v", lastErr)
	}
	t.Logf("final manager stats: %+v", mgr.Stats())
}

// TestManagerCrashScheduleDeterministic: a plan with manager crash
// windows replayed against two freshly built live clusters applies the
// identical timeline and counts, crashes the manager at least once, and
// leaves both deployments with a live manager at the same incarnation.
func TestManagerCrashScheduleDeterministic(t *testing.T) {
	plan := mgrSweepPlan([]string{"ws0", "ws1", "ws2"})

	replay := func() (string, faults.Counts, *Cluster) {
		c, _, _ := mgrSweepCluster(t)
		s := faults.NewScheduler(plan, sim.NewVirtualClock(t0), c.FaultTarget())
		for el := time.Duration(0); el <= plan.Duration; el += 25 * time.Millisecond {
			s.Step(el)
		}
		if s.Remaining() != 0 {
			t.Fatalf("%d events left unapplied", s.Remaining())
		}
		return faults.Timeline(s.Events()), s.Counts(), c
	}
	tl1, c1, cl1 := replay()
	tl2, c2, cl2 := replay()
	if tl1 != tl2 {
		t.Fatalf("same seed, different timelines:\n--- run 1\n%s--- run 2\n%s", tl1, tl2)
	}
	if c1 != c2 {
		t.Fatalf("same seed, different counts: %v vs %v", c1, c2)
	}
	if c1.MgrCrashes == 0 || c1.MgrCrashes != c1.MgrRestarts {
		t.Fatalf("plan applied %d manager crashes / %d restarts; want a balanced nonzero pair", c1.MgrCrashes, c1.MgrRestarts)
	}
	for i, c := range []*Cluster{cl1, cl2} {
		if c.Manager() == nil {
			t.Fatalf("run %d: manager not running after a completed schedule", i+1)
		}
		if got := c.ManagerIncarnation(); got != uint64(1+c1.MgrCrashes) {
			t.Fatalf("run %d: incarnation %d after %d crashes", i+1, got, c1.MgrCrashes)
		}
	}
}

// TestIncarnationFencing: after a crash+restart, frames stamped with
// the dead incarnation are refused with StatusStale (carrying the live
// incarnation so the sender can converge) and leave no trace in the
// directory — no IWD row, no RD row. The same frames re-sent under the
// live incarnation are accepted.
func TestIncarnationFencing(t *testing.T) {
	c, _, _ := sweepCluster(t)
	c.CrashManager()
	c.RestartManager()
	if inc := c.ManagerIncarnation(); inc != 2 {
		t.Fatalf("incarnation after one crash+restart = %d, want 2", inc)
	}
	mgr := c.Manager()

	tr, err := c.Segment().Host("probe")
	if err != nil {
		t.Fatal(err)
	}
	probe := bulk.NewEndpoint(tr, fastEp(), nil)
	t.Cleanup(func() { probe.Close() })
	ghost := c.Segment().Addr("ghost")

	ghostStatus := func(inc uint64) *wire.HostStatusAck {
		resp, err := probe.Call(c.ManagerAddr(), &wire.HostStatus{
			HostAddr: ghost, State: wire.HostIdle, Epoch: 9,
			AvailBytes: 1 << 20, LargestFree: 1 << 20, Incarnation: inc,
		})
		if err != nil {
			t.Fatalf("HostStatus(inc=%d): %v", inc, err)
		}
		return resp.(*wire.HostStatusAck)
	}
	ghostInIWD := func() bool {
		resp, err := probe.Call(c.ManagerAddr(), &wire.ClusterStatsReq{})
		if err != nil {
			t.Fatalf("ClusterStatsReq: %v", err)
		}
		for _, h := range resp.(*wire.ClusterStatsResp).Hosts {
			if h.Addr == ghost {
				return true
			}
		}
		return false
	}

	// Dead-incarnation announce: fenced, not admitted.
	if ack := ghostStatus(1); ack.Status != wire.StatusStale || ack.Incarnation != 2 {
		t.Fatalf("dead-incarnation announce ack = %+v, want Stale under incarnation 2", ack)
	}
	if ghostInIWD() {
		t.Fatal("fenced announce still admitted the host to the IWD")
	}

	// Dead-incarnation inventory: fenced, no RD rows built.
	key := wire.RegionKey{Inode: 77, Offset: 0, ClientID: 9}
	inv := &wire.InventoryReport{
		HostAddr: ghost, Epoch: 9, Incarnation: 1,
		AvailBytes: 1 << 20, LargestFree: 1 << 20,
		Regions: []wire.InventoryRegion{{RegionID: 41, Length: 4096, Key: key, Client: c.Segment().Addr("nobody")}},
	}
	resp, err := probe.Call(c.ManagerAddr(), inv)
	if err != nil {
		t.Fatalf("InventoryReport: %v", err)
	}
	if ack := resp.(*wire.InventoryAck); ack.Status != wire.StatusStale || ack.Incarnation != 2 {
		t.Fatalf("dead-incarnation inventory ack = %+v, want Stale under incarnation 2", ack)
	}
	for _, row := range mgr.RegionRows() {
		if row.HostAddr == ghost {
			t.Fatalf("fenced inventory still built RD row %+v", row)
		}
	}
	if st := mgr.Stats(); st.FencedRequests < 2 {
		t.Fatalf("FencedRequests = %d, want at least the 2 probes", st.FencedRequests)
	}

	// The Stale acks named the live incarnation; re-sending under it is
	// accepted — the convergence path every fenced imd follows.
	if ack := ghostStatus(2); ack.Status != wire.StatusOK || ack.Incarnation != 2 {
		t.Fatalf("live-incarnation announce ack = %+v, want OK", ack)
	}
	if !ghostInIWD() {
		t.Fatal("live-incarnation announce did not admit the host")
	}
}
