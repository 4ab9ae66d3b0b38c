package manager

import (
	"testing"
	"time"

	"dodo/internal/bulk"
	"dodo/internal/usocket"
	"dodo/internal/wire"
)

// handoffRig is a rig with a tunable handoff grace window.
func handoffRig(t *testing.T, grace time.Duration) *testRig {
	t.Helper()
	seg := usocket.NewSegment()
	cfg := fastCfg()
	cfg.HandoffGrace = grace
	mgr := New(host(t, seg, "cmd"), cfg)
	cli := bulk.NewEndpoint(host(t, seg, "client"), fastEndpointCfg(), clientHandler)
	t.Cleanup(func() { mgr.Close(); cli.Close() })
	return &testRig{seg: seg, mgr: mgr, cli: cli}
}

// drainHost sends the HostBusy announcement that opens the graceful
// reclaim overlay for addr.
func drainHost(t *testing.T, r *testRig, addr string, epoch uint64) {
	t.Helper()
	resp, err := r.cli.Call(r.seg.Addr("cmd"), &wire.HostStatus{HostAddr: addr, State: wire.HostBusy, Epoch: epoch})
	if err != nil || resp.(*wire.HostStatusAck).Status != wire.StatusOK {
		t.Fatalf("HostBusy announce: %v", err)
	}
}

func checkAlloc(t *testing.T, r *testRig, k wire.RegionKey) *wire.CheckAllocResp {
	t.Helper()
	resp, err := r.cli.Call(r.seg.Addr("cmd"), &wire.CheckAllocReq{Key: k})
	if err != nil {
		t.Fatalf("CheckAllocReq: %v", err)
	}
	return resp.(*wire.CheckAllocResp)
}

// TestHandoffRepointsRegionDirectory walks the whole manager-side
// sub-protocol: HostBusy opens the overlay (checkAlloc answers Busy,
// not Stale), HandoffOffer pre-allocates a target on the peer and
// returns the grant, HandoffDone atomically repoints the RD row, and
// the next checkAlloc revalidates the client onto the new host with the
// Fresh flag set.
func TestHandoffRepointsRegionDirectory(t *testing.T) {
	r := handoffRig(t, 10*time.Second)
	src := newFakeIMD(t, r.seg, "imd1", 1<<20, 2)
	t.Cleanup(func() { src.ep.Close() })
	registerHost(t, r.cli, r.seg.Addr("cmd"), r.seg.Addr("imd1"), 2, 1<<20)

	k := key(4, 0)
	resp, err := r.cli.Call(r.seg.Addr("cmd"), &wire.AllocReq{Key: k, Length: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ar := resp.(*wire.AllocResp)
	if ar.Status != wire.StatusOK || ar.Region.HostAddr != r.seg.Addr("imd1") {
		t.Fatalf("alloc = %+v", ar)
	}

	// The peer arrives after the allocation, so it holds nothing yet.
	dst := newFakeIMD(t, r.seg, "imd2", 1<<20, 9)
	t.Cleanup(func() { dst.ep.Close() })
	registerHost(t, r.cli, r.seg.Addr("cmd"), r.seg.Addr("imd2"), 9, 1<<20)

	drainHost(t, r, r.seg.Addr("imd1"), 2)
	if ca := checkAlloc(t, r, k); ca.Status != wire.StatusBusy {
		t.Fatalf("checkAlloc during drain = %v, want StatusBusy", ca.Status)
	}

	// The draining imd offers its region; the grant must target imd2
	// with a real pre-allocation behind it.
	resp, err = r.cli.Call(r.seg.Addr("cmd"), &wire.HandoffOffer{
		HostAddr: r.seg.Addr("imd1"), Epoch: 2,
		Regions: []wire.HandoffRegion{{RegionID: ar.Region.RegionID, Length: 4096, Reads: 12}},
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := resp.(*wire.HandoffAccept)
	if acc.Status != wire.StatusOK || len(acc.Grants) != 1 {
		t.Fatalf("HandoffAccept = %+v", acc)
	}
	g := acc.Grants[0]
	if g.OldRegionID != ar.Region.RegionID || g.Target.HostAddr != r.seg.Addr("imd2") || g.Target.Epoch != 9 {
		t.Fatalf("grant = %+v", g)
	}
	if !dst.has(g.Target.RegionID) {
		t.Fatal("manager granted a target it never allocated on the peer")
	}
	// The map holds until the outcome arrives.
	if ca := checkAlloc(t, r, k); ca.Status != wire.StatusBusy {
		t.Fatalf("checkAlloc after offer = %v, want StatusBusy", ca.Status)
	}

	resp, err = r.cli.Call(r.seg.Addr("cmd"), &wire.HandoffDone{HostAddr: r.seg.Addr("imd1"), OldRegionID: g.OldRegionID, Status: wire.StatusOK})
	if err != nil || resp.(*wire.HostStatusAck).Status != wire.StatusOK {
		t.Fatalf("HandoffDone: %v", err)
	}
	ca := checkAlloc(t, r, k)
	if ca.Status != wire.StatusOK || !ca.Fresh || ca.Region != g.Target {
		t.Fatalf("checkAlloc after repoint = %+v, want OK/Fresh on %+v", ca, g.Target)
	}
	s := r.mgr.Stats()
	if s.HandoffOffers != 1 || s.HandoffPagesMoved != 1 || s.HandoffAborts != 0 || s.StaleDrops != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if sched := r.mgr.HandoffSchedule(); len(sched) != 1 {
		t.Fatalf("HandoffSchedule = %v, want one entry", sched)
	}
}

// TestHandoffAbortFreesTargetAndExpiresToStale: a failed push aborts
// the grant (target freed on the peer), and once the overlay deadline
// passes, checkAlloc falls back to the stale-drop path so the client
// re-opens from disk instead of waiting forever.
func TestHandoffAbortFreesTargetAndExpiresToStale(t *testing.T) {
	r := handoffRig(t, 400*time.Millisecond)
	src := newFakeIMD(t, r.seg, "imd1", 1<<20, 2)
	t.Cleanup(func() { src.ep.Close() })
	registerHost(t, r.cli, r.seg.Addr("cmd"), r.seg.Addr("imd1"), 2, 1<<20)
	k := key(5, 0)
	resp, err := r.cli.Call(r.seg.Addr("cmd"), &wire.AllocReq{Key: k, Length: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ar := resp.(*wire.AllocResp)
	dst := newFakeIMD(t, r.seg, "imd2", 1<<20, 9)
	t.Cleanup(func() { dst.ep.Close() })
	registerHost(t, r.cli, r.seg.Addr("cmd"), r.seg.Addr("imd2"), 9, 1<<20)

	drainHost(t, r, r.seg.Addr("imd1"), 2)
	resp, err = r.cli.Call(r.seg.Addr("cmd"), &wire.HandoffOffer{
		HostAddr: r.seg.Addr("imd1"), Epoch: 2,
		Regions: []wire.HandoffRegion{{RegionID: ar.Region.RegionID, Length: 4096}},
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := resp.(*wire.HandoffAccept)
	if acc.Status != wire.StatusOK || len(acc.Grants) != 1 {
		t.Fatalf("HandoffAccept = %+v", acc)
	}
	tgt := acc.Grants[0].Target

	// The push failed; the imd reports the abort.
	if _, err := r.cli.Call(r.seg.Addr("cmd"), &wire.HandoffDone{
		HostAddr: r.seg.Addr("imd1"), OldRegionID: ar.Region.RegionID, Status: wire.StatusBusy,
	}); err != nil {
		t.Fatal(err)
	}
	// The pre-allocated target is released on the peer (async notify).
	deadline := time.Now().Add(2 * time.Second)
	for dst.has(tgt.RegionID) {
		if time.Now().After(deadline) {
			t.Fatal("aborted grant's target region never freed on the peer")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s := r.mgr.Stats(); s.HandoffAborts != 1 || s.HandoffPagesMoved != 0 {
		t.Fatalf("stats after abort = %+v", s)
	}

	// Within the grace window the mapping still answers Busy; after it
	// expires the region is stale-dropped.
	deadline = time.Now().Add(5 * time.Second)
	for {
		ca := checkAlloc(t, r, k)
		if ca.Status == wire.StatusStale {
			break
		}
		if ca.Status != wire.StatusBusy {
			t.Fatalf("checkAlloc = %v, want Busy then Stale", ca.Status)
		}
		if time.Now().After(deadline) {
			t.Fatal("overlay never expired to the stale-drop path")
		}
		time.Sleep(25 * time.Millisecond)
	}
	if s := r.mgr.Stats(); s.StaleDrops != 1 {
		t.Fatalf("StaleDrops = %d, want 1", s.StaleDrops)
	}
}

// grantOne sets up the standard two-host drain scene on r: imd1
// (epoch 2) holds one allocated region, imd2 (epoch 9) arrives after
// the allocation, imd1 announces Busy and offers its region, and the
// manager grants a pre-allocated target on imd2. Returns the region
// key, the old region id, the grant, and the peer imd.
func grantOne(t *testing.T, r *testRig) (wire.RegionKey, uint64, wire.HandoffGrant, *fakeIMD) {
	t.Helper()
	src := newFakeIMD(t, r.seg, "imd1", 1<<20, 2)
	t.Cleanup(func() { src.ep.Close() })
	registerHost(t, r.cli, r.seg.Addr("cmd"), r.seg.Addr("imd1"), 2, 1<<20)
	k := key(6, 0)
	resp, err := r.cli.Call(r.seg.Addr("cmd"), &wire.AllocReq{Key: k, Length: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ar := resp.(*wire.AllocResp)
	if ar.Status != wire.StatusOK || ar.Region.HostAddr != r.seg.Addr("imd1") {
		t.Fatalf("alloc = %+v", ar)
	}
	dst := newFakeIMD(t, r.seg, "imd2", 1<<20, 9)
	t.Cleanup(func() { dst.ep.Close() })
	registerHost(t, r.cli, r.seg.Addr("cmd"), r.seg.Addr("imd2"), 9, 1<<20)
	drainHost(t, r, r.seg.Addr("imd1"), 2)
	resp, err = r.cli.Call(r.seg.Addr("cmd"), &wire.HandoffOffer{
		HostAddr: r.seg.Addr("imd1"), Epoch: 2,
		Regions: []wire.HandoffRegion{{RegionID: ar.Region.RegionID, Length: 4096}},
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := resp.(*wire.HandoffAccept)
	if acc.Status != wire.StatusOK || len(acc.Grants) != 1 {
		t.Fatalf("HandoffAccept = %+v", acc)
	}
	if !dst.has(acc.Grants[0].Target.RegionID) {
		t.Fatal("grant has no pre-allocation behind it")
	}
	return k, ar.Region.RegionID, acc.Grants[0], dst
}

// TestDuplicateHostBusyKeepsGrants: the HostBusy announce travels via
// ep.Call, which retransmits — a delayed duplicate arriving after the
// HandoffOffer registered grants must not replace the overlay (that
// would wipe the grants map, so the HandoffDone below would find
// nothing to repoint and the pre-allocated target would leak).
func TestDuplicateHostBusyKeepsGrants(t *testing.T) {
	r := handoffRig(t, 10*time.Second)
	k, oldID, g, dst := grantOne(t, r)

	// The delayed duplicate of the original announce lands now.
	drainHost(t, r, r.seg.Addr("imd1"), 2)

	resp, err := r.cli.Call(r.seg.Addr("cmd"), &wire.HandoffDone{HostAddr: r.seg.Addr("imd1"), OldRegionID: oldID, Status: wire.StatusOK})
	if err != nil || resp.(*wire.HostStatusAck).Status != wire.StatusOK {
		t.Fatalf("HandoffDone after duplicate announce: %v (ack %+v)", err, resp)
	}
	ca := checkAlloc(t, r, k)
	if ca.Status != wire.StatusOK || !ca.Fresh || ca.Region != g.Target {
		t.Fatalf("checkAlloc after repoint = %+v, want OK/Fresh on %+v", ca, g.Target)
	}
	if !dst.has(g.Target.RegionID) {
		t.Fatal("repointed target region is gone on the peer")
	}
	if s := r.mgr.Stats(); s.HandoffPagesMoved != 1 || s.HandoffAborts != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestReRecruitFreesUnresolvedGrants: when the draining host comes back
// idle (new epoch) before its handoff resolves, discarding the overlay
// must free the grants' pre-allocated targets on the peers — otherwise
// each would hold pool space until the peer churned.
func TestReRecruitFreesUnresolvedGrants(t *testing.T) {
	r := handoffRig(t, 10*time.Second)
	_, _, g, dst := grantOne(t, r)

	// The drain died with the old incarnation; the host re-recruits.
	registerHost(t, r.cli, r.seg.Addr("cmd"), r.seg.Addr("imd1"), 3, 1<<20)
	deadline := time.Now().Add(2 * time.Second)
	for dst.has(g.Target.RegionID) {
		if time.Now().After(deadline) {
			t.Fatal("unresolved grant's target never freed after re-recruit")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s := r.mgr.Stats(); s.HandoffAborts != 1 {
		t.Fatalf("HandoffAborts = %d, want 1", s.HandoffAborts)
	}
}

// TestExpiredOverlaySweepFreesGrants: when the imd goes silent after
// the offer (e.g. the HandoffAccept response was lost, so it never
// pushes a page or reports an outcome) and no client checkAllocs the
// host's regions, the keep-alive sweep must still discard the expired
// overlay and free the pre-allocated targets.
func TestExpiredOverlaySweepFreesGrants(t *testing.T) {
	r := handoffRig(t, 300*time.Millisecond)
	_, _, g, dst := grantOne(t, r)

	// No HandoffDone, no checkAlloc traffic: only the sweep can notice.
	deadline := time.Now().Add(5 * time.Second)
	for dst.has(g.Target.RegionID) {
		if time.Now().After(deadline) {
			t.Fatal("expired overlay's grant target never freed by the sweep")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if s := r.mgr.Stats(); s.HandoffAborts != 1 {
		t.Fatalf("HandoffAborts = %d, want 1", s.HandoffAborts)
	}
}

// TestHandoffOfferRequiresDrainingIdentity: offers from hosts that are
// not mid-drain (never announced Busy, wrong epoch, or re-recruited
// since) are refused with StatusStale and place nothing.
func TestHandoffOfferRequiresDrainingIdentity(t *testing.T) {
	r := handoffRig(t, 10*time.Second)
	dst := newFakeIMD(t, r.seg, "imd2", 1<<20, 9)
	t.Cleanup(func() { dst.ep.Close() })
	registerHost(t, r.cli, r.seg.Addr("cmd"), r.seg.Addr("imd2"), 9, 1<<20)

	offer := &wire.HandoffOffer{HostAddr: r.seg.Addr("imd1"), Epoch: 2,
		Regions: []wire.HandoffRegion{{RegionID: 1, Length: 4096}}}

	// Never announced busy.
	resp, err := r.cli.Call(r.seg.Addr("cmd"), offer)
	if err != nil {
		t.Fatal(err)
	}
	if acc := resp.(*wire.HandoffAccept); acc.Status != wire.StatusStale || len(acc.Grants) != 0 {
		t.Fatalf("offer from non-draining host = %+v", acc)
	}

	// Draining, but the offer carries a previous incarnation's epoch.
	drainHost(t, r, r.seg.Addr("imd1"), 3)
	resp, err = r.cli.Call(r.seg.Addr("cmd"), offer)
	if err != nil {
		t.Fatal(err)
	}
	if acc := resp.(*wire.HandoffAccept); acc.Status != wire.StatusStale {
		t.Fatalf("stale-epoch offer = %+v", acc)
	}

	// Re-recruited: the overlay is gone, a late offer is refused.
	registerHost(t, r.cli, r.seg.Addr("cmd"), r.seg.Addr("imd1"), 4, 1<<20)
	resp, err = r.cli.Call(r.seg.Addr("cmd"), &wire.HandoffOffer{HostAddr: r.seg.Addr("imd1"), Epoch: 3,
		Regions: []wire.HandoffRegion{{RegionID: 1, Length: 4096}}})
	if err != nil {
		t.Fatal(err)
	}
	if acc := resp.(*wire.HandoffAccept); acc.Status != wire.StatusStale {
		t.Fatalf("offer after re-recruit = %+v", acc)
	}
	if dst.regions() != 0 {
		t.Fatal("refused offers still allocated target regions")
	}
	if s := r.mgr.Stats(); s.HandoffOffers != 0 {
		t.Fatalf("refused offers counted: %+v", s)
	}
}
