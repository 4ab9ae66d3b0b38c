package imd

import (
	"sync"
	"testing"
	"time"

	"dodo/internal/bulk"
	"dodo/internal/simnet"
	"dodo/internal/usocket"
	"dodo/internal/wire"
)

// invCMD is a fake manager for the crash-recovery protocol: it stamps a
// settable incarnation into announce acks (simulating restarts by
// bumping it) and records the inventory re-reports that arrive.
type invCMD struct {
	ep *bulk.Endpoint

	mu       sync.Mutex
	inc      uint64
	statuses int
	reports  []wire.InventoryReport
}

func newInvCMD(tb testing.TB, seg *usocket.Segment, inc uint64) *invCMD {
	c := &invCMD{inc: inc}
	c.ep = bulk.NewEndpoint(host(tb, seg, "cmd"), fastEp(), func(from string, msg wire.Message) wire.Message {
		c.mu.Lock()
		defer c.mu.Unlock()
		switch m := msg.(type) {
		case *wire.HostStatus:
			c.statuses++
			return &wire.HostStatusAck{Status: wire.StatusOK, Incarnation: c.inc}
		case *wire.InventoryReport:
			c.reports = append(c.reports, *m)
			return &wire.InventoryAck{Status: wire.StatusOK, Incarnation: c.inc}
		default:
			_ = m
			return nil
		}
	})
	return c
}

func (c *invCMD) setIncarnation(inc uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inc = inc
}

func (c *invCMD) snapshot() (int, []wire.InventoryReport) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statuses, append([]wire.InventoryReport(nil), c.reports...)
}

// TestInventoryReportSurvivesLossyLink: an imd that learns of a manager
// restart through an announce ack must push its full inventory — keys,
// owners, write seqs — and keep retrying under its seeded backoff until
// the new incarnation acknowledges it, even when the link is dropping a
// third of all frames. First contact with an empty pool must NOT
// produce a report (there is nothing the manager could be missing).
func TestInventoryReportSurvivesLossyLink(t *testing.T) {
	seg := usocket.NewSegment()
	cmd := newInvCMD(t, seg, 1)
	d := New(host(t, seg, "imd1"), Config{
		ManagerAddr:    seg.Addr("cmd"),
		PoolSize:       1 << 20,
		Epoch:          3,
		StatusInterval: 50 * time.Millisecond,
		Endpoint:       fastEp(),
	})
	t.Cleanup(func() { d.Close(); cmd.ep.Close() })

	// Let a few announce cycles pass under incarnation 1.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st, _ := cmd.snapshot(); st >= 3 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, reports := cmd.snapshot(); len(reports) != 0 {
		t.Fatalf("first contact with an empty pool produced %d inventory reports, want 0", len(reports))
	}

	// Two regions with directory metadata, as the manager's alloc path
	// would create them.
	keyA := wire.RegionKey{Inode: 11, Offset: 0, ClientID: 1}
	keyB := wire.RegionKey{Inode: 11, Offset: 4096, ClientID: 1}
	for i, alloc := range []*wire.IMDAllocReq{
		{RegionID: 7, Length: 4096, Key: keyA, Client: "client-a"},
		{RegionID: 8, Length: 2048, Key: keyB, Client: "client-a"},
	} {
		resp, err := cmd.ep.Call(seg.Addr("imd1"), alloc)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if ar := resp.(*wire.IMDAllocResp); ar.Status != wire.StatusOK {
			t.Fatalf("alloc %d: status %v", i, ar.Status)
		}
	}

	// Manager "restarts" behind a lossy link: the next announce ack
	// carries incarnation 2, and the re-report must fight through the
	// loss until acked.
	seg.SetEndpointFaults(seg.Addr("imd1"), simnet.Faults{LossRate: 0.35, Seed: 7})
	defer seg.ClearEndpointFaults(seg.Addr("imd1"))
	cmd.setIncarnation(2)

	var got *wire.InventoryReport
	deadline = time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && got == nil {
		_, reports := cmd.snapshot()
		for i := range reports {
			if reports[i].Incarnation == 2 {
				got = &reports[i]
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got == nil {
		t.Fatal("no inventory report for incarnation 2 arrived over the lossy link")
	}
	if got.HostAddr != seg.Addr("imd1") || got.Epoch != 3 {
		t.Fatalf("report identity = %s/%d, want imd1/3", got.HostAddr, got.Epoch)
	}
	byID := make(map[uint64]wire.InventoryRegion)
	for _, r := range got.Regions {
		byID[r.RegionID] = r
	}
	if len(byID) != 2 {
		t.Fatalf("report carries %d regions, want 2: %+v", len(byID), got.Regions)
	}
	a, b := byID[7], byID[8]
	if a.Key != keyA || a.Client != "client-a" || a.Length != 4096 {
		t.Fatalf("region 7 metadata wrong: %+v", a)
	}
	if b.Key != keyB || b.Client != "client-a" || b.Length != 2048 {
		t.Fatalf("region 8 metadata wrong: %+v", b)
	}

	// The daemon records the acknowledged report; once acked it must not
	// re-report the same incarnation on later announce cycles.
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && d.Stats().InventoryReports == 0 {
		time.Sleep(10 * time.Millisecond)
	}
	if st := d.Stats(); st.InventoryReports == 0 {
		t.Fatalf("daemon never counted the acknowledged report: %+v", st)
	}
}
