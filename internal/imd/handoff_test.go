package imd

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dodo/internal/bulk"
	"dodo/internal/transport"
	"dodo/internal/wire"
)

// TestDrainHandsOffPagesToPeer exercises the imd's side of the handoff
// sub-protocol end to end against a real peer imd: Drain offers the
// resident regions, pushes each granted page over the bulk path, and
// reports per-region outcomes. Granted pages land byte-exact on the
// peer; regions without a grant die with the drain and produce no
// HandoffDone.
//
// The page travels as a push, then a request: exactly one offer, the
// page's data frames and one HandoffPage go to the peer, and nothing
// answers the offer.
func TestDrainHandsOffPagesToPeer(t *testing.T) {
	n := transport.NewNetwork(transport.WithMTU(1500))
	cmd := newFakeCMD(n)
	tap := &peerTap{Transport: n.Host("imd1"), peer: "imd2"}
	src := New(tap, Config{
		ManagerAddr: "cmd", PoolSize: 1 << 20, Epoch: 3,
		GraceWindow: 3 * time.Second, Endpoint: fastEp(),
	})
	dst := New(n.Host("imd2"), Config{
		ManagerAddr: "cmd", PoolSize: 1 << 20, Epoch: 5,
		Endpoint: fastEp(),
	})
	cli := bulk.NewEndpoint(n.Host("client"), fastEp(), nil)
	t.Cleanup(func() { src.Close(); dst.Close(); cli.Close(); cmd.ep.Close() })
	r := &rig{t: t, n: n, cmd: cmd, d: src, cli: cli, seq: map[uint64]uint64{}}

	// Two resident regions on the draining imd; only region 1 will be
	// granted a target.
	allocRegion(t, r, 1, 64<<10)
	allocRegion(t, r, 2, 4<<10)
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(41)).Read(data)
	writeRegion(t, r, 1, 0, data)
	writeRegion(t, r, 2, 0, bytes.Repeat([]byte{7}, 4<<10))

	// Pre-allocate region 1's destination on the peer, playing the
	// manager's placement step, and stage the grant.
	resp, err := cmd.ep.Call("imd2", &wire.IMDAllocReq{RegionID: 901, Length: 64 << 10})
	if err != nil {
		t.Fatalf("target alloc: %v", err)
	}
	tr := resp.(*wire.IMDAllocResp)
	if tr.Status != wire.StatusOK {
		t.Fatalf("target alloc = %v", tr.Status)
	}
	cmd.setGrant(1, wire.Region{
		HostAddr: "imd2", RegionID: 901, PoolOffset: tr.PoolOffset,
		Length: 64 << 10, Epoch: tr.Epoch,
	})

	src.Drain()

	// The offer carried both regions under the draining identity.
	offers := cmd.offersSeen()
	if len(offers) != 1 {
		t.Fatalf("offers = %d, want 1", len(offers))
	}
	if offers[0].HostAddr != "imd1" || offers[0].Epoch != 3 || len(offers[0].Regions) != 2 {
		t.Fatalf("offer = %+v", offers[0])
	}
	// Exactly the granted region reported done, successfully.
	dones := cmd.handoffOutcomes()
	if len(dones) != 1 {
		t.Fatalf("HandoffDone reports = %+v, want exactly one", dones)
	}
	if dones[0].HostAddr != "imd1" || dones[0].OldRegionID != 1 || dones[0].Status != wire.StatusOK {
		t.Fatalf("HandoffDone = %+v", dones[0])
	}
	if s := src.Stats(); s.PagesHandedOff != 1 || s.HandoffAborts != 0 {
		t.Fatalf("drained imd stats = %+v", s)
	}
	toPeer, fromPeer, sends := tap.counts()
	frames := (64<<10 + src.ep.ChunkSize() - 1) / src.ep.ChunkSize()
	for _, c := range []struct {
		what      string
		got, want int
	}{
		{"BulkOffer sent", toPeer[wire.TBulkOffer], 1},
		{"BulkData sent", toPeer[wire.TBulkData], frames},
		{"HandoffPage sent", toPeer[wire.THandoffPage], 1},
		{"frames sent", sends, frames + 2},
		{"BulkAccept received", fromPeer[wire.TBulkAccept], 0},
	} {
		if c.got != c.want {
			t.Errorf("page handoff: %s to the peer = %d, want %d", c.what, c.got, c.want)
		}
	}

	// The page is byte-exact on the peer, readable as a normal region.
	p, err := startRead(cli, "imd2", 901, tr.Epoch, 0, 64<<10)
	if err != nil {
		t.Fatalf("read from peer: %v", err)
	}
	if p.dr.Status != wire.StatusOK || p.dr.Count != 64<<10 {
		t.Fatalf("peer read = %+v", p.dr)
	}
	got, err := p.finish()
	if err != nil {
		t.Fatalf("read from peer: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("handed-off page differs from the source bytes")
	}
}

// TestHandoffPageRefusedOutsideDrain: the target-side HandoffPage
// handler enforces the same epoch gate as client writes, and a
// duplicate announcement for an already-applied handoff is confirmed
// without a second transfer (the bulk layer would have consumed it).
func TestHandoffPageStaleEpochRejected(t *testing.T) {
	r := newRig(t, 1<<20)
	allocRegion(t, r, 1, 4096)
	resp, err := r.cli.Call("imd1", &wire.HandoffPage{RegionID: 1, Epoch: 2, Length: 4096, TransferID: 99})
	if err != nil {
		t.Fatal(err)
	}
	if st := resp.(*wire.DataResp).Status; st != wire.StatusStale {
		t.Fatalf("stale-epoch HandoffPage = %v, want StatusStale", st)
	}
}

// peerTap counts, by the type byte of their header, the frames a
// daemon's transport exchanges with one peer (so that a reserved type no
// decoder takes is counted too). It is no VecSender, so every frame the
// daemon sends passes through Send.
type peerTap struct {
	transport.Transport
	peer string

	mu          sync.Mutex
	sent, recvd [256]int
	sends       int
}

func (t *peerTap) Send(to string, frame []byte) error {
	if to == t.peer && len(frame) >= wire.HeaderSize {
		t.mu.Lock()
		t.sent[frame[3]]++
		t.sends++
		t.mu.Unlock()
	}
	return t.Transport.Send(to, frame)
}

func (t *peerTap) Recv(timeout time.Duration) ([]byte, string, error) {
	frame, from, err := t.Transport.Recv(timeout)
	if err == nil && from == t.peer && len(frame) >= wire.HeaderSize {
		t.mu.Lock()
		t.recvd[frame[3]]++
		t.mu.Unlock()
	}
	return frame, from, err
}

func (t *peerTap) counts() (sent, recvd [256]int, sends int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sent, t.recvd, t.sends
}
