package imd

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dodo/internal/bulk"
	"dodo/internal/transport"
	"dodo/internal/usocket"
	"dodo/internal/wire"
)

// fastEp keeps protocol timers short, and announces a receive window
// of half a host's ring, which holds a window with its offer and the
// control frames around it: the ring overflows only when others send
// to the host at the same time.
func fastEp() bulk.Config {
	return bulk.Config{
		CallTimeout:   150 * time.Millisecond,
		CallRetries:   4,
		WindowTimeout: 80 * time.Millisecond,
		NackDelay:     30 * time.Millisecond,
		RecvWindow:    usocket.HostRing / 2,
	}
}

// fakeCMD records host status reports and plays the manager's side of
// the graceful-reclaim handoff: offers are answered with the grants
// staged via setGrant, outcomes are recorded in arrival order.
type fakeCMD struct {
	ep *bulk.Endpoint
	mu sync.Mutex
	// statuses in arrival order
	statuses []wire.HostStatus
	// grants maps an offered region id to its pre-allocated target.
	grants map[uint64]wire.Region
	offers []wire.HandoffOffer
	dones  []wire.HandoffDone
}

func newFakeCMD(tb testing.TB, seg *usocket.Segment) *fakeCMD {
	return newFakeCMDOver(host(tb, seg, "cmd"))
}

// newFakeCMDOver is newFakeCMD on transport tr.
func newFakeCMDOver(tr transport.Transport) *fakeCMD {
	c := &fakeCMD{grants: map[uint64]wire.Region{}}
	c.ep = bulk.NewEndpoint(tr, fastEp(), func(from string, msg wire.Message) wire.Message {
		if hs, ok := msg.(*wire.HostStatus); ok {
			c.mu.Lock()
			c.statuses = append(c.statuses, *hs)
			c.mu.Unlock()
			return &wire.HostStatusAck{Status: wire.StatusOK}
		}
		if off, ok := msg.(*wire.HandoffOffer); ok {
			acc := &wire.HandoffAccept{Status: wire.StatusOK}
			c.mu.Lock()
			c.offers = append(c.offers, *off)
			for _, r := range off.Regions {
				if tgt, ok := c.grants[r.RegionID]; ok {
					acc.Grants = append(acc.Grants, wire.HandoffGrant{OldRegionID: r.RegionID, Target: tgt})
				}
			}
			c.mu.Unlock()
			return acc
		}
		if dn, ok := msg.(*wire.HandoffDone); ok {
			c.mu.Lock()
			c.dones = append(c.dones, *dn)
			c.mu.Unlock()
			return &wire.HostStatusAck{Status: wire.StatusOK}
		}
		return nil
	})
	return c
}

// setGrant stages the target the next HandoffOffer mentioning oldID
// will be granted.
func (c *fakeCMD) setGrant(oldID uint64, target wire.Region) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.grants[oldID] = target
}

// handoffOutcomes snapshots the recorded HandoffDone reports.
func (c *fakeCMD) handoffOutcomes() []wire.HandoffDone {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]wire.HandoffDone(nil), c.dones...)
}

// offersSeen snapshots the recorded HandoffOffers.
func (c *fakeCMD) offersSeen() []wire.HandoffOffer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]wire.HandoffOffer(nil), c.offers...)
}

func (c *fakeCMD) lastStatus() (wire.HostStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.statuses) == 0 {
		return wire.HostStatus{}, false
	}
	return c.statuses[len(c.statuses)-1], true
}

// host opens the named host on seg. Whoever wraps it closes it; the
// cleanup closes a host nobody wraps.
func host(tb testing.TB, seg *usocket.Segment, name string) *usocket.UNet {
	tb.Helper()
	tr, err := seg.Host(name)
	if err != nil {
		tb.Fatalf("Host(%q): %v", name, err)
	}
	tb.Cleanup(func() { tr.Close() })
	return tr
}

type rig struct {
	t   testing.TB
	seg *usocket.Segment
	cmd *fakeCMD
	d   *Daemon
	cli *bulk.Endpoint
	// seq numbers the rig's writes per region, as a client does.
	seq map[uint64]uint64
}

func newRig(t testing.TB, poolSize uint64) *rig {
	t.Helper()
	seg := usocket.NewSegment()
	return newRigOver(t, seg, host(t, seg, "imd1"), poolSize)
}

// newRigOver is newRig on segment seg, with the daemon on tr (which
// must be seg's host "imd1").
func newRigOver(t testing.TB, seg *usocket.Segment, tr transport.Transport, poolSize uint64) *rig {
	t.Helper()
	cmd := newFakeCMD(t, seg)
	d := New(tr, Config{
		ManagerAddr:    seg.Addr("cmd"),
		PoolSize:       poolSize,
		Epoch:          3,
		StatusInterval: 50 * time.Millisecond,
		Endpoint:       fastEp(),
	})
	cli := bulk.NewEndpoint(host(t, seg, "client"), fastEp(), nil)
	t.Cleanup(func() { d.Close(); cli.Close(); cmd.ep.Close() })
	return &rig{t: t, seg: seg, cmd: cmd, d: d, cli: cli, seq: map[uint64]uint64{}}
}

// allocRegion asks the daemon directly (playing the manager's role).
func allocRegion(t *testing.T, r *rig, id, size uint64) *wire.IMDAllocResp {
	t.Helper()
	resp, err := r.cmd.ep.Call(r.d.Addr(), &wire.IMDAllocReq{RegionID: id, Length: size})
	if err != nil {
		t.Fatalf("IMDAllocReq: %v", err)
	}
	return resp.(*wire.IMDAllocResp)
}

// writeRegion performs the full client write flow under the region's
// next write sequence.
func writeRegion(t *testing.T, r *rig, id uint64, offset uint64, data []byte) *wire.DataResp {
	t.Helper()
	r.seq[id]++
	return writeRegionSeq(t, r, id, offset, data, r.seq[id])
}

// writeRegionSeq is writeRegion with an explicit write sequence number.
func writeRegionSeq(t *testing.T, r *rig, id uint64, offset uint64, data []byte, seq uint64) *wire.DataResp {
	t.Helper()
	return push(t, r, data, func(xfer uint64) wire.Message {
		return &wire.WriteReq{
			RegionID: id, Epoch: 3, Offset: offset, Length: uint64(len(data)),
			TransferID: xfer, WriteSeq: seq, Crc: wire.Checksum(data),
		}
	})
}

// push blasts data under a fresh transfer id while announcing it with
// the message announce builds — a client's write or a peer's handoff
// page.
func push(t *testing.T, r *rig, data []byte, announce func(xfer uint64) wire.Message) *wire.DataResp {
	t.Helper()
	xfer := r.cli.NextTransferID()
	var wg sync.WaitGroup
	var sendErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		sendErr = r.cli.SendBulk(r.d.Addr(), xfer, data)
	}()
	resp, err := r.cli.CallT(r.d.Addr(), announce(xfer), 2*time.Second, 2)
	wg.Wait()
	if err != nil {
		t.Fatalf("announcing the push: %v", err)
	}
	if sendErr != nil {
		t.Fatalf("SendBulk: %v", sendErr)
	}
	return resp.(*wire.DataResp)
}

// firstFrame sends frames of type first at once and holds the offer,
// data and write frames of every other type until one has gone, so that
// of a push and the request naming it, the chosen one reaches the
// daemon first.
type firstFrame struct {
	transport.Transport
	first wire.Type
	once  sync.Once
	gone  chan struct{}
}

func (t *firstFrame) Send(to string, frame []byte) error {
	h, err := wire.ParseHeader(frame)
	switch {
	case err == nil && h.Type == t.first:
		err = t.Transport.Send(to, frame)
		t.once.Do(func() { close(t.gone) })
		return err
	case err == nil && (h.Type == wire.TBulkOffer || h.Type == wire.TBulkData || h.Type == wire.TWriteReq):
		<-t.gone
	}
	return t.Transport.Send(to, frame)
}

// TestPushAndRequestInEitherOrder: the shape benchmark/probes.go drives
// — SendBulk beside the WriteReq that names its transfer — writes the
// bytes whether the offer or the request reaches the daemon first.
func TestPushAndRequestInEitherOrder(t *testing.T) {
	for _, first := range []wire.Type{wire.TWriteReq, wire.TBulkOffer} {
		t.Run(first.String(), func(t *testing.T) {
			r := newRig(t, 1<<20)
			r.cli = bulk.NewEndpoint(&firstFrame{Transport: host(t, r.seg, "pusher"), first: first, gone: make(chan struct{})}, fastEp(), nil)
			t.Cleanup(func() { r.cli.Close() })
			allocRegion(t, r, 1, 64<<10)
			data := make([]byte, 64<<10)
			rand.New(rand.NewSource(4)).Read(data)
			if dr := writeRegion(t, r, 1, 0, data); dr.Status != wire.StatusOK || dr.Count != uint64(len(data)) {
				t.Fatalf("write = %+v", dr)
			}
			if _, got := r.read(1, 3, 0, uint64(len(data))); !bytes.Equal(got, data) {
				t.Fatal("read after the write returned other bytes")
			}
		})
	}
}

// pendingRead is a read exchange whose request has been answered and
// whose bytes may still be arriving.
type pendingRead struct {
	cli  *bulk.Endpoint
	host string
	dr   *wire.DataResp
	buf  []byte
	xfer uint64 // the pre-registered transfer; 0 for a read that fits one frame
}

// startRead opens the read exchange the way core.Client does: a read
// too big for one frame pre-registers its receive and names the
// transfer in the request.
func startRead(cli *bulk.Endpoint, host string, id, epoch, off, n uint64) (*pendingRead, error) {
	p := &pendingRead{cli: cli, host: host, buf: make([]byte, n)}
	req := &wire.ReadReq{RegionID: id, Epoch: epoch, Offset: off, Length: n}
	if int(n) > wire.InlineDataLimit(cli.Transport().MTU()) {
		p.xfer = cli.NextTransferID()
		window, err := cli.ExpectBulkInto(p.buf, host, p.xfer, cli.ChunkSize())
		if err != nil {
			return nil, err
		}
		req.XferID, req.ChunkSize, req.Window = p.xfer, uint32(cli.ChunkSize()), uint32(window)
	}
	resp, err := cli.CallT(host, req, 2*time.Second, 2)
	if err != nil {
		cli.CancelExpect(host, p.xfer)
		return nil, err
	}
	p.dr = resp.(*wire.DataResp)
	return p, nil
}

// finish collects the served bytes and checks them against the
// response's CRC. A refused read yields no bytes and no error.
func (p *pendingRead) finish() ([]byte, error) {
	var data []byte
	switch {
	case p.dr.Status != wire.StatusOK:
		p.cli.CancelExpect(p.host, p.xfer)
		return nil, nil
	case p.dr.Flags&wire.DataFlagInline != 0:
		data = p.dr.Payload
	case p.dr.Flags&wire.DataFlagEager != 0 && p.xfer != 0 && p.dr.TransferID == p.xfer:
		n, err := p.cli.RecvBulkInto(p.buf, p.host, p.xfer, 15*time.Second)
		if err != nil {
			return nil, err
		}
		data = p.buf[:n]
	default:
		return nil, fmt.Errorf("read response in neither shape: %+v", p.dr)
	}
	if wire.Checksum(data) != p.dr.Crc {
		return nil, fmt.Errorf("read of %d bytes fails its CRC", len(data))
	}
	return data, nil
}

// read runs one whole read exchange against the rig's daemon.
func (r *rig) read(id, epoch, off, n uint64) (*wire.DataResp, []byte) {
	r.t.Helper()
	p, err := startRead(r.cli, r.d.Addr(), id, epoch, off, n)
	if err != nil {
		r.t.Fatalf("ReadReq: %v", err)
	}
	data, err := p.finish()
	if err != nil {
		r.t.Fatalf("read: %v", err)
	}
	return p.dr, data
}

func TestAnnouncesIdleOnStartup(t *testing.T) {
	r := newRig(t, 1<<20)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if hs, ok := r.cmd.lastStatus(); ok {
			if hs.State != wire.HostIdle || hs.Epoch != 3 || hs.AvailBytes != 1<<20 {
				t.Fatalf("startup status = %+v", hs)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no startup HostStatus reached the manager")
}

func TestAllocFreeLifecycle(t *testing.T) {
	r := newRig(t, 1<<20)
	ar := allocRegion(t, r, 1, 4096)
	if ar.Status != wire.StatusOK || ar.Epoch != 3 {
		t.Fatalf("alloc = %+v", ar)
	}
	if ar.AvailBytes != 1<<20-4096 {
		t.Fatalf("piggybacked avail = %d, want %d", ar.AvailBytes, 1<<20-4096)
	}
	// Duplicate alloc: idempotent.
	dup := allocRegion(t, r, 1, 4096)
	if dup.Status != wire.StatusOK {
		t.Fatalf("duplicate alloc = %v", dup.Status)
	}
	if got := r.d.Stats().Regions; got != 1 {
		t.Fatalf("Regions = %d, want 1", got)
	}
	resp, err := r.cmd.ep.Call(r.d.Addr(), &wire.IMDFreeReq{RegionID: 1})
	if err != nil {
		t.Fatal(err)
	}
	fr := resp.(*wire.IMDFreeResp)
	if fr.Status != wire.StatusOK || fr.AvailBytes != 1<<20 {
		t.Fatalf("free = %+v", fr)
	}
	// Double free reports not-found.
	resp, err = r.cmd.ep.Call(r.d.Addr(), &wire.IMDFreeReq{RegionID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := resp.(*wire.IMDFreeResp).Status; st != wire.StatusNotFound {
		t.Fatalf("double free = %v", st)
	}
}

func TestAllocExhaustion(t *testing.T) {
	r := newRig(t, 8192)
	if ar := allocRegion(t, r, 1, 8192); ar.Status != wire.StatusOK {
		t.Fatalf("alloc = %v", ar.Status)
	}
	if ar := allocRegion(t, r, 2, 1); ar.Status != wire.StatusNoMem {
		t.Fatalf("over-alloc = %v, want StatusNoMem", ar.Status)
	}
}

func TestWriteThenReadRoundTrip(t *testing.T) {
	r := newRig(t, 1<<20)
	allocRegion(t, r, 1, 100<<10)
	data := make([]byte, 100<<10)
	rand.New(rand.NewSource(1)).Read(data)

	wr := writeRegion(t, r, 1, 0, data)
	if wr.Status != wire.StatusOK || wr.Count != uint64(len(data)) {
		t.Fatalf("write = %+v", wr)
	}
	dr, got := r.read(1, 3, 0, uint64(len(data)))
	if dr.Status != wire.StatusOK || dr.Count != uint64(len(data)) {
		t.Fatalf("read = %+v", dr)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read data mismatch")
	}
	s := r.d.Stats()
	if s.Reads != 1 || s.Writes != 1 || s.ReadBytes != int64(len(data)) {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPartialReadAndOffsetAccess(t *testing.T) {
	r := newRig(t, 1<<20)
	allocRegion(t, r, 1, 1000)
	payload := bytes.Repeat([]byte("abcd"), 250)
	writeRegion(t, r, 1, 0, payload)

	// Offset read in the middle.
	dr, got := r.read(1, 3, 4, 8)
	if dr.Status != wire.StatusOK || string(got) != "abcdabcd" {
		t.Fatalf("offset read = %+v %q", dr, got)
	}
	// Short read at the tail (mread semantics, §3.2).
	dr, got = r.read(1, 3, 990, 100)
	if dr.Status != wire.StatusOK || len(got) != 10 {
		t.Fatalf("tail read = %+v, %d bytes; want 10", dr, len(got))
	}
	// Offset beyond the end: invalid.
	dr, _ = r.read(1, 3, 1001, 1)
	if dr.Status != wire.StatusInvalid {
		t.Fatalf("read past end = %v, want StatusInvalid", dr.Status)
	}
}

func TestStaleEpochRejected(t *testing.T) {
	r := newRig(t, 1<<20)
	allocRegion(t, r, 1, 4096)
	resp, err := r.cli.Call(r.d.Addr(), &wire.ReadReq{RegionID: 1, Epoch: 2, Offset: 0, Length: 10})
	if err != nil {
		t.Fatal(err)
	}
	if st := resp.(*wire.DataResp).Status; st != wire.StatusStale {
		t.Fatalf("stale-epoch read = %v, want StatusStale", st)
	}
	if got := r.d.Stats().StaleRejects; got != 1 {
		t.Fatalf("StaleRejects = %d, want 1", got)
	}
}

func TestReadUnknownRegion(t *testing.T) {
	r := newRig(t, 1<<20)
	resp, err := r.cli.Call(r.d.Addr(), &wire.ReadReq{RegionID: 99, Epoch: 3, Offset: 0, Length: 10})
	if err != nil {
		t.Fatal(err)
	}
	if st := resp.(*wire.DataResp).Status; st != wire.StatusNotFound {
		t.Fatalf("read unknown region = %v, want StatusNotFound", st)
	}
}

func TestWriteAtOffset(t *testing.T) {
	r := newRig(t, 1<<20)
	allocRegion(t, r, 1, 100)
	writeRegion(t, r, 1, 0, bytes.Repeat([]byte{'x'}, 100))
	wr := writeRegion(t, r, 1, 50, []byte("HELLO"))
	if wr.Status != wire.StatusOK || wr.Count != 5 {
		t.Fatalf("offset write = %+v", wr)
	}
	_, got := r.read(1, 3, 48, 9)
	if string(got) != "xxHELLOxx" {
		t.Fatalf("after offset write read = %q", got)
	}
}

func TestDrainAnnouncesBusyAndRefusesWork(t *testing.T) {
	r := newRig(t, 1<<20)
	allocRegion(t, r, 1, 4096)
	r.d.Drain()
	deadline := time.Now().Add(2 * time.Second)
	var last wire.HostStatus
	for time.Now().Before(deadline) {
		if hs, ok := r.cmd.lastStatus(); ok && hs.State == wire.HostBusy {
			last = hs
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if last.State != wire.HostBusy {
		t.Fatal("drain did not announce HostBusy to the manager")
	}
}

func TestStatusLoopRefreshesHints(t *testing.T) {
	r := newRig(t, 1<<20)
	allocRegion(t, r, 1, 1<<19)
	// Wait for a periodic status reflecting the allocation.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if hs, ok := r.cmd.lastStatus(); ok && hs.AvailBytes == 1<<19 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("status loop never reported the post-allocation availability")
}

func TestReadSnapshotIsolatedFromLaterWrites(t *testing.T) {
	// A read's bulk push must carry the bytes as of the read, even if a
	// write lands while the transfer is in flight.
	r := newRig(t, 1<<20)
	allocRegion(t, r, 1, 64<<10)
	first := bytes.Repeat([]byte{0xAA}, 64<<10)
	writeRegion(t, r, 1, 0, first)

	p, err := startRead(r.cli, r.d.Addr(), 1, 3, 0, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite while the push may still be in flight.
	writeRegion(t, r, 1, 0, bytes.Repeat([]byte{0xBB}, 64<<10))
	got, err := p.finish()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, first) {
		t.Fatal("read transfer was not snapshot-isolated from the concurrent write")
	}
}

func TestConcurrentClientReads(t *testing.T) {
	r := newRig(t, 1<<20)
	allocRegion(t, r, 1, 256<<10)
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(2)).Read(data)
	writeRegion(t, r, 1, 0, data)

	const readers = 6
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli := bulk.NewEndpoint(host(t, r.seg, "reader"+string(rune('0'+i))), fastEp(), nil)
			defer cli.Close()
			p, err := startRead(cli, r.d.Addr(), 1, 3, uint64(i*1000), 32<<10)
			if err != nil {
				errs[i] = err
				return
			}
			got, err := p.finish()
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(got, data[i*1000:i*1000+32<<10]) {
				errs[i] = bulk.ErrRejected
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
}

// TestDuplicatedEagerReadServedOnce: copies of one eager ReadReq that
// reach the daemon together (a UDP duplicate, a retransmit racing a slow
// handler; bulk runs every request on its own goroutine) are one read
// and one blast. A second blast under the same transfer id would take
// over the first sender's ack channel and leave it re-blasting its
// window until its retries ran out, which is what the last check
// counts. Retransmitted frames would be the wrong count: on a lossless
// segment a sender slowed past the receiver's NackDelay (the race
// detector and lockcheck do that) is NACKed and resends, correctly,
// with its retry budget reset by the NACK.
func TestDuplicatedEagerReadServedOnce(t *testing.T) {
	const (
		reads  = 300
		copies = 4
		size   = 64 << 10
	)
	r := newRig(t, 1<<20)
	allocRegion(t, r, 1, size)
	data := make([]byte, size)
	rand.New(rand.NewSource(3)).Read(data)
	writeRegion(t, r, 1, 0, data)

	buf := make([]byte, size)
	for i := 0; i < reads; i++ {
		xfer := r.cli.NextTransferID()
		window, err := r.cli.ExpectBulkInto(buf, r.d.Addr(), xfer, r.cli.ChunkSize())
		if err != nil {
			t.Fatal(err)
		}
		req := &wire.ReadReq{RegionID: 1, Epoch: 3, Length: size,
			XferID: xfer, ChunkSize: uint32(r.cli.ChunkSize()), Window: uint32(window)}
		resps := make([]wire.Message, copies)
		var wg sync.WaitGroup
		for c := range resps {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				resps[c] = r.d.handle(r.seg.Addr("client"), req)
			}(c)
		}
		wg.Wait()
		for c, resp := range resps {
			if dr := resp.(*wire.DataResp); dr != resps[0] || dr.Status != wire.StatusOK || dr.Crc != wire.Checksum(data) {
				t.Fatalf("read %d copy %d answered %+v, first copy %+v", i, c, dr, resps[0])
			}
		}
		if n, err := r.cli.RecvBulkInto(buf, r.d.Addr(), xfer, 15*time.Second); err != nil || n != size || !bytes.Equal(buf, data) {
			t.Fatalf("read %d: %d bytes, %v", i, n, err)
		}
	}
	r.d.transfers.Wait()
	if got := r.d.Stats().Reads; got != reads {
		t.Errorf("Reads = %d after %d distinct transfer ids, want one read each", got, reads)
	}
	if n := r.d.ep.RetryExhausted(); n != 0 {
		t.Errorf("%d of the daemon's blasts ran out of retries: a second blast took over a transfer id", n)
	}
}

func BenchmarkServeRead8KB(b *testing.B) {
	seg := usocket.NewSegment()
	cmdEp := bulk.NewEndpoint(host(b, seg, "cmd"), fastEp(), func(string, wire.Message) wire.Message {
		return &wire.HostStatusAck{Status: wire.StatusOK}
	})
	defer cmdEp.Close()
	d := New(host(b, seg, "imd1"), Config{ManagerAddr: seg.Addr("cmd"), PoolSize: 1 << 20, Epoch: 1, Endpoint: fastEp()})
	defer d.Close()
	cli := bulk.NewEndpoint(host(b, seg, "client"), fastEp(), nil)
	defer cli.Close()
	if _, err := cmdEp.Call(d.Addr(), &wire.IMDAllocReq{RegionID: 1, Length: 8 << 10}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(8 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := startRead(cli, d.Addr(), 1, 1, 0, 8<<10)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// §4.1: on reclaim the imd "handles the signal by completing the
// ongoing transfers and exiting". A read whose bulk push is in flight
// when Drain arrives must still deliver its data.
func TestDrainCompletesOngoingTransfers(t *testing.T) {
	r := newRig(t, 1<<20)
	allocRegion(t, r, 1, 512<<10)
	data := make([]byte, 512<<10)
	rand.New(rand.NewSource(9)).Read(data)
	writeRegion(t, r, 1, 0, data)

	// Start the read: the imd answers DataResp and begins blasting.
	p, err := startRead(r.cli, r.d.Addr(), 1, 3, 0, 512<<10)
	if err != nil {
		t.Fatal(err)
	}
	if p.dr.Status != wire.StatusOK {
		t.Fatalf("read = %v", p.dr.Status)
	}
	// Drain concurrently with the in-flight push.
	drained := make(chan struct{})
	go func() {
		r.d.Drain()
		close(drained)
	}()
	got, err := p.finish()
	if err != nil {
		t.Fatalf("read during drain: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("drain corrupted the in-flight transfer")
	}
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain never completed")
	}
	// After the drain, new work is refused.
	resp, err := r.cli.Call(r.d.Addr(), &wire.ReadReq{RegionID: 1, Epoch: 3, Offset: 0, Length: 16})
	if err == nil {
		if st := resp.(*wire.DataResp).Status; st == wire.StatusOK {
			t.Fatal("drained imd accepted new work")
		}
	}
}

// TestReplayedWriteCannotRollBack: an announcement replayed by the
// network with an old WriteSeq is confirmed but never applied, so a
// delayed duplicate cannot roll the region back to bytes the client has
// already overwritten. A fresh region restarts the gate.
func TestReplayedWriteCannotRollBack(t *testing.T) {
	r := newRig(t, 1<<20)
	if ar := allocRegion(t, r, 1, 8192); ar.Status != wire.StatusOK {
		t.Fatalf("alloc = %v", ar.Status)
	}
	old := bytes.Repeat([]byte{0xaa}, 8192)
	cur := bytes.Repeat([]byte{0xbb}, 8192)
	if dr := writeRegionSeq(t, r, 1, 0, old, 1); dr.Status != wire.StatusOK {
		t.Fatalf("write seq 1 = %v", dr.Status)
	}
	if dr := writeRegionSeq(t, r, 1, 0, cur, 2); dr.Status != wire.StatusOK {
		t.Fatalf("write seq 2 = %v", dr.Status)
	}

	// The replay: same old bytes, stale sequence, a fresh transfer id
	// (the network replays the announcement; our endpoint can't reuse a
	// consumed transfer, so the replayed blast rides a new id).
	dr := writeRegionSeq(t, r, 1, 0, old, 1)
	if dr.Status != wire.StatusOK || dr.Count != 8192 {
		t.Fatalf("replayed write = %v count %d, want confirmed in full", dr.Status, dr.Count)
	}
	// Sequences start at 1: zero cannot be ordered against the gate and
	// is refused outright.
	if dr := writeRegionSeq(t, r, 1, 0, old, 0); dr.Status != wire.StatusInvalid {
		t.Fatalf("write seq 0 = %v, want StatusInvalid", dr.Status)
	}
	if _, data := r.read(1, 3, 0, 8192); !bytes.Equal(data, cur) {
		t.Fatal("replayed announcement rolled the region back to stale bytes")
	}

	// Freeing and re-creating the region restarts the gate: sequence
	// numbering begins again for the new incarnation.
	if resp, err := r.cmd.ep.Call(r.d.Addr(), &wire.IMDFreeReq{RegionID: 1}); err != nil {
		t.Fatalf("free: %v", err)
	} else if st := resp.(*wire.IMDFreeResp).Status; st != wire.StatusOK {
		t.Fatalf("free = %v", st)
	}
	if ar := allocRegion(t, r, 1, 8192); ar.Status != wire.StatusOK {
		t.Fatalf("re-alloc = %v", ar.Status)
	}
	if dr := writeRegionSeq(t, r, 1, 0, old, 1); dr.Status != wire.StatusOK {
		t.Fatalf("write seq 1 on fresh region = %v", dr.Status)
	}
	if _, data := r.read(1, 3, 0, 8192); !bytes.Equal(data, old) {
		t.Fatal("fresh region refused its first write")
	}
}

// TestCorruptPushRefused: a write or a handoff page whose bytes do not
// match the announced CRC is refused and leaves the region untouched —
// also when the Crc field itself arrives zeroed, which no longer
// switches the check off.
func TestCorruptPushRefused(t *testing.T) {
	good := bytes.Repeat([]byte{0x11}, 4096)
	bad := bytes.Repeat([]byte{0xEE}, 4096)
	for _, tc := range []struct {
		name     string
		announce func(xfer uint64, crc uint32) wire.Message
	}{
		{"write", func(xfer uint64, crc uint32) wire.Message {
			return &wire.WriteReq{RegionID: 1, Epoch: 3, Length: 4096, TransferID: xfer, WriteSeq: 2, Crc: crc}
		}},
		{"handoff", func(xfer uint64, crc uint32) wire.Message {
			return &wire.HandoffPage{RegionID: 1, Epoch: 3, Length: 4096, TransferID: xfer, Crc: crc}
		}},
	} {
		for _, crc := range []uint32{wire.Checksum(good), 0} {
			t.Run(fmt.Sprintf("%s/crc-%#x", tc.name, crc), func(t *testing.T) {
				r := newRig(t, 1<<20)
				allocRegion(t, r, 1, 4096)
				writeRegion(t, r, 1, 0, good)
				dr := push(t, r, bad, func(xfer uint64) wire.Message { return tc.announce(xfer, crc) })
				if dr.Status != wire.StatusInvalid {
					t.Fatalf("corrupt push = %v, want StatusInvalid", dr.Status)
				}
				if got := r.d.Stats().ChecksumRejects; got != 1 {
					t.Fatalf("ChecksumRejects = %d, want 1", got)
				}
				if _, data := r.read(1, 3, 0, 4096); !bytes.Equal(data, good) {
					t.Fatal("refused push changed the region's bytes")
				}
			})
		}
	}
}
