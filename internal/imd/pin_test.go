package imd

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"dodo/internal/bulk"
	"dodo/internal/transport"
	"dodo/internal/usocket"
	"dodo/internal/wire"
)

// heldBlast lets a daemon's frames through until armed. Armed, it lets
// early data frames go and holds every later one until release is
// closed, so a blast or a page push from pinned pool bytes stops half
// sent; held is closed when the first frame is held. It is no
// VecSender, so every frame the daemon sends passes through Send.
type heldBlast struct {
	transport.Transport
	release, held chan struct{}

	mu    sync.Mutex
	armed bool
	early int
}

func newHeldBlast(tr transport.Transport) *heldBlast {
	return &heldBlast{Transport: tr, release: make(chan struct{}), held: make(chan struct{})}
}

func (h *heldBlast) Send(to string, frame []byte) error {
	if h.holds(frame) {
		<-h.release
	}
	return h.Transport.Send(to, frame)
}

func (h *heldBlast) holds(frame []byte) bool {
	hdr, err := wire.ParseHeader(frame)
	h.mu.Lock()
	defer h.mu.Unlock()
	if err != nil || !h.armed || hdr.Type != wire.TBulkData {
		return false
	}
	h.early--
	if h.early == -1 {
		close(h.held)
	}
	return h.early < 0
}

func (h *heldBlast) arm(early int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.armed, h.early = true, early
}

// newHeldRig is newRig with the daemon's frames through a heldBlast.
func newHeldRig(t *testing.T, poolSize uint64) (*rig, *heldBlast) {
	seg := usocket.NewSegment()
	held := newHeldBlast(host(t, seg, "imd1"))
	t.Cleanup(func() {
		select {
		case <-held.release:
		default:
			close(held.release)
		}
	})
	return newRigOver(t, seg, held, poolSize), held
}

// awaitPinWaiter returns once a request is waiting for a region's pins
// to drain, and fails the test if none is within five seconds.
func awaitPinWaiter(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if bytes.Contains(buf[:runtime.Stack(buf, true)], []byte(").awaitUnpinnedLocked(")) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no request waited for the region's pin")
		}
	}
}

// TestWriteWaitsForPinnedBlast: a write to a region whose eager read is
// being blasted from the pool waits until the blast is done; the read
// delivers the bytes from before the write, and its CRC verifies.
func TestWriteWaitsForPinnedBlast(t *testing.T) {
	r, held := newHeldRig(t, 1<<20)
	allocRegion(t, r, 1, 64<<10)
	before := bytes.Repeat([]byte{0xAA}, 64<<10)
	writeRegion(t, r, 1, 0, before)

	held.arm(4)
	p, err := startRead(r.cli, r.d.Addr(), 1, 3, 0, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	<-held.held
	after := bytes.Repeat([]byte{0xBB}, 1<<10)
	wrote := make(chan wire.Message, 1)
	go func() {
		resp, _ := r.cli.CallT(r.d.Addr(), &wire.WriteReq{RegionID: 1, Epoch: 3, Length: uint64(len(after)),
			WriteSeq: 2, Crc: wire.Checksum(after), Payload: after}, 2*time.Second, 0)
		wrote <- resp
	}()
	awaitPinWaiter(t)
	if got := r.d.Stats().Writes; got != 1 {
		t.Fatalf("Writes = %d mid-blast, want 1", got)
	}

	close(held.release)
	got, err := p.finish()
	if err != nil {
		t.Fatalf("pinned read: %v", err)
	}
	if !bytes.Equal(got, before) {
		t.Fatal("the blast carried bytes written while it ran")
	}
	if dr, ok := (<-wrote).(*wire.DataResp); !ok || dr.Status != wire.StatusOK {
		t.Fatalf("the waiting write = %+v", dr)
	}
	if _, got := r.read(1, 3, 0, uint64(len(after))); !bytes.Equal(got, after) {
		t.Fatal("the write did not land once the blast ended")
	}
}

// TestFreeWaitsForPinnedBlast: a free of a region mid-blast waits for
// the blast, so no Create can be given the span while its bytes are
// still being sent; once freed, the span comes back cleared.
func TestFreeWaitsForPinnedBlast(t *testing.T) {
	r, held := newHeldRig(t, 128<<10)
	if ar := allocRegion(t, r, 1, 64<<10); ar.Status != wire.StatusOK || ar.PoolOffset != 0 {
		t.Fatalf("alloc = %+v, want offset 0", ar)
	}
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(7)).Read(data)
	writeRegion(t, r, 1, 0, data)

	held.arm(4)
	p, err := startRead(r.cli, r.d.Addr(), 1, 3, 0, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	<-held.held
	freed := make(chan wire.Message, 1)
	go func() {
		resp, _ := r.cmd.ep.CallT(r.d.Addr(), &wire.IMDFreeReq{RegionID: 1}, 2*time.Second, 0)
		freed <- resp
	}()
	awaitPinWaiter(t)
	if ar := allocRegion(t, r, 2, 64<<10); ar.Status != wire.StatusOK || ar.PoolOffset == 0 {
		t.Fatalf("alloc mid-blast = %+v: the blasting region's span was handed out", ar)
	}

	close(held.release)
	got, err := p.finish()
	if err != nil {
		t.Fatalf("pinned read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("the blast's bytes changed under it")
	}
	if fr, ok := (<-freed).(*wire.IMDFreeResp); !ok || fr.Status != wire.StatusOK {
		t.Fatalf("the waiting free = %+v", fr)
	}
	if ar := allocRegion(t, r, 3, 64<<10); ar.Status != wire.StatusOK || ar.PoolOffset != 0 {
		t.Fatalf("alloc after the free = %+v, want the freed span at 0", ar)
	}
	if _, got := r.read(3, 3, 0, 64<<10); !bytes.Equal(got, make([]byte, 64<<10)) {
		t.Fatal("the freed span came back with the old region's bytes")
	}
}

// TestDrainWithPinnedBlast: Drain completes with an eager read's blast
// pinned across it, and the read still delivers.
func TestDrainWithPinnedBlast(t *testing.T) {
	r, held := newHeldRig(t, 1<<20)
	allocRegion(t, r, 1, 64<<10)
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(8)).Read(data)
	writeRegion(t, r, 1, 0, data)

	held.arm(4)
	p, err := startRead(r.cli, r.d.Addr(), 1, 3, 0, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	<-held.held
	drained := make(chan struct{})
	go func() {
		r.d.Drain()
		close(drained)
	}()
	// The drain has offered its regions, so it is past the writes it
	// settles and on its way to waiting for the transfers.
	for deadline := time.Now().Add(5 * time.Second); len(r.cmd.offersSeen()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the drain never offered its regions")
		}
	}
	close(held.release)
	got, err := p.finish()
	if err != nil {
		t.Fatalf("pinned read across a drain: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("the drain changed the blast's bytes")
	}
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain with a pinned blast never completed")
	}
}

// TestHandoffPageFromPinnedBytes: a draining daemon pushes a page
// straight from its pool; a free of the region that arrives mid-push
// waits for it, and the page lands on the peer intact.
func TestHandoffPageFromPinnedBytes(t *testing.T) {
	seg := usocket.NewSegment()
	cmd := newFakeCMD(t, seg)
	held := newHeldBlast(host(t, seg, "imd1"))
	src := New(held, Config{ManagerAddr: seg.Addr("cmd"), PoolSize: 1 << 20, Epoch: 3,
		GraceWindow: 3 * time.Second, Endpoint: fastEp()})
	dst := New(host(t, seg, "imd2"), Config{ManagerAddr: seg.Addr("cmd"), PoolSize: 1 << 20, Epoch: 5, Endpoint: fastEp()})
	cli := bulk.NewEndpoint(host(t, seg, "client"), fastEp(), nil)
	t.Cleanup(func() {
		select {
		case <-held.release:
		default:
			close(held.release)
		}
		src.Close()
		dst.Close()
		cli.Close()
		cmd.ep.Close()
	})
	r := &rig{t: t, seg: seg, cmd: cmd, d: src, cli: cli, seq: map[uint64]uint64{}}
	allocRegion(t, r, 1, 64<<10)
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(9)).Read(data)
	writeRegion(t, r, 1, 0, data)
	resp, err := cmd.ep.Call(seg.Addr("imd2"), &wire.IMDAllocReq{RegionID: 901, Length: 64 << 10})
	if err != nil {
		t.Fatalf("target alloc: %v", err)
	}
	tr := resp.(*wire.IMDAllocResp)
	cmd.setGrant(1, wire.Region{HostAddr: seg.Addr("imd2"), RegionID: 901, PoolOffset: tr.PoolOffset, Length: 64 << 10, Epoch: tr.Epoch})

	held.arm(4)
	drained := make(chan struct{})
	go func() {
		src.Drain()
		close(drained)
	}()
	<-held.held
	// The free is handed to the daemon directly: its answer must not
	// depend on the endpoint the drain closes when it is done.
	freed := make(chan wire.Message, 1)
	go func() { freed <- src.handle(seg.Addr("cmd"), &wire.IMDFreeReq{RegionID: 1}) }()
	awaitPinWaiter(t)
	close(held.release)
	within(t, "Drain", func() { <-drained })
	var freeResp wire.Message
	within(t, "the free waiting on the pushed page's pin", func() { freeResp = <-freed })
	if fr, ok := freeResp.(*wire.IMDFreeResp); !ok || fr.Status != wire.StatusOK {
		t.Fatalf("the waiting free = %+v", fr)
	}
	if dones := cmd.handoffOutcomes(); len(dones) != 1 || dones[0].Status != wire.StatusOK {
		t.Fatalf("HandoffDone reports = %+v, want one OK", dones)
	}
	p, err := startRead(cli, seg.Addr("imd2"), 901, tr.Epoch, 0, 64<<10)
	if err != nil {
		t.Fatalf("read from peer: %v", err)
	}
	got, err := p.finish()
	if err != nil {
		t.Fatalf("read from peer: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("the page pushed from pinned bytes differs from the source")
	}
}

// TestFreshRegionReadsZeros: a region allocated on the span of a freed
// one reads as zeros, not as the bytes its previous tenant wrote.
func TestFreshRegionReadsZeros(t *testing.T) {
	r := newRig(t, 1<<20)
	secret := []byte("secret of tenant one")
	first := allocRegion(t, r, 1, 4096)
	writeRegion(t, r, 1, 0, secret)
	if resp, err := r.cmd.ep.Call(r.d.Addr(), &wire.IMDFreeReq{RegionID: 1}); err != nil {
		t.Fatal(err)
	} else if st := resp.(*wire.IMDFreeResp).Status; st != wire.StatusOK {
		t.Fatalf("free = %v", st)
	}
	if ar := allocRegion(t, r, 2, 4096); ar.Status != wire.StatusOK || ar.PoolOffset != first.PoolOffset {
		t.Fatalf("alloc = %+v, want the freed span at %d", ar, first.PoolOffset)
	}
	if _, got := r.read(2, 3, 0, 4096); !bytes.Equal(got, make([]byte, 4096)) {
		t.Fatalf("a fresh region reads %q…, want zeros", got[:len(secret)])
	}
}

// TestWriteWaitsForPinnedInlineReply: an inline read's reply holds the
// region's pin until the endpoint has encoded it, so a full-region
// write waits for the encode, and the reply carries the bytes from
// before the write with their CRC. The test plays the endpoint's part:
// it holds the handler's reply before encoding it.
func TestWriteWaitsForPinnedInlineReply(t *testing.T) {
	const size = 1 << 10
	r := newRig(t, 1<<20)
	allocRegion(t, r, 1, size)
	before := bytes.Repeat([]byte{0xAA}, size)
	writeRegion(t, r, 1, 0, before)

	resp := r.d.handle(r.seg.Addr("client"), &wire.ReadReq{RegionID: 1, Epoch: 3, Length: size})
	reply, ok := resp.(bulk.Releaser)
	if !ok {
		t.Fatalf("an inline read answered %T, want a bulk.Releaser holding the region's pin", resp)
	}
	after := bytes.Repeat([]byte{0xBB}, size)
	wrote := make(chan wire.Message, 1)
	go func() {
		resp, _ := r.cli.CallT(r.d.Addr(), inlineWrite(1, 0, after, 2), 2*time.Second, 0)
		wrote <- resp
	}()
	awaitPinWaiter(t)
	if got := r.d.Stats().Writes; got != 1 {
		t.Fatalf("Writes = %d with an inline reply pinned, want 1", got)
	}

	frame, err := wire.Encode(1, reply)
	reply.Release()
	if err != nil {
		t.Fatal(err)
	}
	_, msg, err := wire.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if dr := msg.(*wire.DataResp); dr.Flags&wire.DataFlagInline == 0 || !bytes.Equal(dr.Payload, before) ||
		dr.Crc != wire.Checksum(before) {
		t.Fatal("the pinned reply carried bytes written while it was pinned")
	}
	if dr, ok := (<-wrote).(*wire.DataResp); !ok || dr.Status != wire.StatusOK {
		t.Fatalf("the waiting write = %+v", dr)
	}
	if _, got := r.read(1, 3, 0, size); !bytes.Equal(got, after) {
		t.Fatal("the write did not land once the reply was encoded")
	}
}

// newUDPRig is newRig over kernel UDP on loopback, the daemon, the
// fake manager and the client each on a socket of their own.
func newUDPRig(t *testing.T, poolSize uint64) *rig {
	t.Helper()
	udp := func() transport.Transport {
		u, err := transport.ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	cmd := newFakeCMDOver(udp())
	t.Cleanup(func() { cmd.ep.Close() })
	d := New(udp(), Config{ManagerAddr: cmd.ep.LocalAddr(), PoolSize: poolSize, Epoch: 3,
		StatusInterval: 50 * time.Millisecond, Endpoint: fastEp()})
	t.Cleanup(func() { d.Close() })
	cli := bulk.NewEndpoint(udp(), fastEp(), nil)
	t.Cleanup(func() { cli.Close() })
	return &rig{t: t, cmd: cmd, d: d, cli: cli, seq: map[uint64]uint64{}}
}

// TestPinnedInlineReadsOverUDP: over kernel UDP, where a 32 KB page
// rides one pooled frame each way, inline reads race full-region inline
// writes, each of a version of its own. Every read is one whole version
// and matches its CRC: the imd encodes a reply from pinned pool bytes
// that no write lands under, a write's request frame goes back only
// once the write has landed, and a reply's frame only once the reader
// has checked it. Run under -race.
func TestPinnedInlineReadsOverUDP(t *testing.T) {
	const size = 32 << 10
	writes, readers := 300, 2
	if testing.Short() {
		writes = 60
	}
	// version v of the region starts with v, so a read names the
	// version it must be whole of.
	version := func(v byte) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = v ^ byte(i*131>>3)
		}
		return b
	}
	whole := func(b []byte) bool {
		for i := range b {
			if b[i] != b[0]^byte(i*131>>3) {
				return false
			}
		}
		return true
	}
	r := newUDPRig(t, 1<<20)
	if size > wire.InlineDataLimit(r.cli.Transport().MTU()) {
		t.Fatalf("a %d-byte read is not inline over UDP", size)
	}
	allocRegion(t, r, 1, size)
	if dr := callWrite(t, r, inlineWrite(1, 0, version(1), 1)); dr.Status != wire.StatusOK {
		t.Fatalf("first write = %+v", dr)
	}

	// The readers read until the last write has landed.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pc, err := r.cli.Start(r.d.Addr(), &wire.ReadReq{RegionID: 1, Epoch: 3, Length: size})
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := pc.Wait()
				if err != nil {
					t.Error(err)
					return
				}
				dr := resp.(*wire.DataResp)
				ok := dr.Status == wire.StatusOK && dr.Flags&wire.DataFlagInline != 0 && len(dr.Payload) == size &&
					wire.Checksum(dr.Payload) == dr.Crc && whole(dr.Payload)
				pc.Release()
				if !ok {
					t.Error("an inline read is not one whole version with its CRC")
					return
				}
			}
		}()
	}
	for seq := 2; seq <= writes; seq++ {
		resp, err := r.cli.CallT(r.d.Addr(), inlineWrite(1, 0, version(byte(seq)), uint64(seq)), 2*time.Second, 2)
		if dr, ok := resp.(*wire.DataResp); err != nil || !ok || dr.Status != wire.StatusOK {
			t.Errorf("write %d = %+v, %v", seq, resp, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if st := r.d.Stats(); st.Writes != int64(writes) || st.ChecksumRejects != 0 {
		t.Errorf("Writes = %d, checksum rejects = %d; want %d, 0", st.Writes, st.ChecksumRejects, writes)
	}
}
