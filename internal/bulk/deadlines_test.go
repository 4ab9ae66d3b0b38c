package bulk

import (
	"sync"
	"testing"
	"time"

	"dodo/internal/sim"
	"dodo/internal/transport"
	"dodo/internal/usocket"
	"dodo/internal/wire"
)

// TestCallsAndEagerTransfersArmO1Timers: every wait of an endpoint is an
// entry of its deadline queue, so on a VirtualClock nobody advances,
// where every deadline of one kind falls at the same time, calls and
// eager 8 KB transfers arm no clock timer once the first few have set
// the queues' timers — not the call attempt, sender window, NACK
// countdown and receive budget timers each of them armed before, at
// least four per call and transfer.
func TestCallsAndEagerTransfersArmO1Timers(t *testing.T) {
	clock := sim.NewVirtualClock(time.Unix(0, 0))
	seg := usocket.NewSegment()
	srv := NewEndpoint(host(t, seg, "srv"), Config{Clock: clock}, echoHandler)
	cli := NewEndpoint(host(t, seg, "cli"), Config{Clock: clock}, nil)
	t.Cleanup(func() { srv.Close(); cli.Close() })
	data, buf := make([]byte, 8<<10), make([]byte, 8<<10)
	if frames := (len(data) + srv.ChunkSize() - 1) / srv.ChunkSize(); frames < 5 {
		t.Fatalf("an 8 KB transfer is %d frames, want several", frames)
	}
	exchange := func(rounds int) uint64 {
		before := clock.Scheduled()
		for i := 0; i < rounds; i++ {
			if _, err := cli.Call(seg.Addr("srv"), &wire.KeepAlive{ClientID: uint32(i)}); err != nil {
				t.Fatal(err)
			}
			eagerTransfer(t, srv, cli, data, buf)
		}
		return clock.Scheduled() - before
	}
	if armed := exchange(5); armed > 10 {
		t.Errorf("the first 5 calls and transfers armed %d clock timers, want a handful", armed)
	}
	if armed := exchange(100); armed != 0 {
		t.Errorf("100 more calls and eager transfers armed %d clock timers, want 0", armed)
	}
	if retransmits, nacks, _ := srv.Stats(); retransmits != 0 || nacks != 0 {
		t.Errorf("loss-free exchanges retransmitted %d packets, sent %d NACKs", retransmits, nacks)
	}
}

// gatedSends holds the first send of the sender's data packet number
// seq until open is closed, and says on blocked when it holds it. Send
// is only called by the one sending transfer.
type gatedSends struct {
	transport.Transport
	seq     uint32
	held    bool
	blocked chan struct{}
	open    chan struct{}
}

func (g *gatedSends) Send(to string, frame []byte) error {
	if _, seq, _, err := wire.DecodeBulkData(frame); err == nil && seq == g.seq && !g.held {
		g.held = true
		close(g.blocked)
		<-g.open
	}
	return g.Transport.Send(to, frame)
}

// TestStaleWindowExpiryReblastsNothing: the first window's deadline
// fires after its ack came in, while the sender blasts the second
// window. The wake that expiry leaves behind is stale once the second
// window's deadline is queued, and the sender must not take it for that
// window's timeout: no packet is sent twice.
func TestStaleWindowExpiryReblastsNothing(t *testing.T) {
	clock := sim.NewVirtualClock(time.Unix(0, 0))
	seg := usocket.NewSegment()
	gate := &gatedSends{Transport: host(t, seg, "ep"), seq: 1, blocked: make(chan struct{}), open: make(chan struct{})}
	ep := NewEndpoint(gate, Config{Clock: clock}, nil)
	peer := host(t, seg, "peer")
	t.Cleanup(func() { ep.Close(); peer.Close() })
	reply := func(msg wire.Message) {
		t.Helper()
		frame, err := wire.Encode(0, msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := peer.Send(seg.Addr("ep"), frame); err != nil {
			t.Fatal(err)
		}
	}

	const id = 5
	var wg sync.WaitGroup
	var sendErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Two packets, one per window.
		sendErr = ep.SendBulkEager(peer.LocalAddr(), id, make([]byte, 2*vtChunk), vtChunk, 1)
	}()
	if _, _, err := peer.Recv(5 * time.Second); err != nil { // the first window: the sender waits for its ack
		t.Fatal(err)
	}
	reply(&wire.BulkNack{TransferID: id})
	<-gate.blocked             // the sender took the ack and is blasting the second window
	clock.Advance(time.Minute) // the first window's deadline fires: a wake, now stale
	close(gate.open)
	// The second window's deadline, the only one queued, arms the clock
	// once the blast returns; then the sender finds the stale wake.
	for clock.Pending() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	reply(&wire.BulkDone{TransferID: id, Status: wire.StatusOK})
	wg.Wait()
	if sendErr != nil {
		t.Fatalf("SendBulkEager = %v", sendErr)
	}
	if retransmits, _, _ := ep.Stats(); retransmits != 0 {
		t.Errorf("a stale window expiry re-blasted %d packets", retransmits)
	}
}
