package usocket

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"dodo/internal/simnet"
	"dodo/internal/transport"
	"dodo/internal/wire"
)

// hosts opens the named hosts on seg, closed when the test ends.
func hosts(t *testing.T, seg *Segment, names ...string) []*UNet {
	t.Helper()
	var eps []*UNet
	for _, name := range names {
		ep, err := seg.Host(name)
		if err != nil {
			t.Fatalf("Host(%q): %v", name, err)
		}
		t.Cleanup(func() { ep.Close() })
		eps = append(eps, ep)
	}
	return eps
}

// drain receives until the queue stays empty for a short while.
func drain(t *testing.T, ep *UNet) [][]byte {
	t.Helper()
	var got [][]byte
	for {
		data, _, err := ep.Recv(30 * time.Millisecond)
		if errors.Is(err, transport.ErrTimeout) {
			return got
		}
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		got = append(got, data)
	}
}

func TestPerSenderOrderPreserved(t *testing.T) {
	seg := NewSegment()
	eps := hosts(t, seg, "a", "b")
	a, b := eps[0], eps[1]
	for i := 0; i < HostRing; i++ {
		if err := a.Send(b.LocalAddr(), []byte{byte(i)}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	for i := 0; i < HostRing; i++ {
		data, _, err := b.Recv(time.Second)
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if data[0] != byte(i) {
			t.Fatalf("frame %d carried %d, want in-order delivery", i, data[0])
		}
	}
}

// TestHostReopensAtItsAddress: the segment gives a name one address for
// good. A name still open cannot be opened twice; once closed, it opens
// again at the address it had, and frames reach the new host there.
func TestHostReopensAtItsAddress(t *testing.T) {
	seg := NewSegment()
	a := hosts(t, seg, "a")[0]
	addr := a.LocalAddr()
	if seg.Addr("a") != addr || seg.Addr("b") == addr {
		t.Fatalf("Addr(a) = %s, Addr(b) = %s; host a is at %s", seg.Addr("a"), seg.Addr("b"), addr)
	}
	if _, err := seg.Host("a"); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("Host of an open name = %v, want ErrAddrInUse", err)
	}
	a.Close()
	again := hosts(t, seg, "a", "b")
	if again[0].LocalAddr() != addr {
		t.Fatalf("reopened host a is at %s, want %s", again[0].LocalAddr(), addr)
	}
	if err := again[1].Send(addr, []byte("back")); err != nil {
		t.Fatal(err)
	}
	if data, from, err := again[0].Recv(time.Second); err != nil || string(data) != "back" || from != seg.Addr("b") {
		t.Fatalf("Recv at the reopened host = %q from %s, %v", data, from, err)
	}
}

func TestPartitionDropsSilently(t *testing.T) {
	seg := NewSegment()
	eps := hosts(t, seg, "a", "b")
	a, b := eps[0], eps[1]
	seg.Partition(b.LocalAddr())
	if err := a.Send(b.LocalAddr(), []byte("x")); err != nil {
		t.Fatalf("Send to partitioned host = %v, want nil (silent drop)", err)
	}
	if err := b.Send(a.LocalAddr(), []byte("x")); err != nil {
		t.Fatalf("Send from partitioned host = %v, want nil (silent drop)", err)
	}
	if got := drain(t, a); len(got) != 0 {
		t.Fatalf("a partitioned host's frame arrived: %q", got)
	}
	if _, _, err := b.Recv(30 * time.Millisecond); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("Recv on partitioned host = %v, want ErrTimeout", err)
	}
	seg.Heal(b.LocalAddr())
	if err := a.Send(b.LocalAddr(), []byte("y")); err != nil {
		t.Fatalf("Send after heal: %v", err)
	}
	data, _, err := b.Recv(time.Second)
	if err != nil || data[0] != 'y' {
		t.Fatalf("Recv after heal = %q, %v", data, err)
	}
}

func TestLossInjection(t *testing.T) {
	seg := NewSegment()
	seg.SetFaults(simnet.Faults{LossRate: 1.0, Seed: 1})
	eps := hosts(t, seg, "a", "b")
	a, b := eps[0], eps[1]
	if err := a.Send(b.LocalAddr(), []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := a.SendVec(b.LocalAddr(), []byte("x"), []byte("y")); err != nil {
		t.Fatalf("SendVec: %v", err)
	}
	if _, _, err := b.Recv(30 * time.Millisecond); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("Recv with 100%% loss = %v, want ErrTimeout", err)
	}
	seg.SetFaults(simnet.Faults{})
	if err := a.Send(b.LocalAddr(), []byte("z")); err != nil {
		t.Fatal(err)
	}
	if data, _, err := b.Recv(time.Second); err != nil || string(data) != "z" {
		t.Fatalf("Recv on a healed wire = %q, %v", data, err)
	}
}

func TestDuplicateInjection(t *testing.T) {
	seg := NewSegment()
	seg.SetFaults(simnet.Faults{DupRate: 1.0, Seed: 1})
	eps := hosts(t, seg, "a", "b")
	a, b := eps[0], eps[1]
	if err := a.Send(b.LocalAddr(), []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got := drain(t, b)
	if len(got) != 2 || string(got[0]) != "x" || string(got[1]) != "x" || sameArray(got[0], got[1]) {
		t.Fatalf("a duplicated frame arrived as %q, want two buffers of \"x\"", got)
	}
}

// TestDuplicatedDataFrameIsASecondBuffer: a duplicated data frame is two
// pooled frames, not one deposited twice. After the first copy goes
// back to the pool and the pool hands that buffer out again, the second
// copy still holds its bytes. Run under -race.
func TestDuplicatedDataFrameIsASecondBuffer(t *testing.T) {
	seg, a, b, _, mb := pair(t)
	seg.SetFaults(simnet.Faults{DupRate: 1.0, Seed: 1})
	want := bytes.Repeat([]byte{0xd0}, MTU)
	// Under -race the pool drops some of what it is handed, so try
	// until it hands the first copy's buffer out again.
	for try := 0; try < 20; try++ {
		sendVec(t, a, mb, 0xd0)
		first, _, err := b.RecvFrame(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		second, _, err := b.RecvFrame(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if sameArray(first, second) || !bytes.Equal(first, want) || !bytes.Equal(second, want) {
			t.Fatal("the duplicate was the same pooled frame deposited twice")
		}
		wire.PutDataFrame(first)
		again := wire.GetDataFrame()
		if !sameArray(again, first) {
			continue
		}
		again = append(again, bytes.Repeat([]byte{0x5a}, MTU)...)
		if !bytes.Equal(second, want) {
			t.Fatal("the duplicate changed when the pool handed the first copy out again")
		}
		wire.PutDataFrame(again)
		wire.PutDataFrame(second)
		return
	}
	t.Fatal("the pool never handed the first copy out again")
}

// TestReorderLandsLate: a reordered frame lands its delay late, and the
// frames sent after it overtake it.
func TestReorderLandsLate(t *testing.T) {
	seg := NewSegment()
	eps := hosts(t, seg, "a", "b")
	a, b := eps[0], eps[1]
	seg.SetFaults(simnet.Faults{ReorderRate: 1, ReorderDelay: 20 * time.Millisecond, Seed: 1})
	if err := a.Send(b.LocalAddr(), []byte{0}); err != nil {
		t.Fatal(err)
	}
	seg.SetFaults(simnet.Faults{})
	if err := a.Send(b.LocalAddr(), []byte{1}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []byte{1, 0} {
		data, _, err := b.Recv(time.Second)
		if err != nil || data[0] != want {
			t.Fatalf("Recv = %v, %v; want frame %d", data, err, want)
		}
	}
}

// TestEndpointFaultsSenderWins: per-address faults degrade frames to
// and from the address, and clear at runtime. When both ends of a frame
// are degraded, the sender's injector decides it.
func TestEndpointFaultsSenderWins(t *testing.T) {
	seg := NewSegment()
	eps := hosts(t, seg, "a", "b", "c")
	a, b, c := eps[0], eps[1], eps[2]
	seg.SetEndpointFaults(b.LocalAddr(), simnet.Faults{LossRate: 1, Seed: 1})
	for _, send := range []func() error{
		func() error { return a.Send(b.LocalAddr(), []byte("to b")) },
		func() error { return b.Send(c.LocalAddr(), []byte("from b")) },
		func() error { return a.Send(c.LocalAddr(), []byte("a to c")) },
	} {
		if err := send(); err != nil {
			t.Fatal(err)
		}
	}
	if got := drain(t, b); len(got) != 0 {
		t.Fatalf("b received %q through a dead link", got)
	}
	if got := drain(t, c); len(got) != 1 || string(got[0]) != "a to c" {
		t.Fatalf("c received %q, want only the frame from a", got)
	}
	// Both ends degraded: the sender's lossless injector carries a's
	// frame to b, and b's lossy one kills b's frame to a.
	seg.SetEndpointFaults(a.LocalAddr(), simnet.Faults{Seed: 2})
	if err := a.Send(b.LocalAddr(), []byte("a to b")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(a.LocalAddr(), []byte("b to a")); err != nil {
		t.Fatal(err)
	}
	if got := drain(t, b); len(got) != 1 || string(got[0]) != "a to b" {
		t.Fatalf("b received %q, want a's frame by a's injector", got)
	}
	if got := drain(t, a); len(got) != 0 {
		t.Fatalf("a received %q, want b's frame dropped by b's injector", got)
	}
	seg.ClearEndpointFaults(b.LocalAddr())
	seg.ClearEndpointFaults(a.LocalAddr())
	if err := c.Send(b.LocalAddr(), []byte("healed")); err != nil {
		t.Fatal(err)
	}
	if got := drain(t, b); len(got) != 1 || string(got[0]) != "healed" {
		t.Fatalf("b received %q after its links healed", got)
	}
}

// TestConcurrentSenders: frames from many goroutines at once all arrive
// when the ring has room for them, and each one the ring lacks room for
// is counted as overflow, on the socket and on the segment.
func TestConcurrentSenders(t *testing.T) {
	const senders, per = 8, 50
	for _, ring := range []int{senders * per, HostRing} {
		t.Run(fmt.Sprint("ring=", ring), func(t *testing.T) {
			seg := NewSegment()
			sock, err := seg.Socket(4, ring)
			if err != nil {
				t.Fatal(err)
			}
			if err := sock.Bind(MACAddr{5: 0xff}); err != nil {
				t.Fatal(err)
			}
			dst, err := NewTransport(sock)
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Close()
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				src := hosts(t, seg, fmt.Sprintf("src%d", s))[0]
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if err := src.Send(dst.LocalAddr(), []byte{byte(s), byte(i)}); err != nil {
							t.Errorf("Send: %v", err)
							return
						}
					}
				}(s)
			}
			wg.Wait()
			seen := len(drain(t, dst))
			if seen+sock.Overflow() != senders*per || seg.Overflow() != sock.Overflow() {
				t.Fatalf("received %d frames and dropped %d (segment: %d), want %d in all", seen, sock.Overflow(), seg.Overflow(), senders*per)
			}
			if want := min(ring, senders*per); seen != want {
				t.Fatalf("received %d frames, want %d", seen, want)
			}
		})
	}
}

// TestOverflowOutlivesTheSocket: the segment's overflow count keeps the
// drops of sockets since closed.
func TestOverflowOutlivesTheSocket(t *testing.T) {
	seg := NewSegment()
	eps := hosts(t, seg, "a", "b")
	a, b := eps[0], eps[1]
	for i := 0; i < HostRing+3; i++ {
		if err := a.Send(b.LocalAddr(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	if got := seg.Overflow(); got != 3 {
		t.Fatalf("Overflow = %d after %d frames into a ring of %d, want 3", got, HostRing+3, HostRing)
	}
}

// Property: any payload within the MTU survives a round trip unmodified.
func TestPropertyPayloadIntegrity(t *testing.T) {
	seg := NewSegment()
	eps := hosts(t, seg, "a", "b")
	a, b := eps[0], eps[1]
	f := func(payload []byte) bool {
		if len(payload) > a.MTU() {
			payload = payload[:a.MTU()]
		}
		if err := a.Send(b.LocalAddr(), payload); err != nil {
			return false
		}
		data, from, err := b.Recv(time.Second)
		return err == nil && from == a.LocalAddr() && bytes.Equal(data, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCloseConcurrentWithSend: a send racing the sender's Close either
// delivers before the close or returns ErrClosed after it, and a send
// after Close always returns ErrClosed. Run under -race.
func TestCloseConcurrentWithSend(t *testing.T) {
	seg := NewSegment()
	eps := hosts(t, seg, "src", "dst")
	src, dst := eps[0], eps[1]
	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 200; i++ {
			if err := src.Send(dst.LocalAddr(), []byte("ping")); err != nil && !errors.Is(err, transport.ErrClosed) {
				t.Errorf("Send: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		<-start
		src.Close()
	}()
	close(start)
	wg.Wait()
	if err := src.Send(dst.LocalAddr(), []byte("late")); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Send after Close: got %v, want ErrClosed", err)
	}
}
