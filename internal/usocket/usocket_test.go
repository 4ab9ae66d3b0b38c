package usocket

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"dodo/internal/simnet"
	"dodo/internal/transport"
	"dodo/internal/wire"
)

func mustAton(t testing.TB, s string) MACAddr {
	t.Helper()
	m, err := Aton(s)
	if err != nil {
		t.Fatalf("Aton(%q): %v", s, err)
	}
	return m
}

func pair(t testing.TB) (*Segment, *Socket, *Socket, MACAddr, MACAddr) {
	t.Helper()
	seg := NewSegment()
	a, err := seg.Socket(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := seg.Socket(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	ma := mustAton(t, "00:00:00:00:00:0a")
	mb := mustAton(t, "00:00:00:00:00:0b")
	if err := a.Bind(ma); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind(mb); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return seg, a, b, ma, mb
}

func TestAtonNtoaRoundTrip(t *testing.T) {
	for _, s := range []string{"00:11:22:33:44:55", "aa:bb:cc:dd:ee:ff", "01:02:03:04:05:06"} {
		m, err := Aton(s)
		if err != nil {
			t.Fatalf("Aton(%q): %v", s, err)
		}
		if got := m.String(); got != s {
			t.Errorf("round trip of %q = %q", s, got)
		}
	}
}

func TestAtonRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "nope", "00:11:22:33:44", "zz:11:22:33:44:55"} {
		if _, err := Aton(s); err == nil {
			t.Errorf("Aton(%q) succeeded, want error", s)
		}
	}
}

func TestPropertyAtonNtoa(t *testing.T) {
	f := func(m MACAddr) bool {
		parsed, err := Aton(m.String())
		return err == nil && parsed == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecv(t *testing.T) {
	_, a, b, ma, mb := pair(t)
	if err := a.Connect(mb); err != nil {
		t.Fatal(err)
	}
	msg := []byte("frame one")
	n, err := a.Send(msg)
	if err != nil || n != len(msg) {
		t.Fatalf("Send = %d, %v", n, err)
	}
	buf := make([]byte, MTU)
	n, from, err := b.Recv(buf, time.Second)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if !bytes.Equal(buf[:n], msg) || from != ma {
		t.Fatalf("Recv = %q from %v, want %q from %v", buf[:n], from, msg, ma)
	}
}

func TestSendWithoutConnect(t *testing.T) {
	_, a, _, _, _ := pair(t)
	if _, err := a.Send([]byte("x")); !errors.Is(err, ErrNotConn) {
		t.Fatalf("Send unconnected = %v, want ErrNotConn", err)
	}
}

func TestSendToUnboundSocketFails(t *testing.T) {
	seg := NewSegment()
	s, err := seg.Socket(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SendTo(MACAddr{1}, []byte("x")); !errors.Is(err, ErrNotBound) {
		t.Fatalf("SendTo from unbound = %v, want ErrNotBound", err)
	}
}

func TestSendOversizeFrame(t *testing.T) {
	_, a, _, _, mb := pair(t)
	if _, err := a.SendTo(mb, make([]byte, MTU+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("SendTo oversize = %v, want ErrTooLarge", err)
	}
}

func TestSendToAbsentPeerSucceedsSilently(t *testing.T) {
	_, a, _, _, _ := pair(t)
	ghost := mustAton(t, "de:ad:be:ef:00:01")
	n, err := a.SendTo(ghost, []byte("void"))
	if err != nil || n != 4 {
		t.Fatalf("SendTo absent peer = %d, %v; want Ethernet-style silent drop", n, err)
	}
}

func TestBindConflict(t *testing.T) {
	seg := NewSegment()
	a, _ := seg.Socket(4, 4)
	b, _ := seg.Socket(4, 4)
	m := MACAddr{1, 2, 3, 4, 5, 6}
	if err := a.Bind(m); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind(m); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("second Bind = %v, want ErrAddrInUse", err)
	}
}

func TestRebindMovesAddress(t *testing.T) {
	seg := NewSegment()
	a, _ := seg.Socket(4, 4)
	m1 := MACAddr{1}
	m2 := MACAddr{2}
	if err := a.Bind(m1); err != nil {
		t.Fatal(err)
	}
	if err := a.Bind(m2); err != nil {
		t.Fatal(err)
	}
	// old address must be free again
	b, _ := seg.Socket(4, 4)
	if err := b.Bind(m1); err != nil {
		t.Fatalf("Bind to released address = %v", err)
	}
}

func TestRecvTimeout(t *testing.T) {
	_, _, b, _, _ := pair(t)
	buf := make([]byte, 16)
	if _, _, err := b.Recv(buf, 30*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Recv = %v, want ErrTimeout", err)
	}
}

func TestRecvQueueOverflowDrops(t *testing.T) {
	seg := NewSegment()
	a, _ := seg.Socket(4, 4)
	b, _ := seg.Socket(4, 2) // tiny receive queue
	ma, mb := MACAddr{0xa}, MACAddr{0xb}
	if err := a.Bind(ma); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind(mb); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := a.SendTo(mb, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Overflow(); got != 3 {
		t.Fatalf("Overflow() = %d, want 3 (capacity 2, 5 sent)", got)
	}
	buf := make([]byte, 4)
	for i := 0; i < 2; i++ {
		n, _, err := b.Recv(buf, time.Second)
		if err != nil || n != 1 || buf[0] != byte(i) {
			t.Fatalf("Recv %d = %v %v, want in-order survivor", i, buf[:n], err)
		}
	}
}

func TestIovecGatherScatter(t *testing.T) {
	_, a, b, _, mb := pair(t)
	if err := a.Connect(mb); err != nil {
		t.Fatal(err)
	}
	iov := []Iovec{{Base: []byte("dodo ")}, {Base: []byte("is ")}, {Base: []byte("a memory")}}
	n, err := a.SendIovec(iov)
	if err != nil || n != 16 {
		t.Fatalf("SendIovec = %d, %v", n, err)
	}
	p1, p2 := make([]byte, 8), make([]byte, 8)
	rn, _, err := b.RecvIovec([]Iovec{{Base: p1}, {Base: p2}}, time.Second)
	if err != nil || rn != 16 {
		t.Fatalf("RecvIovec = %d, %v", rn, err)
	}
	if string(p1)+string(p2) != "dodo is a memory" {
		t.Fatalf("scattered = %q + %q", p1, p2)
	}
}

func TestSendIovecOversize(t *testing.T) {
	_, a, _, _, mb := pair(t)
	if err := a.Connect(mb); err != nil {
		t.Fatal(err)
	}
	iov := []Iovec{{Base: make([]byte, MTU)}, {Base: make([]byte, 1)}}
	if _, err := a.SendIovec(iov); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("SendIovec oversize = %v, want ErrTooLarge", err)
	}
}

func TestRecvTruncatesToBuffer(t *testing.T) {
	_, a, b, _, mb := pair(t)
	if _, err := a.SendTo(mb, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	small := make([]byte, 4)
	n, _, err := b.Recv(small, time.Second)
	if err != nil || n != 4 || string(small) != "0123" {
		t.Fatalf("Recv into small buffer = %d %q %v", n, small, err)
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	_, _, b, _, _ := pair(t)
	done := make(chan error, 1)
	go func() {
		_, _, err := b.Recv(make([]byte, 4), 0)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	b.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv after close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not return after Close")
	}
}

// TestSegmentLoss: a lossy wire drops exactly the frames its seeded
// injector picks, so the same seed loses the same frames.
func TestSegmentLoss(t *testing.T) {
	seg, a, b, _, mb := pair(t)
	f := simnet.Faults{LossRate: 0.5, Seed: 7}
	seg.SetFaults(f)
	ref := f.NewInjector()
	var want []byte
	for i := 0; i < 20; i++ {
		if !ref.Next().Drop {
			want = append(want, byte(i))
		}
		if _, err := a.SendTo(mb, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []byte
	buf := make([]byte, 4)
	for {
		_, _, err := b.Recv(buf, 20*time.Millisecond)
		if errors.Is(err, ErrTimeout) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[0])
	}
	if !bytes.Equal(got, want) || len(want) == 0 || len(want) == 20 {
		t.Fatalf("received frames %v through a wire losing half, want the injector's %v", got, want)
	}
}

func TestBadBufferSizes(t *testing.T) {
	seg := NewSegment()
	if _, err := seg.Socket(0, 4); err == nil {
		t.Fatal("Socket(0,4) succeeded, want error")
	}
	if _, err := seg.Socket(4, -1); err == nil {
		t.Fatal("Socket(4,-1) succeeded, want error")
	}
}

func TestTransportAdapter(t *testing.T) {
	_, a, b, ma, mb := pair(t)
	ta, err := NewTransport(a)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTransport(b)
	if err != nil {
		t.Fatal(err)
	}
	if ta.LocalAddr() != ma.String() || tb.MTU() != MTU {
		t.Fatalf("adapter identity wrong: %s %d", ta.LocalAddr(), tb.MTU())
	}
	if err := ta.Send(mb.String(), []byte("over unet")); err != nil {
		t.Fatal(err)
	}
	data, from, err := tb.Recv(time.Second)
	if err != nil || string(data) != "over unet" || from != ma.String() {
		t.Fatalf("adapter Recv = %q from %q, %v", data, from, err)
	}
	if err := ta.Send("garbage-addr", []byte("x")); !errors.Is(err, transport.ErrNoRoute) {
		t.Fatalf("Send to garbage = %v, want ErrNoRoute", err)
	}
	if err := ta.Send(mb.String(), make([]byte, MTU+1)); !errors.Is(err, transport.ErrTooLarge) {
		t.Fatalf("oversize via adapter = %v, want ErrTooLarge", err)
	}
	if _, _, err := tb.Recv(20 * time.Millisecond); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("adapter timeout = %v, want transport.ErrTimeout", err)
	}
	tb.Close()
	if _, _, err := tb.Recv(time.Second); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("adapter recv after close = %v, want transport.ErrClosed", err)
	}
}

// TestTransportAdapterBlockedRecvReturnsErrClosed: a Recv(0) blocked on
// an empty queue returns transport.ErrClosed when the transport is
// closed, as the udp transport's does. An endpoint's receive loop
// blocks so, with no timeout, and counts on Close to end it.
func TestTransportAdapterBlockedRecvReturnsErrClosed(t *testing.T) {
	_, _, b, _, _ := pair(t)
	tb, err := NewTransport(b)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := tb.Recv(0)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	tb.Close()
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("blocked Recv after Close = %v, want transport.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a blocked Recv did not return after Close")
	}
}

func TestTransportAdapterRequiresBoundSocket(t *testing.T) {
	seg := NewSegment()
	s, _ := seg.Socket(4, 4)
	if _, err := NewTransport(s); !errors.Is(err, ErrNotBound) {
		t.Fatalf("NewTransport(unbound) = %v, want ErrNotBound", err)
	}
}

func BenchmarkSendRecvFrame(b *testing.B) {
	seg := NewSegment()
	sa, _ := seg.Socket(64, 64)
	sb, _ := seg.Socket(64, 64)
	ma, mb := MACAddr{0xa}, MACAddr{0xb}
	if err := sa.Bind(ma); err != nil {
		b.Fatal(err)
	}
	if err := sb.Bind(mb); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, MTU)
	buf := make([]byte, MTU)
	b.SetBytes(MTU)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sa.SendTo(mb, payload); err != nil {
			b.Fatal(err)
		}
		if _, _, err := sb.Recv(buf, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUNetSendVecRecv is one BulkData-sized frame through the
// transport adapter: the scatter-gather send the bulk sender uses, the
// receive its peer's loop makes, and the loop's giving the frame back.
func BenchmarkUNetSendVecRecv(b *testing.B) {
	ta, tb := unetPair(b)
	to := tb.LocalAddr()
	prefix, payload := make([]byte, 24), make([]byte, MTU-24)
	b.SetBytes(MTU)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ta.SendVec(to, prefix, payload); err != nil {
			b.Fatal(err)
		}
		data, _, err := tb.Recv(time.Second)
		if err != nil {
			b.Fatal(err)
		}
		wire.PutDataFrame(data)
	}
}

// unetPair returns transport adapters over the two sockets of pair.
func unetPair(tb testing.TB) (*UNet, *UNet) {
	tb.Helper()
	_, a, b, _, _ := pair(tb)
	ta, err := NewTransport(a)
	if err != nil {
		tb.Fatal(err)
	}
	tb2, err := NewTransport(b)
	if err != nil {
		tb.Fatal(err)
	}
	return ta, tb2
}
