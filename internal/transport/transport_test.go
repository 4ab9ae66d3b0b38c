// The transport contract, checked over every implementation: kernel UDP
// and U-Net on the emulated segment. The tests live in an external
// package because usocket, which supplies the segment, imports
// transport.
package transport_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dodo/internal/transport"
	"dodo/internal/usocket"
	"dodo/internal/wire"
)

// kinds names the implementations: "mem" is U-Net on the in-memory
// emulated segment.
var kinds = []string{"udp", "mem"}

// transportPair builds two connected endpoints of the named kind.
func transportPair(t *testing.T, kind string) (a, b transport.Transport) {
	t.Helper()
	switch kind {
	case "udp":
		ua, err := transport.ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatalf("ListenUDP: %v", err)
		}
		ub, err := transport.ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatalf("ListenUDP: %v", err)
		}
		t.Cleanup(func() { ua.Close(); ub.Close() })
		return ua, ub
	case "mem":
		seg := usocket.NewSegment()
		ea, err := seg.Host("a")
		if err != nil {
			t.Fatalf("Host: %v", err)
		}
		eb, err := seg.Host("b")
		if err != nil {
			t.Fatalf("Host: %v", err)
		}
		t.Cleanup(func() { ea.Close(); eb.Close() })
		return ea, eb
	}
	t.Fatalf("unknown transport kind %q", kind)
	return nil, nil
}

func TestSendRecvBothKinds(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			a, b := transportPair(t, kind)
			msg := []byte("harvest the idle memory")
			if err := a.Send(b.LocalAddr(), msg); err != nil {
				t.Fatalf("Send: %v", err)
			}
			data, from, err := b.Recv(2 * time.Second)
			if err != nil {
				t.Fatalf("Recv: %v", err)
			}
			if !bytes.Equal(data, msg) {
				t.Fatalf("Recv data = %q, want %q", data, msg)
			}
			if from != a.LocalAddr() {
				t.Fatalf("Recv from = %q, want %q", from, a.LocalAddr())
			}
		})
	}
}

func TestRecvTimeout(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			_, b := transportPair(t, kind)
			start := time.Now()
			_, _, err := b.Recv(50 * time.Millisecond)
			if !errors.Is(err, transport.ErrTimeout) {
				t.Fatalf("Recv = %v, want ErrTimeout", err)
			}
			if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
				t.Fatalf("Recv returned after %v, want >= ~50ms", elapsed)
			}
		})
	}
}

func TestSendTooLarge(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			a, b := transportPair(t, kind)
			err := a.Send(b.LocalAddr(), make([]byte, a.MTU()+1))
			if !errors.Is(err, transport.ErrTooLarge) {
				t.Fatalf("Send oversize = %v, want ErrTooLarge", err)
			}
		})
	}
}

func TestRecvAfterCloseReturnsErrClosed(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			_, b := transportPair(t, kind)
			done := make(chan error, 1)
			go func() {
				_, _, err := b.Recv(0)
				done <- err
			}()
			time.Sleep(20 * time.Millisecond)
			b.Close()
			select {
			case err := <-done:
				if !errors.Is(err, transport.ErrClosed) {
					t.Fatalf("Recv after close = %v, want ErrClosed", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Recv did not return after Close")
			}
		})
	}
}

func TestSendAfterClose(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			a, b := transportPair(t, kind)
			a.Close()
			if err := a.Send(b.LocalAddr(), []byte("x")); !errors.Is(err, transport.ErrClosed) {
				t.Fatalf("Send after close = %v, want ErrClosed", err)
			}
		})
	}
}

func TestUDPLocalAddrIsResolvable(t *testing.T) {
	u, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	defer u.Close()
	if u.LocalAddr() == "" {
		t.Fatal("LocalAddr is empty")
	}
	if u.MTU() != transport.UDPMTU {
		t.Fatalf("MTU = %d, want %d", u.MTU(), transport.UDPMTU)
	}
}

// TestUDPRecvNamesEachSender: Recv formats a sender's address once and
// reuses it while the sender repeats, and the cached text is never
// handed out for a different sender. The name is the sender's own
// LocalAddr, so a reply addressed to it routes back.
func TestUDPRecvNamesEachSender(t *testing.T) {
	var us [3]*transport.UDP
	for i := range us {
		u, err := transport.ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatalf("ListenUDP: %v", err)
		}
		defer u.Close()
		us[i] = u
	}
	dst := us[0]
	for _, src := range []*transport.UDP{us[1], us[1], us[2], us[1]} {
		if err := src.Send(dst.LocalAddr(), []byte("x")); err != nil {
			t.Fatalf("Send: %v", err)
		}
		_, from, err := dst.Recv(time.Second)
		if err != nil || from != src.LocalAddr() {
			t.Fatalf("Recv from %s names %q (%v)", src.LocalAddr(), from, err)
		}
	}
	// The frame copy is all a datagram from a repeated sender costs.
	// AllocsPerRun calls Recv once more than it counts.
	const runs = 50
	for i := 0; i <= runs; i++ {
		if err := us[1].Send(dst.LocalAddr(), []byte("x")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if _, _, err := dst.Recv(time.Second); err != nil {
			t.Fatalf("Recv: %v", err)
		}
	})
	if allocs > 1 {
		t.Errorf("Recv from a repeated sender = %v allocs, want only the frame", allocs)
	}
}

func TestUDPSendToMalformedAddr(t *testing.T) {
	u, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	defer u.Close()
	if err := u.Send("not-an-address", []byte("x")); err == nil {
		t.Fatal("Send to malformed address succeeded, want error")
	}
}

// TestUDPRecvHandsOverPooledFrame: a datagram of wire.MinPooledFrame
// bytes or more comes back in the frame it landed in, one sized for the
// largest datagram, and the next Recv lands in another: what Recv
// returned is the caller's until it gives it to wire.PutFrame.
func TestUDPRecvHandsOverPooledFrame(t *testing.T) {
	a, b := transportPair(t, "udp")
	first := bytes.Repeat([]byte{0xAA}, wire.MinPooledFrame)
	second := bytes.Repeat([]byte{0xBB}, 32<<10)
	got := make([][]byte, 2)
	for i, msg := range [][]byte{first, second} {
		if err := a.Send(b.LocalAddr(), msg); err != nil {
			t.Fatal(err)
		}
		data, _, err := b.Recv(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if cap(data) <= transport.UDPMTU {
			t.Fatalf("a %d-byte datagram came back with capacity %d, not in the frame it landed in", len(msg), cap(data))
		}
		got[i] = data
	}
	if !bytes.Equal(got[0], first) {
		t.Fatal("the next Recv wrote into the frame the previous one handed over")
	}
	if !bytes.Equal(got[1], second) {
		t.Fatal("Recv returned bytes that were not sent")
	}
	for _, f := range got {
		wire.PutFrame(f)
	}
}

// TestUDPRecvCopiesSmallDatagram: a datagram under wire.MinPooledFrame
// comes back as a copy of its own size, which the next Recv does not
// write into.
func TestUDPRecvCopiesSmallDatagram(t *testing.T) {
	a, b := transportPair(t, "udp")
	small := []byte("harvest the idle memory")
	if err := a.Send(b.LocalAddr(), small); err != nil {
		t.Fatal(err)
	}
	got, _, err := b.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if cap(got) >= wire.MinPooledFrame {
		t.Fatalf("a %d-byte datagram came back with capacity %d, want a copy of its size", len(small), cap(got))
	}
	if err := a.Send(b.LocalAddr(), bytes.Repeat([]byte{0xCC}, len(small))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Recv(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, small) {
		t.Fatal("the next Recv wrote into the copy the previous one returned")
	}
}

// TestUDPSendVec: SendVec sends its prefix and payload as one
// datagram, refuses one over UDPMTU, and refuses any once closed.
func TestUDPSendVec(t *testing.T) {
	a, b := transportPair(t, "udp")
	u := a.(*transport.UDP)
	prefix := []byte("header:")
	payload := bytes.Repeat([]byte{0xDD}, 4<<10)
	if err := u.SendVec(b.LocalAddr(), prefix, payload); err != nil {
		t.Fatalf("SendVec: %v", err)
	}
	data, _, err := b.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append([]byte(nil), prefix...), payload...); !bytes.Equal(data, want) {
		t.Fatalf("got a %d-byte datagram, want the %d bytes of prefix and payload", len(data), len(want))
	}
	wire.PutFrame(data)
	if err := u.SendVec(b.LocalAddr(), prefix, make([]byte, transport.UDPMTU)); !errors.Is(err, transport.ErrTooLarge) {
		t.Fatalf("SendVec oversize = %v, want ErrTooLarge", err)
	}
	u.Close()
	if err := u.SendVec(b.LocalAddr(), prefix, payload); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("SendVec after close = %v, want ErrClosed", err)
	}
}

func BenchmarkUDPSendRecvLoopback(b *testing.B) {
	src, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	dst, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer dst.Close()
	payload := make([]byte, 1400)
	b.SetBytes(1400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := src.Send(dst.LocalAddr(), payload); err != nil {
			b.Fatal(err)
		}
		if _, _, err := dst.Recv(time.Second); err != nil {
			b.Fatal(err)
		}
	}
}
