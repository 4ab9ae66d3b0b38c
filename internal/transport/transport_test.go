package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"dodo/internal/simnet"
)

// transportPair builds two connected endpoints of the named kind.
func transportPair(t *testing.T, kind string) (a, b Transport) {
	t.Helper()
	switch kind {
	case "udp":
		ua, err := ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatalf("ListenUDP: %v", err)
		}
		ub, err := ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatalf("ListenUDP: %v", err)
		}
		t.Cleanup(func() { ua.Close(); ub.Close() })
		return ua, ub
	case "mem":
		n := NewNetwork()
		ea, eb := n.Host("a"), n.Host("b")
		t.Cleanup(func() { ea.Close(); eb.Close() })
		return ea, eb
	}
	t.Fatalf("unknown transport kind %q", kind)
	return nil, nil
}

func TestSendRecvBothKinds(t *testing.T) {
	for _, kind := range []string{"udp", "mem"} {
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
	for _, kind := range []string{"udp", "mem"} {
		t.Run(kind, func(t *testing.T) {
			_, b := transportPair(t, kind)
			start := time.Now()
			_, _, err := b.Recv(50 * time.Millisecond)
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("Recv = %v, want ErrTimeout", err)
			}
			if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
				t.Fatalf("Recv returned after %v, want >= ~50ms", elapsed)
			}
		})
	}
}

func TestSendTooLarge(t *testing.T) {
	for _, kind := range []string{"udp", "mem"} {
		t.Run(kind, func(t *testing.T) {
			a, b := transportPair(t, kind)
			err := a.Send(b.LocalAddr(), make([]byte, UDPMTU+1))
			if !errors.Is(err, ErrTooLarge) {
				t.Fatalf("Send oversize = %v, want ErrTooLarge", err)
			}
		})
	}
}

func TestRecvAfterCloseReturnsErrClosed(t *testing.T) {
	for _, kind := range []string{"udp", "mem"} {
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
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("Recv after close = %v, want ErrClosed", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Recv did not return after Close")
			}
		})
	}
}

func TestSendAfterClose(t *testing.T) {
	for _, kind := range []string{"udp", "mem"} {
		t.Run(kind, func(t *testing.T) {
			a, b := transportPair(t, kind)
			a.Close()
			if err := a.Send(b.LocalAddr(), []byte("x")); !errors.Is(err, ErrClosed) {
				t.Fatalf("Send after close = %v, want ErrClosed", err)
			}
		})
	}
}

func TestPerSenderOrderPreservedMem(t *testing.T) {
	n := NewNetwork()
	a, b := n.Host("a"), n.Host("b")
	const count = 100
	for i := 0; i < count; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	for i := 0; i < count; i++ {
		data, _, err := b.Recv(time.Second)
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if data[0] != byte(i) {
			t.Fatalf("frame %d carried %d, want in-order delivery", i, data[0])
		}
	}
}

func TestMemSendToUnknownHost(t *testing.T) {
	n := NewNetwork()
	a := n.Host("a")
	if err := a.Send("ghost", []byte("x")); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("Send to unknown = %v, want ErrNoRoute", err)
	}
}

func TestMemPartitionDropsSilently(t *testing.T) {
	n := NewNetwork()
	a, b := n.Host("a"), n.Host("b")
	n.Partition("b")
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatalf("Send to partitioned host = %v, want nil (silent drop)", err)
	}
	if _, _, err := b.Recv(30 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Recv on partitioned host = %v, want ErrTimeout", err)
	}
	n.Heal("b")
	if err := a.Send("b", []byte("y")); err != nil {
		t.Fatalf("Send after heal: %v", err)
	}
	data, _, err := b.Recv(time.Second)
	if err != nil || data[0] != 'y' {
		t.Fatalf("Recv after heal = %q, %v", data, err)
	}
}

func TestMemLossInjection(t *testing.T) {
	n := NewNetwork(WithFaults(simnet.Faults{LossRate: 1.0, Seed: 1}))
	a, b := n.Host("a"), n.Host("b")
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, _, err := b.Recv(30 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Recv with 100%% loss = %v, want ErrTimeout", err)
	}
}

func TestMemDuplicateInjection(t *testing.T) {
	n := NewNetwork(WithFaults(simnet.Faults{DupRate: 1.0, Seed: 1}))
	a, b := n.Host("a"), n.Host("b")
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := b.Recv(time.Second); err != nil {
			t.Fatalf("Recv copy %d: %v", i, err)
		}
	}
}

func TestMemCustomMTU(t *testing.T) {
	n := NewNetwork(WithMTU(1500))
	a := n.Host("a")
	n.Host("b")
	if got := a.MTU(); got != 1500 {
		t.Fatalf("MTU() = %d, want 1500", got)
	}
	if err := a.Send("b", make([]byte, 1501)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Send over custom MTU = %v, want ErrTooLarge", err)
	}
}

func TestMemHostReusesOpenEndpoint(t *testing.T) {
	n := NewNetwork()
	a1 := n.Host("a")
	a2 := n.Host("a")
	if a1 != a2 {
		t.Fatal("Host returned a new endpoint for an open address")
	}
	a1.Close()
	a3 := n.Host("a")
	if a3 == a1 {
		t.Fatal("Host returned the closed endpoint instead of a fresh one")
	}
}

func TestUDPLocalAddrIsResolvable(t *testing.T) {
	u, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	defer u.Close()
	if u.LocalAddr() == "" {
		t.Fatal("LocalAddr is empty")
	}
	if u.MTU() != UDPMTU {
		t.Fatalf("MTU = %d, want %d", u.MTU(), UDPMTU)
	}
}

// TestUDPRecvNamesEachSender: Recv formats a sender's address once and
// reuses it while the sender repeats, and the cached text is never
// handed out for a different sender. The name is the sender's own
// LocalAddr, so a reply addressed to it routes back.
func TestUDPRecvNamesEachSender(t *testing.T) {
	var us [3]*UDP
	for i := range us {
		u, err := ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatalf("ListenUDP: %v", err)
		}
		defer u.Close()
		us[i] = u
	}
	dst := us[0]
	for _, src := range []*UDP{us[1], us[1], us[2], us[1]} {
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
	u, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	defer u.Close()
	if err := u.Send("not-an-address", []byte("x")); err == nil {
		t.Fatal("Send to malformed address succeeded, want error")
	}
}

func TestConcurrentSendersMem(t *testing.T) {
	n := NewNetwork()
	dst := n.Host("dst")
	const senders, per = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			src := n.Host(fmt.Sprintf("src%d", s))
			for i := 0; i < per; i++ {
				if err := src.Send("dst", []byte{byte(s), byte(i)}); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	seen := 0
	for {
		_, _, err := dst.Recv(100 * time.Millisecond)
		if errors.Is(err, ErrTimeout) {
			break
		}
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		seen++
	}
	if seen != senders*per {
		t.Fatalf("received %d frames, want %d", seen, senders*per)
	}
}

// Property: any payload within MTU survives a mem round trip unmodified.
func TestPropertyMemPayloadIntegrity(t *testing.T) {
	n := NewNetwork()
	a, b := n.Host("a"), n.Host("b")
	f := func(payload []byte) bool {
		if len(payload) > a.MTU() {
			payload = payload[:a.MTU()]
		}
		if err := a.Send("b", payload); err != nil {
			return false
		}
		data, from, err := b.Recv(time.Second)
		return err == nil && from == "a" && bytes.Equal(data, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMemSendRecv(b *testing.B) {
	n := NewNetwork()
	src, dst := n.Host("a"), n.Host("b")
	payload := make([]byte, 1400)
	b.SetBytes(1400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := src.Send("b", payload); err != nil {
			b.Fatal(err)
		}
		if _, _, err := dst.Recv(time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUDPSendRecvLoopback(b *testing.B) {
	src, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	dst, err := ListenUDP("127.0.0.1:0")
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

// TestMemCloseConcurrentWithSend pins the all-atomic discipline on
// MemEndpoint.closed that the guarded-by pass verifies (dodo:atomic):
// Send's lock-free fast path and Close's Store race freely, and under
// -race this would fail if closed regressed to a plain bool. Either
// outcome per Send is legal — delivered before the close, or ErrClosed
// after — but never a torn read.
func TestMemCloseConcurrentWithSend(t *testing.T) {
	n := NewNetwork()
	src, dst := n.Host("src"), n.Host("dst")
	defer dst.Close()
	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 200; i++ {
			if err := src.Send("dst", []byte("ping")); err != nil && !errors.Is(err, ErrClosed) {
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
	if err := src.Send("dst", []byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close: got %v, want ErrClosed", err)
	}
}
