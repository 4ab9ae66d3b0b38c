package usocket

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"dodo/internal/wire"
)

// sendVec sends one MTU-sized frame of b's from a to the socket at mb
// through the gathering send, the one that takes its frame from the pool.
func sendVec(t *testing.T, a *Socket, mb MACAddr, b byte) {
	t.Helper()
	iov := []Iovec{{Base: bytes.Repeat([]byte{b}, 24)}, {Base: bytes.Repeat([]byte{b}, MTU-24)}}
	if _, err := a.SendIovecTo(mb, iov); err != nil {
		t.Fatal(err)
	}
}

// sameArray reports whether two frames start at the same address.
func sameArray(a, b []byte) bool { return &a[:1][0] == &b[:1][0] }

// TestHeldFrameSurvivesRecycling: a frame RecvFrame handed out belongs
// to its caller until the caller gives it back. While it is held, a
// thousand further frames cross the same segment and are recycled, and
// none of them is gathered into the held one.
func TestHeldFrameSurvivesRecycling(t *testing.T) {
	_, a, b, _, mb := pair(t)
	sendVec(t, a, mb, 0xee)
	held, _, err := b.RecvFrame(time.Second)
	if err != nil || cap(held) != wire.DataFrameCap {
		t.Fatalf("RecvFrame = %d bytes of capacity %d, %v; want a data frame", len(held), cap(held), err)
	}
	want := append([]byte(nil), held...)
	for i := 0; i < 1000; i++ {
		sendVec(t, a, mb, byte(i))
		f, _, err := b.RecvFrame(time.Second)
		if err != nil || len(f) != MTU || f[0] != byte(i) || f[MTU-1] != byte(i) {
			t.Fatalf("frame %d = %d bytes, %v", i, len(f), err)
		}
		if sameArray(f, held) {
			t.Fatalf("frame %d was gathered into the frame still held", i)
		}
		wire.PutFrame(f)
	}
	if !bytes.Equal(held, want) {
		t.Fatal("the held frame changed while later frames were recycled")
	}
}

// TestRefusedFrameIsNotPooled: a frame the receive queue refuses — the
// ring is full, or the socket closed between the sender's lookup and
// its deposit — was not delivered and does not go to the pool either,
// and the frames the ring did take are still whole after the pool has
// turned over many times.
func TestRefusedFrameIsNotPooled(t *testing.T) {
	seg := NewSegment()
	a, _ := seg.Socket(4, 4)
	small, _ := seg.Socket(4, 4)
	other, _ := seg.Socket(4, 64)
	ma, ms, mo := MACAddr{1}, MACAddr{2}, MACAddr{3}
	for s, m := range map[*Socket]MACAddr{a: ma, small: ms, other: mo} {
		if err := s.Bind(m); err != nil {
			t.Fatal(err)
		}
		defer s.Close()
	}
	for i := 0; i < 7; i++ {
		sendVec(t, a, ms, byte(0x10+i))
	}
	if got := small.Overflow(); got != 3 {
		t.Fatalf("Overflow = %d after 7 frames into a ring of 4, want 3", got)
	}
	refused := wire.GetDataFrame()[:MTU]
	closed, _ := seg.Socket(4, 4)
	closed.Close()
	closed.deposit(ma, refused)

	var delivered [][]byte
	for i := 0; i < 200; i++ {
		sendVec(t, a, mo, 0xff)
		f, _, err := other.RecvFrame(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if sameArray(f, refused) {
			t.Fatal("a frame refused by a closed socket came back out of the pool")
		}
		delivered = append(delivered, f[:1])
		wire.PutFrame(f)
	}
	for i := 0; i < 4; i++ {
		f, _, err := small.RecvFrame(time.Second)
		if err != nil || len(f) != MTU || !bytes.Equal(f, bytes.Repeat([]byte{byte(0x10 + i)}, MTU)) {
			t.Fatalf("queued frame %d = %d bytes, %v; want %d bytes of %#x", i, len(f), err, MTU, 0x10+i)
		}
		for _, d := range delivered {
			if sameArray(f, d) {
				t.Fatalf("queued frame %d was also handed out by the pool", i)
			}
		}
	}
	if _, _, err := small.RecvFrame(10 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("RecvFrame past the ring = %v, want ErrTimeout: an overflowed frame was queued", err)
	}
}

// TestSendParsesTheDestinationItWasGiven: the adapter keeps the
// destination it parsed last, and Send is called from many goroutines
// at once. Four senders alternating between two peers must land every
// frame where it was addressed. Run under -race.
func TestSendParsesTheDestinationItWasGiven(t *testing.T) {
	const senders, frames = 4, 500
	seg := NewSegment()
	socks := make([]*UNet, 3)
	for i := range socks {
		s, err := seg.Socket(4, senders*frames)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Bind(MACAddr{5: byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
		if socks[i], err = NewTransport(s); err != nil {
			t.Fatal(err)
		}
		defer socks[i].Close()
	}
	src, peers := socks[0], socks[1:]
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				// The frame names the peer it is meant for.
				p := (g + i) % 2
				var err error
				if i%3 == 0 {
					err = src.SendVec(peers[p].LocalAddr(), []byte{byte(p)}, []byte{byte(g)})
				} else {
					err = src.Send(peers[p].LocalAddr(), []byte{byte(p), byte(g)})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for p, peer := range peers {
		for i := 0; i < senders*frames/2; i++ {
			data, from, err := peer.Recv(time.Second)
			if err != nil {
				t.Fatalf("peer %d, frame %d: %v", p, i, err)
			}
			if len(data) != 2 || int(data[0]) != p || from != src.LocalAddr() {
				t.Fatalf("peer %d received %v from %s: a frame addressed to peer %d", p, data, from, data[0])
			}
		}
		if _, _, err := peer.Recv(10 * time.Millisecond); err == nil {
			t.Fatalf("peer %d received more frames than were addressed to it", p)
		}
	}
}
