package bulk

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"dodo/internal/locks"
	"dodo/internal/simnet"
	"dodo/internal/usocket"
)

// TestEagerTransferDelivers: the receiver pre-registers the transfer
// under its own id, the sender blasts without an offer, and the bytes
// assemble straight into the caller's buffer.
func TestEagerTransferDelivers(t *testing.T) {
	a, b := endpointPair(t)
	data := make([]byte, 200<<10)
	rand.New(rand.NewSource(11)).Read(data)

	id := b.NextTransferID()
	dst := make([]byte, len(data))
	window, err := b.ExpectBulkInto(dst, a.LocalAddr(), id, a.ChunkSize())
	if err != nil {
		t.Fatalf("ExpectBulkInto: %v", err)
	}
	if window <= 0 {
		t.Fatalf("ExpectBulkInto window = %d, want > 0", window)
	}
	done := make(chan error, 1)
	go func() { done <- a.SendBulkEager(b.LocalAddr(), id, data, a.ChunkSize(), window) }()
	n, err := b.RecvBulkInto(dst, a.LocalAddr(), id, 10*time.Second)
	if err != nil {
		t.Fatalf("RecvBulkInto: %v", err)
	}
	if n != len(data) || !bytes.Equal(dst, data) {
		t.Fatalf("eager transfer delivered %d bytes, equal=%v", n, bytes.Equal(dst, data))
	}
	if err := <-done; err != nil {
		t.Fatalf("SendBulkEager: %v", err)
	}
}

// TestEagerTransferDegradesToNackUnderLoss: with 35% frame loss the
// eager first window cannot arrive whole, so the transfer must fall
// back to the selective-NACK recovery protocol — and still deliver
// byte-identical contents. This is the interop guarantee behind the
// eager fast path: skipping the offer skips a frame, never the
// reliability machinery.
func TestEagerTransferDegradesToNackUnderLoss(t *testing.T) {
	seg := usocket.NewSegment()
	seg.SetFaults(simnet.Faults{LossRate: 0.35, Seed: 77})
	a := NewEndpoint(host(t, seg, "a"), fastCfg(), nil)
	b := NewEndpoint(host(t, seg, "b"), fastCfg(), nil)
	t.Cleanup(func() { a.Close(); b.Close() })

	data := make([]byte, 96<<10)
	rand.New(rand.NewSource(7)).Read(data)
	for i := 0; i < 3; i++ {
		id := b.NextTransferID()
		dst := make([]byte, len(data))
		window, err := b.ExpectBulkInto(dst, seg.Addr("a"), id, a.ChunkSize())
		if err != nil {
			t.Fatalf("ExpectBulkInto %d: %v", i, err)
		}
		done := make(chan error, 1)
		go func() { done <- a.SendBulkEager(seg.Addr("b"), id, data, a.ChunkSize(), window) }()
		if _, err := b.RecvBulkInto(dst, seg.Addr("a"), id, 30*time.Second); err != nil {
			t.Fatalf("RecvBulkInto %d through 35%% loss: %v", i, err)
		}
		if !bytes.Equal(dst, data) {
			t.Fatalf("transfer %d: bytes corrupted by loss recovery", i)
		}
		if err := <-done; err != nil {
			t.Fatalf("SendBulkEager %d: %v", i, err)
		}
	}
}

// TestCancelExpect: a canceled registration fails its waiter and frees
// the (from, id) key for reuse.
func TestCancelExpect(t *testing.T) {
	a, b := endpointPair(t)
	id := b.NextTransferID()
	dst := make([]byte, 4096)
	if _, err := b.ExpectBulkInto(dst, a.LocalAddr(), id, 1024); err != nil {
		t.Fatalf("ExpectBulkInto: %v", err)
	}
	b.CancelExpect(a.LocalAddr(), id)
	if _, err := b.RecvBulkInto(dst, a.LocalAddr(), id, 200*time.Millisecond); err == nil {
		t.Fatal("RecvBulkInto after CancelExpect succeeded, want error")
	}
	// The key is free again: a fresh registration must not collide.
	if _, err := b.ExpectBulkInto(dst, a.LocalAddr(), id, 1024); err != nil {
		t.Fatalf("re-register after cancel: %v", err)
	}
	b.CancelExpect(a.LocalAddr(), id)
}

// TestExpectBulkIntoRejectsDuplicate: double registration of one
// (from, id) key is a caller bug and must error, not corrupt state.
func TestExpectBulkIntoRejectsDuplicate(t *testing.T) {
	a, b := endpointPair(t)
	id := b.NextTransferID()
	dst := make([]byte, 4096)
	if _, err := b.ExpectBulkInto(dst, a.LocalAddr(), id, 1024); err != nil {
		t.Fatalf("first ExpectBulkInto: %v", err)
	}
	if _, err := b.ExpectBulkInto(dst, a.LocalAddr(), id, 1024); err == nil {
		t.Fatal("duplicate ExpectBulkInto succeeded, want error")
	}
	b.CancelExpect(a.LocalAddr(), id)
}

// TestRecvBulkIntoOfferDrivenTransfer: RecvBulkInto also serves a
// transfer the sender announces with an offer (the write direction, and
// what benchmark/probes.go's probeBulk drives), copying the assembled
// transfer into the caller's buffer.
func TestRecvBulkIntoOfferDrivenTransfer(t *testing.T) {
	a, b := endpointPair(t)
	data := make([]byte, 48<<10)
	rand.New(rand.NewSource(3)).Read(data)
	id := a.NextTransferID()
	done := make(chan error, 1)
	go func() { done <- a.SendBulk(b.LocalAddr(), id, data) }()
	dst := make([]byte, len(data))
	n, err := b.RecvBulkInto(dst, a.LocalAddr(), id, 10*time.Second)
	if err != nil || n != len(data) || !bytes.Equal(dst, data) {
		t.Fatalf("RecvBulkInto offer-driven = %d, %v, equal=%v", n, err, bytes.Equal(dst[:max(n, 0)], data[:max(n, 0)]))
	}
	if err := <-done; err != nil {
		t.Fatalf("SendBulk: %v", err)
	}
}

// BenchmarkEagerTransfer64KBUNet is the fast-path twin of
// BenchmarkBulkTransfer64KBUNet: no offer, packets assemble into a
// pre-registered caller buffer.
func BenchmarkEagerTransfer64KBUNet(b *testing.B) {
	seg := usocket.NewSegment()
	a := NewEndpoint(host(b, seg, "a"), fastCfg(), nil)
	dst := NewEndpoint(host(b, seg, "b"), fastCfg(), nil)
	defer a.Close()
	defer dst.Close()
	data := make([]byte, 64<<10)
	buf := make([]byte, 64<<10)
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eagerTransfer(b, a, dst, data, buf)
	}
}

// eagerTransfer runs one eager transfer of data from a into buf at dst
// and fails tb unless both sides report success.
func eagerTransfer(tb testing.TB, a, dst *Endpoint, data, buf []byte) {
	id := dst.NextTransferID()
	window, err := dst.ExpectBulkInto(buf, a.LocalAddr(), id, a.ChunkSize())
	if err != nil {
		tb.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := dst.RecvBulkInto(buf, a.LocalAddr(), id, 30*time.Second)
		done <- err
	}()
	if err := a.SendBulkEager(dst.LocalAddr(), id, data, a.ChunkSize(), window); err != nil {
		tb.Fatal(err)
	}
	if err := <-done; err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkEagerTransfer128KBUNet is the eager transfer at the framing
// the per-frame budget is about: a 128 KB region over two usocket
// endpoints is 91 BulkData frames, two windows.
func BenchmarkEagerTransfer128KBUNet(b *testing.B) {
	a, dst := unetEndpointPair(b, Config{})
	data := make([]byte, 128<<10)
	buf := make([]byte, 128<<10)
	b.SetBytes(128 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eagerTransfer(b, a, dst, data, buf)
	}
}

// TestEagerTransferAllocationBudgetUNet holds the per-frame allocation
// budget end to end: a 128 KB eager transfer between two usocket
// endpoints — sender, both receive loops, window acks and the
// completion included — allocates nothing per data frame in steady
// state. The frame is a recycled one, and what is left is the state of
// the transfer and of its two windows: 45 allocations measured for 91
// frames, held here at under two for every three frames. (Before the
// frame was recycled it was 137; before PR 13, with an address parse and
// format, a receive timer and a NACK timer per packet, about 1,710.)
func TestEagerTransferAllocationBudgetUNet(t *testing.T) {
	if locks.CheckEnabled {
		t.Skip("the lockcheck runtime allocates on every Lock")
	}
	a, dst := unetEndpointPair(t, Config{})
	data := make([]byte, 128<<10)
	rand.New(rand.NewSource(5)).Read(data)
	buf := make([]byte, len(data))
	frames := (len(data) + a.ChunkSize() - 1) / a.ChunkSize()

	perTransfer := testing.AllocsPerRun(50, func() { eagerTransfer(t, a, dst, data, buf) })
	if !bytes.Equal(buf, data) {
		t.Fatal("eager transfer over U-Net corrupted")
	}
	budget := float64(frames * 2 / 3)
	if raceEnabled {
		budget += float64(frames / 2) // the pool drops a quarter of the frames put back
	}
	if perTransfer > budget {
		t.Errorf("128 KB eager transfer: %.0f allocations over %d data frames, want at most %.0f: a frame is being allocated",
			perTransfer, frames, budget)
	}
}
