package bulk

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dodo/internal/sim"
	"dodo/internal/transport"
	"dodo/internal/wire"
)

// The tests here run the receive side of the protocol in virtual time.
// The endpoint under test gets a sim.VirtualClock; its peer is a bare
// fabric endpoint, so everything the endpoint sends can be read back
// and decoded; packets and offers are fed to the handlers directly, on
// the test's goroutine, which is also the one that advances the clock
// and so the one every timer fires on.

const (
	vtNackDelay = 100 * time.Millisecond
	vtChunk     = 100
)

func virtualEndpoint(t *testing.T) (ep *Endpoint, peer *transport.MemEndpoint, clock *sim.VirtualClock) {
	t.Helper()
	clock = sim.NewVirtualClock(time.Unix(0, 0))
	n := transport.NewNetwork()
	peer = n.Host("peer")
	ep = NewEndpoint(n.Host("ep"), Config{Clock: clock, NackDelay: vtNackDelay, RecvWindow: 8}, nil)
	t.Cleanup(func() { ep.Close(); peer.Close() })
	return ep, peer, clock
}

// sentTo drains and decodes what the endpoint has sent to peer.
func sentTo(t *testing.T, peer *transport.MemEndpoint) []wire.Message {
	t.Helper()
	var msgs []wire.Message
	for {
		data, _, err := peer.Recv(5 * time.Millisecond)
		if errors.Is(err, transport.ErrTimeout) {
			return msgs
		}
		if err != nil {
			t.Fatalf("reading the peer's queue: %v", err)
		}
		_, msg, err := wire.Decode(data)
		if err != nil {
			t.Fatalf("endpoint sent an undecodable frame: %v", err)
		}
		msgs = append(msgs, msg)
	}
}

func kinds(msgs []wire.Message) string {
	s := ""
	for _, m := range msgs {
		s += fmt.Sprintf("%T ", m)
	}
	return s
}

// vtOffer is a valid offer of n bytes in vtChunk packets.
func vtOffer(id uint64, n int) *wire.BulkOffer {
	return &wire.BulkOffer{TransferID: id, TotalLen: uint64(n), ChunkSize: vtChunk, Window: 8}
}

// expectDone fails t unless what the endpoint sent to peer since the
// last read is exactly one BulkDone for id with status st.
func expectDone(t *testing.T, peer *transport.MemEndpoint, what string, id uint64, st wire.Status) {
	t.Helper()
	msgs := sentTo(t, peer)
	if len(msgs) == 1 {
		if done, ok := msgs[0].(*wire.BulkDone); ok && done.TransferID == id && done.Status == st {
			return
		}
	}
	t.Errorf("%s answered with %q %v, want one BulkDone{%d, %v}", what, kinds(msgs), msgs, id, st)
}

func rxCount(ep *Endpoint) (transfers, tombs, queued int) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.rx), len(ep.tombs), len(ep.tombQueue)
}

// TestStalledWindowNacksOneDelayAfterLastPacket: packets only stamp the
// transfer's progress time, yet the selective NACK still goes out
// NackDelay after the last new packet — not after the first, which is
// when the one timer was armed — and names exactly the window's
// missing packets.
func TestStalledWindowNacksOneDelayAfterLastPacket(t *testing.T) {
	ep, peer, clock := virtualEndpoint(t)
	dst := make([]byte, 6*vtChunk)
	const id = 7
	if _, err := ep.ExpectBulkInto(dst, "peer", id, vtChunk); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, vtChunk)
	// Packets 0, 1 and 3 arrive 40 ms apart; 2, 4 and 5 are lost.
	for i, seq := range []uint32{0, 1, 3} {
		if i > 0 {
			clock.Advance(40 * time.Millisecond)
		}
		ep.handleData("peer", id, seq, payload)
	}
	// The timer armed by packet 0 fires 20 ms from now and must only
	// sleep on: up to the last nanosecond before NackDelay no NACK.
	clock.Advance(vtNackDelay - time.Nanosecond)
	if _, nacks, _ := ep.Stats(); nacks != 0 {
		t.Fatalf("%d NACKs sent less than NackDelay after the last new packet", nacks)
	}
	if msgs := sentTo(t, peer); len(msgs) != 0 {
		t.Fatalf("endpoint sent %s before the stall interval ran out", kinds(msgs))
	}
	clock.Advance(time.Nanosecond)
	msgs := sentTo(t, peer)
	if len(msgs) != 1 {
		t.Fatalf("at NackDelay after the last new packet the endpoint sent %q, want one BulkNack", kinds(msgs))
	}
	nack, ok := msgs[0].(*wire.BulkNack)
	if !ok || nack.TransferID != id || fmt.Sprint(nack.Missing) != "[2 4 5]" {
		t.Fatalf("sent %#v, want BulkNack{%d, [2 4 5]}", msgs[0], id)
	}
	// Still stalled: the NACK repeats every NackDelay.
	clock.Advance(vtNackDelay)
	if _, nacks, _ := ep.Stats(); nacks != 2 {
		t.Fatalf("%d NACKs after two stall intervals, want 2", nacks)
	}
	// The resupplied packets complete the transfer and stop the timer.
	sentTo(t, peer)
	for _, seq := range []uint32{2, 4, 5} {
		ep.handleData("peer", id, seq, payload)
	}
	if n, err := ep.RecvBulkInto(dst, "peer", id, time.Second); err != nil || n != len(dst) {
		t.Fatalf("RecvBulkInto = %d, %v", n, err)
	}
	clock.Advance(10 * vtNackDelay)
	if _, nacks, _ := ep.Stats(); nacks != 2 {
		t.Fatalf("%d NACKs, want none after completion", nacks-2)
	}
}

// TestSteadyArrivalArmsTimersPerIntervalNotPerPacket: 200 packets a
// tenth of NackDelay apart span 20 stall intervals. The NACK timer is
// armed about once per interval — each firing finds recent progress and
// sleeps on for the remainder — not stopped and re-created per packet,
// and no NACK is sent.
func TestSteadyArrivalArmsTimersPerIntervalNotPerPacket(t *testing.T) {
	ep, peer, clock := virtualEndpoint(t)
	const npkts, id = 200, 9
	dst := make([]byte, npkts*vtChunk)
	if _, err := ep.ExpectBulkInto(dst, "peer", id, vtChunk); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, vtChunk)
	before := clock.Scheduled()
	for seq := uint32(0); seq < npkts-1; seq++ {
		ep.handleData("peer", id, seq, payload)
		clock.Advance(vtNackDelay / 10)
	}
	armed := clock.Scheduled() - before
	intervals := uint64(npkts / 10)
	if armed > 2*intervals {
		t.Errorf("%d timers armed for %d packets over %d stall intervals, want O(intervals)", armed, npkts-1, intervals)
	}
	if _, nacks, _ := ep.Stats(); nacks != 0 {
		t.Errorf("%d NACKs sent while packets arrived steadily", nacks)
	}
	for _, m := range sentTo(t, peer) {
		if nack, ok := m.(*wire.BulkNack); !ok || len(nack.Missing) != 0 {
			t.Errorf("endpoint sent %#v during a loss-free transfer, want only window acks", m)
		}
	}
}

// TestTombstoneAnswersUntilTTLThenGoes: a consumed transfer costs the
// endpoint no rxTransfer and no timer of its own, only a key in the
// tombstone table. For 30 s a re-offer and a stale data packet are each
// answered with one Done, a duplicated announcement fails ErrConsumed;
// past the TTL the record is gone.
func TestTombstoneAnswersUntilTTLThenGoes(t *testing.T) {
	ep, peer, clock := virtualEndpoint(t)
	const id = 11
	dst := make([]byte, 2*vtChunk)
	if _, err := ep.ExpectBulkInto(dst, "peer", id, vtChunk); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, vtChunk)
	ep.handleData("peer", id, 0, payload)
	ep.handleData("peer", id, 1, payload)
	if n, err := ep.RecvBulkInto(dst, "peer", id, time.Second); err != nil || n != len(dst) {
		t.Fatalf("RecvBulkInto = %d, %v", n, err)
	}
	sentTo(t, peer)
	armedAtConsumption := clock.Scheduled()
	if rx, tombs, queued := rxCount(ep); rx != 0 || tombs != 1 || queued != 1 {
		t.Fatalf("after consumption: %d transfers, %d/%d tombstones, want 0 and 1/1", rx, tombs, queued)
	}

	clock.Advance(29 * time.Second)
	ep.handleOffer("peer", vtOffer(id, len(dst)))
	expectDone(t, peer, "re-offer at 29 s", id, wire.StatusOK)
	ep.handleData("peer", id, 1, payload)
	expectDone(t, peer, "stale data at 29 s", id, wire.StatusOK)
	if _, err := ep.RecvBulk("peer", id, time.Second); !errors.Is(err, ErrConsumed) {
		t.Errorf("duplicated announcement at 29 s: RecvBulk = %v, want ErrConsumed", err)
	}
	if rx, _, _ := rxCount(ep); rx != 0 {
		t.Errorf("answering duplicates left %d transfers in the table", rx)
	}

	clock.Advance(time.Second)
	if rx, tombs, queued := rxCount(ep); rx != 0 || tombs != 0 || queued != 0 {
		t.Errorf("after the TTL: %d transfers, %d/%d tombstones, want none", rx, tombs, queued)
	}
	if armed := clock.Scheduled() - armedAtConsumption; armed != 0 {
		t.Errorf("%d timers armed between consumption and expiry, want 0: the sweep timer was armed with the record", armed)
	}
}

// TestTombstoneTableIsBounded: the table holds at most maxTombstones
// records, dropping the oldest, and however many transfers finish in
// one TTL they share one sweep timer.
func TestTombstoneTableIsBounded(t *testing.T) {
	ep, _, clock := virtualEndpoint(t)
	before := clock.Scheduled()
	ep.mu.Lock()
	for id := uint64(0); id < maxTombstones+10; id++ {
		ep.entombLocked(xferKey{peer: "peer", id: id})
	}
	oldest := ep.entombedLocked(xferKey{peer: "peer", id: 9})
	kept := ep.entombedLocked(xferKey{peer: "peer", id: 10})
	tombs, queued := len(ep.tombs), len(ep.tombQueue)
	ep.mu.Unlock()
	if tombs != maxTombstones || queued != maxTombstones {
		t.Errorf("table holds %d/%d records, want %d", tombs, queued, maxTombstones)
	}
	if oldest || !kept {
		t.Errorf("entombed(9) = %v, entombed(10) = %v: want the 10 oldest dropped", oldest, kept)
	}
	if armed := clock.Scheduled() - before; armed != 1 {
		t.Errorf("%d timers armed for %d tombstones, want 1", armed, maxTombstones+10)
	}
	clock.Advance(tombstoneTTL)
	if _, tombs, queued := rxCount(ep); tombs != 0 || queued != 0 {
		t.Errorf("after the TTL %d/%d records remain", tombs, queued)
	}
}

// TestUnclaimedTransferReclaimedAtTTL: a transfer an offer sized and
// its packets completed, but that no receive ever took (the request
// naming it was refused, or its sender died), is reclaimed by the sweep
// timer tombstoneTTL after the offer, and leaves a tombstone that
// answers a late offer or packet with Done. Before the sweep reclaimed
// such transfers each one held its whole buffer until Close.
func TestUnclaimedTransferReclaimedAtTTL(t *testing.T) {
	ep, peer, clock := virtualEndpoint(t)
	const id = 13
	before := clock.Scheduled()
	ep.handleOffer("peer", vtOffer(id, 2*vtChunk))
	payload := make([]byte, vtChunk)
	ep.handleData("peer", id, 0, payload)
	ep.handleData("peer", id, 1, payload)
	expectDone(t, peer, "the last packet", id, wire.StatusOK)

	clock.Advance(tombstoneTTL - time.Nanosecond)
	if rx, tombs, _ := rxCount(ep); rx != 1 || tombs != 0 {
		t.Fatalf("before the TTL: %d transfers, %d tombstones; want 1 and 0", rx, tombs)
	}
	clock.Advance(time.Nanosecond)
	if rx, tombs, _ := rxCount(ep); rx != 0 || tombs != 1 {
		t.Fatalf("at the TTL: %d transfers, %d tombstones; want 0 and 1", rx, tombs)
	}
	// The offer's NACK timer and the one sweep timer, which re-armed for
	// the tombstone: nothing per packet, nothing per transfer.
	if armed := clock.Scheduled() - before; armed != 3 {
		t.Errorf("%d timers armed, want 3", armed)
	}
	ep.handleOffer("peer", vtOffer(id, 2*vtChunk))
	expectDone(t, peer, "a late offer", id, wire.StatusOK)
	ep.handleData("peer", id, 1, payload)
	expectDone(t, peer, "a late packet", id, wire.StatusOK)
	if _, err := ep.RecvBulk("peer", id, time.Second); !errors.Is(err, ErrConsumed) {
		t.Errorf("a late receive = %v, want ErrConsumed", err)
	}
}

// TestDataForUnknownTransferIsNotFound: data the endpoint cannot place —
// for a transfer it has no record of, or one no offer has sized — is
// answered BulkDone StatusNotFound, so that a sender whose offer was
// lost or overtaken offers again instead of believing its bytes
// arrived.
func TestDataForUnknownTransferIsNotFound(t *testing.T) {
	ep, peer, _ := virtualEndpoint(t)
	payload := make([]byte, vtChunk)
	ep.handleData("peer", 21, 0, payload)
	expectDone(t, peer, "data for an unknown transfer", 21, wire.StatusNotFound)

	key := xferKey{peer: "peer", id: 22}
	ep.mu.Lock()
	ep.rx[key] = newRxTransfer(ep, "peer", 22) // what a RecvBulk waiting for its offer leaves
	ep.mu.Unlock()
	ep.handleData("peer", 22, 0, payload)
	expectDone(t, peer, "data for an unsized transfer", 22, wire.StatusNotFound)
}

// TestHostileOffersCreateNoState: an offer this endpoint cannot take is
// answered BulkDone StatusInvalid and leaves nothing behind — no
// transfer, no buffer, no timer.
func TestHostileOffersCreateNoState(t *testing.T) {
	ep, peer, clock := virtualEndpoint(t)
	before := clock.Scheduled()
	for _, tc := range []struct {
		name string
		mut  func(*wire.BulkOffer)
	}{
		{"longer than MaxTransfer", func(m *wire.BulkOffer) { m.TotalLen = MaxTransfer + 1 }},
		{"chunk 0", func(m *wire.BulkOffer) { m.ChunkSize = 0 }},
		{"chunk over the transport's", func(m *wire.BulkOffer) { m.ChunkSize = uint32(ep.ChunkSize() + 1) }},
		{"window 0", func(m *wire.BulkOffer) { m.Window = 0 }},
		{"window over the NACK bound", func(m *wire.BulkOffer) { m.Window = maxWindow + 1 }},
	} {
		offer := vtOffer(31, 4*vtChunk)
		tc.mut(offer)
		ep.handleOffer("peer", offer)
		expectDone(t, peer, tc.name, 31, wire.StatusInvalid)
		ep.mu.Lock()
		rx, unclaimed := len(ep.rx), len(ep.unclaimed)
		ep.mu.Unlock()
		if rx != 0 || unclaimed != 0 {
			t.Errorf("offer %s left %d transfers, %d unclaimed", tc.name, rx, unclaimed)
		}
	}
	if armed := clock.Scheduled() - before; armed != 0 {
		t.Errorf("hostile offers armed %d timers", armed)
	}
}
