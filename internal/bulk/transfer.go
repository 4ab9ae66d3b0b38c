package bulk

import (
	"errors"
	"fmt"
	"time"

	"dodo/internal/locks"
	"dodo/internal/retry"
	"dodo/internal/sim"
	"dodo/internal/transport"
	"dodo/internal/wire"
)

// MaxTransfer bounds a single bulk transfer.
const MaxTransfer = 1 << 30

// chunkSize returns the per-packet payload for this endpoint's transport.
func (ep *Endpoint) chunkSize() int {
	return ep.tr.MTU() - wire.BulkDataPrefixSize
}

// sendData transmits one BulkData packet: scatter-gather when the
// transport supports it (the payload rides the send as its own segment,
// no sender-side frame is built), and a pooled frame otherwise — either
// way the per-packet heap allocation of the old Encode path is gone.
// prefix is the caller's scratch for the packet's header and fixed
// fields, wire.BulkDataPrefixSize long: a transfer brings one for all
// its packets, because an array declared here would escape through the
// interface call and be allocated per packet.
func (ep *Endpoint) sendData(to string, id uint64, seq uint32, payload, prefix []byte) error {
	wire.PutBulkDataPrefix(prefix, id, seq, len(payload))
	if vs, ok := ep.tr.(transport.VecSender); ok {
		return vs.SendVec(to, prefix, payload)
	}
	frame := wire.GetFrame(wire.BulkDataPrefixSize + len(payload))
	defer wire.PutFrame(frame)
	copy(frame, prefix)
	copy(frame[wire.BulkDataPrefixSize:], payload)
	return ep.tr.Send(to, frame)
}

// SendBulk pushes data to the peer under the given transfer id: it
// announces the transfer in a one-way BulkOffer naming this endpoint's
// chunk size and window, blasts the first window at once, and returns
// when the receiver has said every byte arrived. The receiver takes the
// bytes with RecvBulk, before or after they arrive; Dodo names the
// transfer to it in the request it sends once the push has returned
// (WriteReq, HandoffPage).
func (ep *Endpoint) SendBulk(to string, id uint64, data []byte) error {
	offer := &wire.BulkOffer{TransferID: id, TotalLen: uint64(len(data)),
		ChunkSize: uint32(ep.chunkSize()), Window: uint32(ep.cfg.RecvWindow)}
	return ep.runTransfer(to, offer, data, true)
}

// SendBulkEager pushes data under a RECEIVER-chosen transfer id with no
// offer: the receiver pre-registered its buffer (via ExpectBulkInto) and
// named id, chunk and window in its request, so the first window can be
// blasted immediately — DataResp doubles as the offer. Everything after
// the opening is the window / selective-NACK engine SendBulk runs too.
func (ep *Endpoint) SendBulkEager(to string, id uint64, data []byte, chunk, window int) error {
	if chunk <= 0 || chunk > ep.chunkSize() {
		return fmt.Errorf("bulk: eager transfer %d: chunk %d outside (0, %d]", id, chunk, ep.chunkSize())
	}
	offer := &wire.BulkOffer{TransferID: id, TotalLen: uint64(len(data)),
		ChunkSize: uint32(chunk), Window: uint32(max(window, 1))}
	return ep.runTransfer(to, offer, data, false)
}

// runTransfer drives the window / selective-NACK engine every transfer
// shares: blast each window, wait for its ack (an empty NACK), resupply
// whatever selective NACKs name, and end on the receiver's BulkDone. A
// push (SendBulk) is announced here by its offer; a receiver that
// cannot place its data (BulkDone StatusNotFound: the offer was lost,
// or overtaken by the window) is offered again and sent the window
// again, at most once a window; the window's timeout does the same.
// An eager transfer was announced by the receiver itself, so there
// NotFound means it gave up, and ends the transfer as any other refusal
// does.
func (ep *Endpoint) runTransfer(to string, offer *wire.BulkOffer, data []byte, push bool) error {
	id, chunk, window := offer.TransferID, int(offer.ChunkSize), int(offer.Window)
	if len(data) > MaxTransfer {
		return fmt.Errorf("bulk: transfer of %d bytes exceeds MaxTransfer", len(data))
	}
	key, respCh := xferKey{peer: to, id: id}, make(chan wire.Message, 16)
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return ErrClosed
	}
	ep.tx[key] = respCh
	ep.mu.Unlock()
	defer func() {
		ep.mu.Lock()
		delete(ep.tx, key)
		ep.mu.Unlock()
	}()
	if push {
		if err := ep.Notify(to, offer); err != nil {
			return fmt.Errorf("bulk: offering transfer %d to %s: %w", id, to, err)
		}
	}
	npkts := (len(data) + chunk - 1) / chunk
	w := &windowWait{wake: make(chan struct{}, 1)}
	w.dl.Init(w.expire)
	defer ep.deadlines.Cancel(&w.dl)
	prefix := w.prefix[:]
	blast := func(seqs []uint32) error {
		for _, s := range seqs {
			lo := int(s) * chunk
			hi := lo + chunk
			if hi > len(data) {
				hi = len(data)
			}
			if err := ep.sendData(to, id, s, data[lo:hi], prefix); err != nil {
				return fmt.Errorf("bulk: blasting packet %d of transfer %d: %w", s, id, err)
			}
		}
		return nil
	}
	// again re-blasts a window, offering the transfer once more first
	// where that can help: before a push's window, whose offer may be
	// what was lost, and in the wait for BulkDone, where a receiver that
	// has everything answers an offer with BulkDone again.
	again := func(seqs []uint32) error {
		if push || len(seqs) == 0 {
			if err := ep.Notify(to, offer); err != nil {
				return err
			}
		}
		ep.retransmits.Add(int64(len(seqs)))
		return blast(seqs)
	}

	// One pass per window, then one with no packets of its own that
	// waits for BulkDone: acks can run ahead of it when duplicates trigger
	// re-acknowledgements, so NACKs are still served there.
	for base := 0; ; base += window {
		end := min(base+window, npkts)
		winSeqs := make([]uint32, 0, max(end-base, 0))
		for s := base; s < end; s++ {
			winSeqs = append(winSeqs, uint32(s))
		}
		if err := blast(winSeqs); err != nil {
			return err
		}
		// Per-window stall budget: a selective NACK naming missing
		// packets is progress (the receiver is alive and converging) and
		// resets it; only consecutive silent timeouts can exhaust it.
		budget := retry.New(ep.cfg.windowPolicy(), ep.cfg.Clock, nil)
		reoffered := false
	await:
		for {
			wait, ok := budget.Next()
			if !ok {
				ep.retryExhausted.Add(1)
				return fmt.Errorf("bulk: transfer %d to %s stalled at packet %d of %d: %w", id, to, base, npkts, ErrTimeout)
			}
			ep.deadlines.Schedule(&w.dl, wait)
			msg, expired, err := w.await(ep, respCh)
			if err != nil {
				return err
			}
			if expired {
				if err := again(winSeqs); err != nil {
					return err
				}
				continue
			}
			switch m := msg.(type) {
			case *wire.BulkDone:
				if m.Status == wire.StatusOK {
					return nil // receiver has everything
				}
				if !push || m.Status != wire.StatusNotFound {
					return fmt.Errorf("%w: %v", ErrRejected, m.Status)
				}
				// Every packet of the window that beat the offer is
				// answered so; the first answer is enough.
				if !reoffered {
					reoffered = true
					if err := again(winSeqs); err != nil {
						return err
					}
				}
			case *wire.BulkNack:
				if len(m.Missing) == 0 {
					if len(winSeqs) == 0 {
						continue // a stale window ack
					}
					break await // window acknowledged
				}
				budget.Reset()
				resend := m.Missing
				if ep.cfg.RetransmitFullWindow && len(winSeqs) > 0 {
					resend = winSeqs // ablation: no selective recovery
				}
				ep.retransmits.Add(int64(len(resend)))
				if err := blast(resend); err != nil {
					return err
				}
			}
		}
	}
}

// windowWait is what a sending transfer waits on besides its responses:
// the window deadline, whose expiry has a wake of its own because the
// response channel drops what the sender is too slow to take.
type windowWait struct {
	dl   sim.Deadline
	wake chan struct{}
	// prefix is the scratch sendData fills per packet.
	prefix [wire.BulkDataPrefixSize]byte
}

func (w *windowWait) expire() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// await waits for a response or the window deadline. A wake is an
// expiry only if the deadline is no longer queued: one that fired just
// before the sender re-scheduled it, or took a response first, is stale
// and must not re-blast a window.
func (w *windowWait) await(ep *Endpoint, respCh <-chan wire.Message) (msg wire.Message, expired bool, err error) {
	for {
		select {
		case msg := <-respCh:
			return msg, false, nil
		case <-w.wake:
			if !ep.deadlines.Queued(&w.dl) {
				return nil, true, nil
			}
		case <-ep.stop:
			return nil, false, ErrClosed
		}
	}
}

// ExpectBulkInto pre-registers transfer (from, id) with dst as its
// destination: packets assemble directly into dst, no transfer-sized
// intermediate buffer is ever allocated. It is the receive half of the
// eager fast path — the requester itself picks the transfer id, calls
// ExpectBulkInto BEFORE announcing the id to the sender, and then waits
// with RecvBulkInto(dst, ...), so eager data can never race ahead of
// the receiver's state. The returned window is the receive window the
// caller must advertise (the sender paces its blasts by it). chunk is
// the packet payload size the caller will advertise alongside.
// dodo:adopts(dst)
func (ep *Endpoint) ExpectBulkInto(dst []byte, from string, id uint64, chunk int) (window int, err error) {
	if chunk <= 0 {
		return 0, fmt.Errorf("bulk: expecting transfer %d: invalid chunk %d", id, chunk)
	}
	if len(dst) > MaxTransfer {
		return 0, fmt.Errorf("bulk: transfer of %d bytes exceeds MaxTransfer", len(dst))
	}
	key := xferKey{peer: from, id: id}
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return 0, ErrClosed
	}
	if _, ok := ep.rx[key]; ok || ep.entombedLocked(key) {
		ep.mu.Unlock()
		return 0, fmt.Errorf("bulk: transfer %d from %s already registered", id, from)
	}
	rx := newRxTransfer(ep, from, id)
	window = ep.cfg.RecvWindow
	ep.rx[key] = rx
	ep.mu.Unlock()

	rx.mu.Lock()
	rx.buf = dst
	rx.external = true
	rx.chunk = chunk
	rx.npkts = (len(dst) + chunk - 1) / chunk
	rx.got = make([]bool, rx.npkts)
	rx.window = window
	rx.sized = true
	if rx.npkts == 0 {
		rx.completeLocked()
	}
	// The NACK countdown has not started: it starts with the first
	// packet (or the sender's re-offer). Starting it here would fire
	// NACKs for a transfer whose announcement has not even been sent.
	rx.mu.Unlock()
	return window, nil
}

// CancelExpect abandons a transfer pre-registered with ExpectBulkInto
// when the responder answered on a different path (an inline payload
// or an error) — no packets will ever arrive under id. No tombstone is
// left: requester-chosen ids are never reused.
func (ep *Endpoint) CancelExpect(from string, id uint64) {
	key := xferKey{peer: from, id: id}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if rx := ep.rx[key]; rx != nil {
		delete(ep.rx, key)
		rx.fail(errExpectCanceled)
	}
}

var errExpectCanceled = fmt.Errorf("bulk: expected transfer canceled")

// RecvBulk waits for the peer at from to complete transfer id and returns
// the assembled bytes. It may be called before or after the first packet
// arrives.
func (ep *Endpoint) RecvBulk(from string, id uint64, timeout time.Duration) ([]byte, error) {
	buf, external, err := ep.recvBulk(from, id, timeout)
	if err != nil {
		return nil, err
	}
	if external {
		// Assembled into caller-owned memory (ExpectBulkInto); hand back
		// a private copy to honor RecvBulk's ownership contract.
		return append([]byte(nil), buf...), nil
	}
	return buf, nil
}

// RecvBulkInto waits for transfer (from, id) and leaves the bytes in
// dst, returning how many were assembled. When the transfer was
// pre-registered with ExpectBulkInto(dst, ...), the bytes are already
// in place and no copy happens at all; an offer-driven transfer is
// assembled in its own buffer and copied into dst once — still one copy
// fewer than RecvBulk-then-copy.
func (ep *Endpoint) RecvBulkInto(dst []byte, from string, id uint64, timeout time.Duration) (int, error) {
	buf, external, err := ep.recvBulk(from, id, timeout)
	if err != nil {
		return 0, err
	}
	if external {
		return len(buf), nil
	}
	if len(buf) > len(dst) {
		return 0, fmt.Errorf("bulk: transfer %d from %s: %d bytes exceed %d-byte destination", id, from, len(buf), len(dst))
	}
	return copy(dst, buf), nil
}

func (ep *Endpoint) recvBulk(from string, id uint64, timeout time.Duration) (buf []byte, external bool, err error) {
	key := xferKey{peer: from, id: id}
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil, false, ErrClosed
	}
	rx, ok := ep.rx[key]
	if !ok {
		if ep.entombedLocked(key) {
			// A duplicated announcement for a transfer whose bytes an
			// earlier receive already took.
			ep.mu.Unlock()
			return nil, false, fmt.Errorf("bulk: transfer %d from %s: %w", id, from, ErrConsumed)
		}
		rx = newRxTransfer(ep, from, id)
		ep.rx[key] = rx
	}
	delete(ep.unclaimed, key)
	ep.mu.Unlock()

	// The budget runs from the first receive: of two, the sooner
	// deadline holds. A transfer already complete needs none.
	if timeout > 0 {
		rx.mu.Lock()
		if !rx.complete {
			ep.deadlines.ScheduleBy(&rx.budget, timeout)
		}
		rx.mu.Unlock()
	}
	select {
	case <-rx.done:
	case <-ep.stop:
		rx.fail(ErrClosed)
		return nil, false, ErrClosed
	}
	rx.mu.Lock()
	err = rx.err
	buf = rx.buf
	external = rx.external
	consumed := err == nil && buf == nil
	rx.buf = nil
	rx.mu.Unlock()
	// The transfer's state ends here; what outlives it is a tombstone.
	// If the sender's copy of our BulkDone was lost, its re-offer must
	// be answered with Done again rather than resurrecting an empty
	// transfer. Transfer ids are never reused — restartable senders seed
	// an incarnation-unique id base (SeedTransferIDs) — so the tombstone
	// cannot mask a future transfer.
	ep.mu.Lock()
	if ep.rx[key] == rx {
		delete(ep.rx, key)
		if err == nil {
			ep.entombLocked(key)
		}
	}
	ep.mu.Unlock()
	if errors.Is(err, ErrTimeout) {
		return nil, false, fmt.Errorf("bulk: receiving transfer %d from %s: %w", id, from, ErrTimeout)
	}
	if err != nil {
		return nil, false, err
	}
	if consumed {
		// A concurrent receive for the same transfer (a duplicated
		// announcement) took the bytes first.
		return nil, false, fmt.Errorf("bulk: transfer %d from %s: %w", id, from, ErrConsumed)
	}
	return buf, external, nil
}

// Tombstones. A consumed transfer leaves only its key behind, for
// tombstoneTTL: that is all answering a late re-offer, a stale packet
// or a duplicated announcement takes. The records of one endpoint share
// a map and a queue in expiry order (the TTL is constant, so that is
// insertion order) and one sweep, an entry of the endpoint's deadline
// queue, that drops the queue's head, instead of a timer, a closure and
// the whole rxTransfer per finished transfer. The same sweep reclaims a
// transfer an offer created and no receive took within tombstoneTTL (a
// request refused before its receive, a sender that died between its
// push and its request), and entombs it.
const (
	// tombstoneTTL is how long a consumed transfer's completion record
	// lingers to answer the sender's loss-recovery duplicates.
	tombstoneTTL = 30 * time.Second
	// tombstoneSweep is the least interval between two sweeps. An entry
	// past its TTL no longer answers (lookups check the time); the sweep
	// only returns its memory.
	tombstoneSweep = time.Second
	// maxTombstones bounds the table, oldest dropped first. A sender
	// stops re-offering once its window budget is spent (2.25 s at the
	// default Config), so 64 Ki records cover every sender that can
	// still ask at up to ~29 000 transfers a second into one endpoint;
	// at ~100 B a record the table tops out near 8 MB.
	maxTombstones = 1 << 16
)

type tombstone struct {
	key   xferKey
	until time.Time
}

// entombedLocked reports whether key names a transfer consumed within
// the last tombstoneTTL. Caller holds ep.mu.
func (ep *Endpoint) entombedLocked(key xferKey) bool {
	until, ok := ep.tombs[key]
	return ok && ep.cfg.Clock.Now().Before(until)
}

// entombLocked records key as consumed. Caller holds ep.mu.
func (ep *Endpoint) entombLocked(key xferKey) {
	now := ep.cfg.Clock.Now()
	ep.sweepTombsLocked(now)
	if len(ep.tombQueue) >= maxTombstones {
		ep.dropOldestTombLocked()
	}
	until := now.Add(tombstoneTTL)
	ep.tombs[key] = until
	ep.tombQueue = append(ep.tombQueue, tombstone{key: key, until: until})
	ep.sweepByLocked(now, until)
}

// sweepByLocked makes sure the sweep runs by at. Caller holds ep.mu.
func (ep *Endpoint) sweepByLocked(now, at time.Time) {
	if !ep.sweepAt.IsZero() && !at.Before(ep.sweepAt) {
		return
	}
	ep.sweepAt = at
	ep.deadlines.Schedule(&ep.sweep, at.Sub(now))
}

// sweepTombsLocked drops every record that has expired by now. Caller
// holds ep.mu.
func (ep *Endpoint) sweepTombsLocked(now time.Time) {
	for len(ep.tombQueue) > 0 && !now.Before(ep.tombQueue[0].until) {
		ep.dropOldestTombLocked()
	}
}

func (ep *Endpoint) dropOldestTombLocked() {
	t := ep.tombQueue[0]
	ep.tombQueue[0] = tombstone{} // drop the key's string for the collector
	ep.tombQueue = ep.tombQueue[1:]
	delete(ep.tombs, t.key)
}

// sweepTombs is the sweep: reclaim the unclaimed transfers and drop the
// tombstones that expired, and sleep until the next record does, but
// never less than tombstoneSweep — an endpoint finishing thousands of
// transfers a second sweeps about once a second, not once per transfer.
func (ep *Endpoint) sweepTombs() {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return
	}
	ep.sweepAt = time.Time{}
	now := ep.cfg.Clock.Now()
	var next time.Time
	for key, until := range ep.unclaimed {
		if now.Before(until) {
			if next.IsZero() || until.Before(next) {
				next = until
			}
			continue
		}
		delete(ep.unclaimed, key)
		if rx := ep.rx[key]; rx != nil {
			delete(ep.rx, key)
			rx.fail(ErrTimeout)
		}
		ep.entombLocked(key)
	}
	ep.sweepTombsLocked(now)
	if len(ep.tombQueue) > 0 && (next.IsZero() || ep.tombQueue[0].until.Before(next)) {
		next = ep.tombQueue[0].until
	}
	if !next.IsZero() {
		// The entombing above queued the sweep for a record due a full
		// TTL from now; this moves it sooner where that is due.
		ep.sweepByLocked(now, now.Add(max(next.Sub(now), tombstoneSweep)))
	}
}

// rxTransfer is receive-side per-transfer state.
type rxTransfer struct {
	// dodo:unguarded — immutable after construction
	ep *Endpoint
	// dodo:unguarded — immutable after construction
	from string
	// dodo:unguarded — immutable after construction
	id uint64

	mu locks.Mutex
	// dodo:guardedby mu
	buf []byte
	// external marks buf as caller-owned (installed by ExpectBulkInto):
	// the bytes are assembled in place and must not be handed out as an
	// owned buffer.
	// dodo:guardedby mu
	external bool
	// dodo:guardedby mu
	got []bool
	// dodo:guardedby mu
	gotCount int
	// dodo:guardedby mu
	npkts int
	// dodo:guardedby mu
	chunk int
	// dodo:guardedby mu
	window int
	// dodo:guardedby mu
	winBase int
	// dodo:guardedby mu
	sized bool
	// dodo:guardedby mu
	complete bool
	// dodo:guardedby mu
	err error
	// dodo:unguarded — set at construction; closed once under mu
	done chan struct{}
	// nack is the selective-NACK countdown's entry in the endpoint's
	// deadline queue, and nackQueued says it is queued. It is scheduled
	// once per stall interval, not per packet: a packet only stamps
	// lastProgress, and the callback schedules it again for the
	// remainder when the stamp moved since.
	// dodo:unguarded — an entry of ep.deadlines, which has its own lock
	nack sim.Deadline
	// dodo:guardedby mu
	nackQueued bool
	// budget is the receive budget's entry: on expiry the transfer
	// fails ErrTimeout.
	// dodo:unguarded — an entry of ep.deadlines, which has its own lock
	budget sim.Deadline
	// lastProgress is when the transfer last gained a packet, was sized
	// by an offer, or sent a NACK; the next NACK is due NackDelay later.
	// dodo:guardedby mu
	lastProgress time.Time
}

func newRxTransfer(ep *Endpoint, from string, id uint64) *rxTransfer {
	rx := &rxTransfer{ep: ep, from: from, id: id, done: make(chan struct{})}
	rx.mu.SetRank(locks.RankBulkTransfer)
	rx.nack.Init(rx.nackTimeout)
	rx.budget.Init(rx.budgetTimeout)
	return rx
}

// budgetTimeout gives the receive up: the transfer fails, in the hold
// that takes it off the table, so that a packet the receive loop is
// handling right now cannot land in the caller's buffer
// (ExpectBulkInto) after the caller has it back.
func (rx *rxTransfer) budgetTimeout() {
	ep := rx.ep
	key := xferKey{peer: rx.from, id: rx.id}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	rx.mu.Lock()
	defer rx.mu.Unlock()
	if rx.complete {
		return // completed as the deadline fired: the receive takes it
	}
	if ep.rx[key] == rx {
		delete(ep.rx, key)
	}
	rx.err = ErrTimeout
	rx.completeLocked()
}

func (rx *rxTransfer) fail(err error) {
	rx.mu.Lock()
	defer rx.mu.Unlock()
	if rx.complete {
		return
	}
	rx.err = err
	rx.completeLocked()
}

// maxWindow bounds an announced window: the longest selective NACK a
// BulkNack can carry.
const maxWindow = 1 << 16

// handleOffer sizes the transfer an offer announces, or finds it sized,
// and answers nothing: the sender is blasting already. A transfer that
// is complete, or consumed, is answered BulkDone (the sender lost the
// first one), and an offer this endpoint cannot take — longer than
// MaxTransfer, in chunks its transport cannot carry, in a window no
// NACK can describe — BulkDone StatusInvalid, leaving no state behind.
// A transfer the offer creates is unclaimed until a receive takes it.
func (ep *Endpoint) handleOffer(from string, m *wire.BulkOffer) {
	if m.TotalLen > MaxTransfer || m.ChunkSize == 0 || int(m.ChunkSize) > ep.chunkSize() ||
		m.Window == 0 || m.Window > maxWindow {
		ep.sendDone(from, m.TransferID, wire.StatusInvalid)
		return
	}
	key := xferKey{peer: from, id: m.TransferID}
	ep.mu.Lock()
	rx, ok := ep.rx[key]
	if !ok {
		if ep.entombedLocked(key) {
			ep.mu.Unlock()
			ep.sendDone(from, m.TransferID, wire.StatusOK)
			return
		}
		rx = newRxTransfer(ep, from, m.TransferID)
		ep.rx[key] = rx
		ep.unclaimed[key] = ep.cfg.Clock.Now().Add(tombstoneTTL)
	}
	ep.mu.Unlock()

	rx.mu.Lock()
	if !rx.sized && !rx.complete {
		rx.buf = make([]byte, m.TotalLen)
		rx.chunk = int(m.ChunkSize)
		rx.npkts = int((m.TotalLen + uint64(m.ChunkSize) - 1) / uint64(m.ChunkSize))
		rx.got = make([]bool, rx.npkts)
		rx.window = int(m.Window)
		rx.sized = true
		if rx.npkts == 0 {
			// Empty transfer: complete immediately.
			rx.completeLocked()
		} else {
			rx.noteProgressLocked()
		}
	}
	completed := rx.complete && rx.err == nil
	rx.mu.Unlock()
	if !ok {
		// Queued after the sizing's NACK countdown, which is nearly
		// always due first: the deadline timer is armed for that one and
		// re-armed for the sweep when it passes.
		ep.mu.Lock()
		if until, unclaimed := ep.unclaimed[key]; unclaimed && !ep.closed {
			ep.sweepByLocked(ep.cfg.Clock.Now(), until)
		}
		ep.mu.Unlock()
	}
	if completed {
		ep.sendDone(from, m.TransferID, wire.StatusOK)
	}
}

// sendDone tells the sender of transfer id how it ended at this end.
func (ep *Endpoint) sendDone(to string, id uint64, st wire.Status) {
	_ = ep.Notify(to, &wire.BulkDone{TransferID: id, Status: st})
}

// handleData processes one BulkData packet. payload is BORROWED — it
// aliases the receive loop's frame buffer and is only valid for the
// duration of the call, so the bytes are copied into the assembling
// buffer synchronously (the only copy the receive path makes).
func (ep *Endpoint) handleData(from string, id uint64, seq uint32, payload []byte) {
	key := xferKey{peer: from, id: id}
	ep.mu.Lock()
	rx, ok := ep.rx[key]
	consumed := !ok && ep.entombedLocked(key)
	ep.mu.Unlock()
	if consumed {
		// Stale packet for a consumed transfer: tell the sender to stop.
		ep.sendDone(from, id, wire.StatusOK)
		return
	}
	if !ok {
		// Data that outran its offer, or whose offer was lost: the
		// sender offers again.
		ep.sendDone(from, id, wire.StatusNotFound)
		return
	}
	rx.mu.Lock()
	if !rx.sized {
		// A receive is waiting, and the offer has not come yet.
		rx.mu.Unlock()
		ep.sendDone(from, id, wire.StatusNotFound)
		return
	}
	if rx.complete {
		rx.mu.Unlock()
		ep.sendDone(from, id, wire.StatusOK)
		return
	}
	s := int(seq)
	if s >= rx.npkts {
		rx.mu.Unlock()
		return
	}
	if rx.got[s] {
		// Duplicate: the sender is likely re-blasting because our window
		// ack was lost. Re-acknowledge so it can make progress.
		ep.dupsDropped.Add(1)
		rx.mu.Unlock()
		_ = ep.Notify(from, &wire.BulkNack{TransferID: id, Missing: nil})
		return
	}
	lo := s * rx.chunk
	want := rx.chunk
	if lo+want > len(rx.buf) {
		want = len(rx.buf) - lo
	}
	if len(payload) != want {
		rx.mu.Unlock()
		return // corrupt chunk; NACK timer will recover it
	}
	copy(rx.buf[lo:], payload)
	rx.got[s] = true
	rx.gotCount++
	rx.noteProgressLocked()

	// Advance past every now-complete window; ack each advance.
	acked := false
	for rx.winBase < rx.npkts {
		end := rx.winBase + rx.window
		if end > rx.npkts {
			end = rx.npkts
		}
		full := true
		for i := rx.winBase; i < end; i++ {
			if !rx.got[i] {
				full = false
				break
			}
		}
		if !full {
			break
		}
		rx.winBase = end
		acked = true
	}
	if rx.gotCount == rx.npkts {
		rx.completeLocked()
		rx.mu.Unlock()
		ep.sendDone(from, id, wire.StatusOK)
		return
	}
	rx.mu.Unlock()
	if acked {
		_ = ep.Notify(from, &wire.BulkNack{TransferID: id, Missing: nil})
	}
}

// completeLocked marks the transfer done. Caller holds rx.mu.
func (rx *rxTransfer) completeLocked() {
	if rx.complete {
		return
	}
	rx.complete = true
	if rx.nackQueued {
		rx.ep.deadlines.Cancel(&rx.nack)
		rx.nackQueued = false
	}
	rx.ep.deadlines.Cancel(&rx.budget)
	close(rx.done)
}

// noteProgressLocked restarts the NackDelay countdown: it stamps the
// time and schedules the countdown only if it is not queued. Caller
// holds rx.mu.
func (rx *rxTransfer) noteProgressLocked() {
	rx.lastProgress = rx.ep.cfg.Clock.Now()
	if !rx.nackQueued {
		rx.nackQueued = true
		rx.ep.deadlines.Schedule(&rx.nack, rx.ep.cfg.NackDelay)
	}
}

// nackTimeout fires NackDelay after the countdown was scheduled. If the
// transfer progressed meanwhile the stall interval has not run out yet
// and the countdown goes on for the remainder; otherwise the current
// window has stalled: identify the missing packets by sequence number
// and send the selective NACK (§4.4).
func (rx *rxTransfer) nackTimeout() {
	rx.mu.Lock()
	rx.nackQueued = false
	if rx.complete || !rx.sized {
		rx.mu.Unlock()
		return
	}
	clock, delay := rx.ep.cfg.Clock, rx.ep.cfg.NackDelay
	if rem := delay - clock.Now().Sub(rx.lastProgress); rem > 0 {
		rx.nackQueued = true
		rx.ep.deadlines.Schedule(&rx.nack, rem)
		rx.mu.Unlock()
		return
	}
	end := rx.winBase + rx.window
	if end > rx.npkts {
		end = rx.npkts
	}
	var missing []uint32
	for i := rx.winBase; i < end; i++ {
		if !rx.got[i] {
			missing = append(missing, uint32(i))
		}
	}
	rx.noteProgressLocked()
	from, id := rx.from, rx.id
	rx.mu.Unlock()
	if len(missing) > 0 {
		rx.ep.nacksSent.Add(1)
		_ = rx.ep.Notify(from, &wire.BulkNack{TransferID: id, Missing: missing})
	}
}
