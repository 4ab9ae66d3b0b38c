// Package bulk implements Dodo's messaging layer: request/response
// correlation for the control protocol, and the bulk data-transfer
// protocol of §4.4 for region payloads.
//
// The bulk protocol is the paper's, with its window announced rather
// than negotiated: a region that does not fit in one packet is
// partitioned into sequenced chunks; the sender announces the transfer
// and the window it blasts with, blasts that many packets at once, and
// waits; the receiver waits for the full window or a timeout, then
// reports the missing sequence numbers with a selective NACK (an empty
// NACK acknowledges the window), and says BulkDone when it has every
// byte. Duplicate packets are dropped, as the paper's extension note
// suggests.
//
// §4.4 has the receiver answer the offer with the buffer space it can
// commit. Every endpoint of a cluster runs this code with one
// configuration, so that answer was the sender's own window, bought
// with a round trip before the first byte of every push. A push
// (SendBulk) is announced by a one-way BulkOffer instead, a read by the
// request naming the receive it pre-registered (ExpectBulkInto). An
// offer the receiver cannot take is answered BulkDone StatusInvalid,
// and data that outran a lost or late offer BulkDone StatusNotFound, on
// which the sender offers again.
package bulk

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dodo/internal/locks"
	"dodo/internal/retry"
	"dodo/internal/sim"
	"dodo/internal/transport"
	"dodo/internal/wire"
)

// Errors returned by the endpoint.
var (
	ErrClosed   = errors.New("bulk: endpoint closed")
	ErrTimeout  = errors.New("bulk: operation timed out")
	ErrRejected = errors.New("bulk: transfer rejected by receiver")
	// ErrConsumed reports a RecvBulk for a transfer whose bytes were
	// already handed to an earlier caller. A duplicated announcement
	// must not be confirmed as if it delivered data: the original
	// handleWrite race let the duplicate reply success with zero bytes
	// while the real apply was still pending.
	ErrConsumed = errors.New("bulk: transfer already consumed")
	// ErrInterrupted reports a wait its quit channel ended. The
	// operation is still running, and waiting on it again picks it up.
	ErrInterrupted = errors.New("bulk: wait interrupted")
)

// Config tunes an endpoint. Zero fields take the listed defaults.
type Config struct {
	// CallTimeout is the wait per request attempt (default 500ms).
	CallTimeout time.Duration
	// CallRetries is the number of request retransmissions after the
	// first attempt (default 4).
	CallRetries int
	// WindowTimeout is the sender's wait for a window acknowledgement
	// before re-blasting (default 250ms).
	WindowTimeout time.Duration
	// NackDelay is the receiver's wait for window completion before it
	// sends a selective NACK (default 100ms).
	NackDelay time.Duration
	// RecvWindow is the window, in packets, this endpoint announces for
	// what it pushes and advertises for what it reads (default 64).
	RecvWindow int
	// TransferRetries bounds re-blasts per window (default 8).
	TransferRetries int
	// RetransmitFullWindow disables the selective part of loss
	// recovery: on any NACK the sender re-blasts the whole window
	// instead of just the missing packets. It exists for the ablation
	// quantifying what §4.4's selective NACK buys.
	RetransmitFullWindow bool
	// Clock drives every protocol deadline (call retries, receive
	// budgets, window timeouts, NACK delays, tombstones). Default
	// sim.WallClock{}; inject a sim.VirtualClock to run the protocol
	// in virtual time.
	Clock sim.Clock
}

func (c Config) withDefaults() Config {
	if c.CallTimeout == 0 {
		c.CallTimeout = 500 * time.Millisecond
	}
	if c.CallRetries == 0 {
		c.CallRetries = 4
	}
	if c.WindowTimeout == 0 {
		c.WindowTimeout = 250 * time.Millisecond
	}
	if c.NackDelay == 0 {
		c.NackDelay = 100 * time.Millisecond
	}
	if c.RecvWindow == 0 {
		c.RecvWindow = 64
	}
	if c.TransferRetries == 0 {
		c.TransferRetries = 8
	}
	if c.Clock == nil {
		c.Clock = sim.WallClock{}
	}
	return c
}

// fixedBudget is the retry budget of an operation that waits timeout
// per attempt and gives up after retries re-sends: constant spacing,
// no jitter.
func fixedBudget(timeout time.Duration, retries int) retry.Policy {
	return retry.Policy{Base: timeout, Deadline: time.Duration(retries+1) * timeout}
}

// callPolicy is the budget of a request/response call.
func (c Config) callPolicy() retry.Policy { return fixedBudget(c.CallTimeout, c.CallRetries) }

// windowPolicy is the stall budget of a bulk-transfer window. Receiver
// progress (a NACK naming missing packets) resets the budget, so only a
// genuine stall can exhaust it.
func (c Config) windowPolicy() retry.Policy { return fixedBudget(c.WindowTimeout, c.TransferRetries) }

// Handler reacts to an incoming request and returns the response to send
// back, or nil for no response. Handlers run on their own goroutines, so
// they may make nested Calls. msg is valid until the handler returns:
// a payload it carries aliases the received frame (wire.Decode), which
// the endpoint gives back once the response is sent, so a handler
// copies what it keeps (TestRequestFrameOutlivesHandler). The response
// may alias msg, and a Releaser may alias memory the handler lent it.
type Handler func(from string, msg wire.Message) wire.Message

// Releaser is a response whose encoding reads memory its handler lent
// it: an imd's inline read is encoded straight from its pinned pool
// bytes. The endpoint calls Release as soon as the response is
// encoded, before it sends, so the loan lasts the encode and no longer.
type Releaser interface {
	wire.Message
	Release()
}

// Endpoint wraps a Transport with request/response correlation and bulk
// transfer state. All daemons and the client runtime communicate through
// Endpoints.
type Endpoint struct {
	// dodo:unguarded — immutable after construction
	tr transport.Transport
	// dodo:unguarded — immutable after construction
	cfg Config
	// dodo:unguarded — immutable after construction
	handler Handler
	// deadlines holds every wait of this endpoint that can time out:
	// call attempts, receive budgets, transfer windows, NACK countdowns
	// and the tombstone sweep, on one timer.
	// dodo:unguarded — immutable after construction
	deadlines *sim.Deadlines
	// sweep is the tombstone sweep's entry in deadlines.
	// dodo:unguarded — an entry of deadlines, which has its own lock
	sweep sim.Deadline

	mu locks.Mutex
	// calls holds the response channel of every call waiting, by seq.
	// dodo:guardedby mu
	calls map[uint32]chan reply
	// dodo:guardedby mu
	rx map[xferKey]*rxTransfer
	// tx holds the response channel of every transfer this endpoint is
	// sending, by (receiver, id): an eager transfer's id is the
	// receiver's, and two receivers may have picked the same one.
	// dodo:guardedby mu
	tx map[xferKey]chan wire.Message
	// tombs and tombQueue are the consumed-transfer records (see
	// "Tombstones" in transfer.go).
	// dodo:guardedby mu
	tombs map[xferKey]time.Time
	// dodo:guardedby mu
	tombQueue []tombstone
	// sweepAt is when the sweep is queued to run, zero when it is not.
	// dodo:guardedby mu
	sweepAt time.Time
	// unclaimed holds, with its expiry, every transfer an offer created
	// that no receive has taken yet; the sweep reclaims it after
	// tombstoneTTL.
	// dodo:guardedby mu
	unclaimed map[xferKey]time.Time
	// dodo:guardedby mu
	nextSeq uint32
	// dodo:guardedby mu
	closed bool
	// dodo:atomic
	nextXfer atomic.Uint64

	// dodo:unguarded — WaitGroup is internally synchronized
	wg sync.WaitGroup
	// dodo:unguarded — set at construction; closed once under mu in Close
	stop chan struct{}

	// Stats counters (atomic).
	// dodo:atomic
	retransmits atomic.Int64
	// dodo:atomic
	nacksSent atomic.Int64
	// dodo:atomic
	dupsDropped atomic.Int64
	// dodo:atomic
	retryExhausted atomic.Int64
}

// xferKey names a transfer by the peer at its other end and its id.
type xferKey struct {
	peer string
	id   uint64
}

// NewEndpoint starts an endpoint's receive loop over tr. handler may be
// nil for pure-client endpoints.
func NewEndpoint(tr transport.Transport, cfg Config, handler Handler) *Endpoint {
	cfg = cfg.withDefaults()
	ep := &Endpoint{
		tr:        tr,
		cfg:       cfg,
		handler:   handler,
		deadlines: sim.NewDeadlines(cfg.Clock),
		calls:     make(map[uint32]chan reply),
		rx:        make(map[xferKey]*rxTransfer),
		tx:        make(map[xferKey]chan wire.Message),
		tombs:     make(map[xferKey]time.Time),
		unclaimed: make(map[xferKey]time.Time),
		stop:      make(chan struct{}),
	}
	ep.mu.SetRank(locks.RankBulkEndpoint)
	ep.sweep.Init(ep.sweepTombs)
	ep.wg.Add(1)
	go ep.recvLoop()
	return ep
}

// LocalAddr returns the underlying transport address.
func (ep *Endpoint) LocalAddr() string { return ep.tr.LocalAddr() }

// Transport exposes the underlying transport (for MTU interrogation).
func (ep *Endpoint) Transport() transport.Transport { return ep.tr }

// ChunkSize is the per-packet bulk payload for this endpoint's
// transport, exported so fast-path peers can negotiate a chunk both
// sides can carry.
func (ep *Endpoint) ChunkSize() int { return ep.chunkSize() }

// RecvWindow is the window this endpoint announces and advertises.
func (ep *Endpoint) RecvWindow() int { return ep.cfg.RecvWindow }

// CallTimeout is the wait per attempt of this endpoint's Call.
func (ep *Endpoint) CallTimeout() time.Duration { return ep.cfg.CallTimeout }

// Close shuts the endpoint down and fails all pending operations.
func (ep *Endpoint) Close() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	close(ep.stop)
	// A waiting call sees stop; its channel stays open, because its
	// deadline may still deliver to it.
	clear(ep.calls)
	for key, rx := range ep.rx {
		rx.fail(ErrClosed)
		delete(ep.rx, key)
	}
	ep.mu.Unlock()
	ep.deadlines.Stop()
	err := ep.tr.Close()
	ep.wg.Wait()
	return err
}

// Stats reports protocol counters: sender re-blasts, selective NACKs
// sent, and duplicate packets dropped.
func (ep *Endpoint) Stats() (retransmits, nacksSent, dupsDropped int64) {
	return ep.retransmits.Load(), ep.nacksSent.Load(), ep.dupsDropped.Load()
}

// RetryExhausted reports how many operations (calls or bulk windows)
// ran their unified retry budget dry at this endpoint.
func (ep *Endpoint) RetryExhausted() int64 { return ep.retryExhausted.Load() }

// NextTransferID returns a fresh locally unique bulk transfer id.
//
// Receivers key transfer state by (sender address, id) and assume ids
// are never reused — see RecvBulk's tombstone. A process that can be
// restarted at the same transport address (an imd incarnation) must
// therefore SeedTransferIDs with an incarnation-unique base, or its ids
// restart at 1 and collide with state the peer still holds for the
// previous incarnation: reads then fail ErrConsumed against tombstones,
// or worse, silently return a dead incarnation's buffered bytes.
func (ep *Endpoint) NextTransferID() uint64 { return ep.nextXfer.Add(1) }

// SeedTransferIDs starts the transfer-id counter at base, namespacing
// this endpoint's transfers away from any predecessor at the same
// address. Call before the first transfer; Dodo's imd seeds with
// epoch<<32, which keeps incarnations disjoint for 2^32 transfers each.
func (ep *Endpoint) SeedTransferIDs(base uint64) { ep.nextXfer.Store(base) }

// Notify sends msg without expecting a response.
func (ep *Endpoint) Notify(to string, msg wire.Message) error {
	ep.mu.Lock()
	seq := ep.nextSeq
	ep.nextSeq++
	closed := ep.closed
	ep.mu.Unlock()
	if closed {
		return ErrClosed
	}
	frame, err := wire.EncodePooled(seq, msg)
	if err != nil {
		return err
	}
	defer wire.PutFrame(frame)
	return ep.tr.Send(to, frame)
}

// Call sends msg to to and waits for the correlated response, resending
// on timeout. Responders must tolerate duplicate requests (all Dodo
// request handlers are idempotent).
func (ep *Endpoint) Call(to string, msg wire.Message) (wire.Message, error) {
	return ep.call(to, msg, ep.cfg.callPolicy())
}

// CallT is Call with an explicit per-attempt timeout and retry count,
// for callers that probe possibly-dead peers (the central manager's
// allocation probes and keep-alive echoes) and must give up faster than
// their own callers' patience.
func (ep *Endpoint) CallT(to string, msg wire.Message, timeout time.Duration, retries int) (wire.Message, error) {
	return ep.call(to, msg, fixedBudget(timeout, retries))
}

func (ep *Endpoint) call(to string, msg wire.Message, p retry.Policy) (wire.Message, error) {
	pc, err := ep.start(to, msg, p)
	if err != nil {
		return nil, err
	}
	return pc.Wait(nil)
}

// Pending is a call in flight: its request is registered and sent, and
// Wait collects the response. A caller that must stop waiting without
// abandoning the call (a hedged read whose disk leg won) hands the rest
// of the wait to another goroutine this way.
type Pending struct {
	ep     *Endpoint
	to     string
	msg    wire.Message
	seq    uint32
	frame  []byte
	budget retry.Budget
	// ch receives the response, or a zero reply when an attempt's
	// deadline has passed: at most one of each, so the receive loop
	// never blocks on it.
	ch chan reply
	dl sim.Deadline
	// resp is the frame the response Wait returned was decoded from,
	// until Release gives it back.
	resp []byte
}

// reply is a response and the frame it was decoded from, which the
// message aliases (wire.Decode) and whoever takes the reply gives back.
type reply struct {
	msg   wire.Message
	frame []byte
}

// Start sends msg to to as Call does, and returns the call for Wait to
// finish.
func (ep *Endpoint) Start(to string, msg wire.Message) (*Pending, error) {
	return ep.start(to, msg, ep.cfg.callPolicy())
}

// The encoded frame moves into the call, which gives it back when it
// ends.
func (ep *Endpoint) start(to string, msg wire.Message, p retry.Policy) (*Pending, error) {
	pc := &Pending{ep: ep, to: to, msg: msg, ch: make(chan reply, 2),
		budget: retry.New(p, ep.cfg.Clock, nil)}
	pc.dl.Init(pc.expire)
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil, ErrClosed
	}
	pc.seq = ep.nextSeq
	ep.nextSeq++
	ep.calls[pc.seq] = pc.ch
	ep.mu.Unlock()
	// Pooled, and held until the last resend has returned: a request
	// carrying an inline page would otherwise cost a fresh zeroed frame
	// of its size per call.
	frame, err := wire.EncodePooled(pc.seq, msg)
	if err != nil {
		pc.end()
		return nil, err
	}
	pc.frame = frame
	if err := pc.send(); err != nil {
		pc.end()
		return nil, err
	}
	return pc, nil
}

// send transmits the next attempt and schedules its deadline.
func (pc *Pending) send() error {
	wait, ok := pc.budget.Next()
	if !ok {
		pc.ep.retryExhausted.Add(1)
		return fmt.Errorf("bulk: call %v to %s: %w", pc.msg.Kind(), pc.to, ErrTimeout)
	}
	if pc.budget.Attempts() > 1 {
		pc.ep.retransmits.Add(1)
	}
	if err := pc.ep.tr.Send(pc.to, pc.frame); err != nil {
		return fmt.Errorf("bulk: call %v to %s: %w", pc.msg.Kind(), pc.to, err)
	}
	pc.ep.deadlines.Schedule(&pc.dl, wait)
	return nil
}

// expire is the attempt deadline's callback. The deadline is scheduled
// again only once its nil has been taken, so there is never a second.
func (pc *Pending) expire() {
	select {
	case pc.ch <- reply{}:
	default:
	}
}

// Wait collects the response, resending the request each time an
// attempt's deadline passes until the budget is spent. If quit closes
// first it returns ErrInterrupted and the call stays in flight: Wait
// may then be called again, from any goroutine, to go on waiting. Any
// other return ends the call. The response is valid until Release.
func (pc *Pending) Wait(quit <-chan struct{}) (wire.Message, error) {
	for {
		select {
		case r := <-pc.ch:
			if r.msg != nil {
				pc.end()
				pc.resp = r.frame
				return r.msg, nil
			}
			if err := pc.send(); err != nil {
				pc.end()
				return nil, err
			}
		case <-pc.ep.stop:
			pc.end()
			return nil, ErrClosed
		case <-quit:
			return nil, ErrInterrupted
		}
	}
}

// end unregisters the call and gives its request frame back.
func (pc *Pending) end() {
	pc.ep.deadlines.Cancel(&pc.dl)
	pc.ep.mu.Lock()
	delete(pc.ep.calls, pc.seq)
	pc.ep.mu.Unlock()
	if pc.frame != nil {
		wire.PutFrame(pc.frame)
		pc.frame = nil
	}
}

// Release gives back the frame the response Wait returned was decoded
// from. The message aliases it (wire.Decode), so the caller releases
// once done with the message and uses neither afterwards. A response
// never released is left to the garbage collector.
func (pc *Pending) Release() {
	wire.PutFrame(pc.resp)
	pc.resp = nil
}

// recvLoop is the endpoint's demultiplexer.
func (ep *Endpoint) recvLoop() {
	defer ep.wg.Done()
	for {
		// Blocks until a frame arrives or Close closes the transport:
		// no poll, and no timer armed per park.
		data, from, err := ep.tr.Recv(0)
		if errors.Is(err, transport.ErrClosed) {
			return
		}
		if err != nil {
			// Transient receive errors must not kill the daemon, but a
			// persistently failing transport must not spin either.
			if !sim.SleepInterruptible(ep.cfg.Clock, 5*time.Millisecond, ep.stop) {
				return
			}
			continue
		}
		// Data-plane fast path: BulkData frames — the overwhelming bulk
		// of traffic — are parsed in place and their payload copied
		// straight into the assembling transfer, skipping the allocating
		// general decoder entirely. The payload is lent to handleData for
		// the call and nothing else refers to the frame, so the loop is
		// its last owner and gives it back to the pool.
		if id, seq, payload, derr := wire.DecodeBulkData(data); derr == nil {
			ep.handleData(from, id, seq, payload)
			wire.PutFrame(data)
			continue
		}
		h, msg, err := wire.Decode(data)
		if err != nil {
			wire.PutFrame(data)
			continue
		}
		ep.dispatch(from, h, msg, data)
	}
}

// dispatch routes every wire message type explicitly: bulk sub-protocol
// frames to the transfer machinery, responses to their correlated Call,
// requests to the registered handler. The enumeration is deliberately
// exhaustive: TestDispatchRoutesEveryType runs every registered wire
// type through it and fails on a type its table does not route.
//
// frame is what msg was decoded from, and dispatch takes it over: a
// response's frame goes with it to its call, a request's to the
// goroutine that serves it, and any other goes back to the pool once
// its message is handled, so only WriteReq, DataResp and BulkData,
// whose payloads alias the frame, hold it any longer than the switch.
//
// dodo:adopts(frame)
func (ep *Endpoint) dispatch(from string, h wire.Header, msg wire.Message, frame []byte) {
	switch m := msg.(type) {
	case *wire.BulkOffer:
		ep.handleOffer(from, m)
	case *wire.BulkData:
		// Normally intercepted by recvLoop's in-place fast path; kept
		// for completeness (tests may dispatch decoded messages).
		ep.handleData(from, m.TransferID, m.Seq, m.Payload)
	case *wire.BulkNack, *wire.BulkDone:
		ep.routeTxResponse(from, msg)
	case *wire.AllocResp, *wire.FreeResp, *wire.CheckAllocResp,
		*wire.KeepAliveAck, *wire.HostStatusAck,
		*wire.IMDAllocResp, *wire.IMDFreeResp, *wire.DataResp,
		*wire.ClusterStatsResp, *wire.HandoffAccept, *wire.InventoryAck:
		ep.mu.Lock()
		ch, ok := ep.calls[h.Seq]
		if ok {
			delete(ep.calls, h.Seq)
		}
		ep.mu.Unlock()
		if ok {
			ch <- reply{msg, frame}
			return
		}
		// Nobody waits for it any more: its frame goes back now.
	case *wire.AllocReq, *wire.FreeReq, *wire.CheckAllocReq,
		*wire.KeepAlive, *wire.HostStatus,
		*wire.IMDAllocReq, *wire.IMDFreeReq,
		*wire.ReadReq, *wire.WriteReq, *wire.ClusterStatsReq,
		*wire.HandoffOffer, *wire.HandoffPage, *wire.HandoffDone,
		*wire.InventoryReport:
		if ep.handler == nil {
			break
		}
		// Handlers run on their own goroutine so they can issue
		// nested Calls through this same endpoint.
		ep.wg.Add(1)
		go func() {
			defer ep.wg.Done()
			ep.serve(from, h.Seq, msg, frame)
		}()
		return
	}
	wire.PutFrame(frame)
}

// serve runs the handler on a request and sends its response. The
// request's frame goes back once the response is sent, since the
// response may alias the request.
func (ep *Endpoint) serve(from string, seq uint32, msg wire.Message, frame []byte) {
	defer wire.PutFrame(frame)
	resp := ep.handler(from, msg)
	if resp == nil {
		return
	}
	out, err := wire.EncodePooled(seq, resp)
	if r, ok := resp.(Releaser); ok {
		r.Release()
	}
	if err != nil {
		return
	}
	_ = ep.tr.Send(from, out)
	wire.PutFrame(out)
}

func (ep *Endpoint) routeTxResponse(from string, msg wire.Message) {
	var id uint64
	switch m := msg.(type) {
	case *wire.BulkNack:
		id = m.TransferID
	case *wire.BulkDone:
		id = m.TransferID
	}
	ep.mu.Lock()
	ch := ep.tx[xferKey{peer: from, id: id}]
	ep.mu.Unlock()
	if ch != nil {
		select {
		case ch <- msg:
		default: // sender is behind; drop rather than block the loop
		}
	}
}
