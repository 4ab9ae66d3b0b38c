package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dodo/internal/core"
	"dodo/internal/transport"
	"dodo/internal/wire"
)

// The traced pass measures the layers from outside, at their public
// seams: S1 the driver's own Cread/Cwrite calls, S2 a decorator around
// *core.Client, S3 a decorator around the backing, S4 a decorator
// around every endpoint's transport. Spans inside the program are a
// later change (ROADMAP item 3).

// spanOps is how many ops' spans are kept for the trace file.
const spanOps = 2000

// span is one timed call at a seam. Op is the id of the newest op begun
// when the span ended; with one reader and no workers that is the op
// that caused it, otherwise it is approximate.
type span struct {
	Layer string `json:"layer"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Op    int64  `json:"op"`
}

// callStat aggregates the calls of one method at a seam.
type callStat struct {
	n     int64
	total time.Duration
	units int64 // bytes moved; items asked for by a batch call
	hist  histogram
}

func (c *callStat) usPerOp(ops int64) float64 {
	return ratio(float64(c.total)/1e3, float64(ops))
}

// seamStats is what the S2 and S3 decorators collect.
type seamStats struct {
	mopen, mread, mwrite, mreadBatch callStat
	bread, bwrite                    callStat
	// union is the time during which at least one S2 or S3 call was in
	// progress: the part of the S1 spans spent below region.
	union time.Duration
}

// tracer owns the decorators of one traced stack.
type tracer struct {
	epoch time.Time
	// begun counts ops begun by the driver; -1 of it is the newest op.
	begun atomic.Int64

	mu         sync.Mutex
	spans      []span
	seams      seamStats
	setupMopen callStat // Mopen calls of the set-up phase
	active     int      // S2/S3 calls in progress
	unionStart time.Time
	endpoints  []*endpointTrace
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

var _ hooks = (*tracer)(nil)

func (t *tracer) beginOp() int64 { return t.begun.Add(1) - 1 }

// newestOp returns the id of the newest op begun and whether its spans
// are kept: only the first spanOps ops' are, and none of the set-up's.
func (t *tracer) newestOp() (int64, bool) {
	op := t.begun.Load() - 1
	return op, op >= 0 && op < spanOps
}

// span records one span if it belongs to the first spanOps ops.
func (t *tracer) span(layer, name string, start, end time.Time, op int64) {
	if op < 0 || op >= spanOps {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{layer, name, int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch)), op})
	t.mu.Unlock()
}

// enter marks the start of an S2 or S3 call.
func (t *tracer) enter() time.Time {
	now := time.Now()
	t.mu.Lock()
	if t.active == 0 {
		t.unionStart = now
	}
	t.active++
	t.mu.Unlock()
	return now
}

// exit marks the end of the S2 or S3 call begun at start.
func (t *tracer) exit(c *callStat, layer, name string, start time.Time, units int) {
	now := time.Now()
	op, keep := t.newestOp()
	t.mu.Lock()
	t.active--
	if t.active == 0 {
		t.seams.union += now.Sub(t.unionStart)
	}
	c.n++
	c.total += now.Sub(start)
	c.units += int64(units)
	c.hist.add(now.Sub(start))
	if keep {
		t.spans = append(t.spans, span{layer, name, int64(start.Sub(t.epoch)), int64(now.Sub(t.epoch)), op})
	}
	t.mu.Unlock()
}

// startWindow ends the set-up phase: the aggregates restart so they
// cover the measured trial only, and the set-up's Mopen calls are kept.
func (t *tracer) startWindow() {
	t.mu.Lock()
	t.setupMopen = t.seams.mopen
	t.seams = seamStats{}
	if t.active > 0 {
		t.unionStart = time.Now()
	}
	t.mu.Unlock()
	for _, e := range t.endpoints {
		e.mu.Lock()
		e.agg = endpointStats{}
		e.mu.Unlock()
	}
}

// endWindow closes the per-request records still open on the imds.
func (t *tracer) endWindow() {
	for _, e := range t.endpoints {
		e.mu.Lock()
		for peer := range e.open {
			e.closeRequestLocked(peer)
		}
		e.mu.Unlock()
	}
}

// S2: region.Dodo and region.BatchReader around *core.Client.

type tracedDodo struct {
	t     *tracer
	inner batchDodo
}

func (t *tracer) wrapDodo(d batchDodo) batchDodo { return &tracedDodo{t, d} }

func (d *tracedDodo) Mopen(length int64, backing core.Backing, offset int64) (int, error) {
	start := d.t.enter()
	fd, err := d.inner.Mopen(length, backing, offset)
	d.t.exit(&d.t.seams.mopen, "core", "mopen", start, 0)
	return fd, err
}

func (d *tracedDodo) Mread(fd int, offset int64, buf []byte) (int, error) {
	start := d.t.enter()
	n, err := d.inner.Mread(fd, offset, buf)
	d.t.exit(&d.t.seams.mread, "core", "mread", start, max(n, 0))
	return n, err
}

func (d *tracedDodo) Mwrite(fd int, offset int64, buf []byte) (int, error) {
	start := d.t.enter()
	n, err := d.inner.Mwrite(fd, offset, buf)
	d.t.exit(&d.t.seams.mwrite, "core", "mwrite", start, max(n, 0))
	return n, err
}

func (d *tracedDodo) MreadBatch(reqs []core.BatchRead) []core.BatchResult {
	start := d.t.enter()
	res := d.inner.MreadBatch(reqs)
	d.t.exit(&d.t.seams.mreadBatch, "core", "mreadbatch", start, len(reqs))
	return res
}

// Mclose and Msync are off the measured path (no workload closes a
// region, Csync runs after the trials): forwarded untimed.
func (d *tracedDodo) Mclose(fd int) error { return d.inner.Mclose(fd) }
func (d *tracedDodo) Msync(fd int) error  { return d.inner.Msync(fd) }

// S3: core.Backing.

type tracedBacking struct {
	t     *tracer
	inner core.Backing
}

var _ core.Backing = (*tracedBacking)(nil)

func (t *tracer) wrapBacking(b core.Backing) core.Backing { return &tracedBacking{t, b} }

func (b *tracedBacking) ReadAt(p []byte, off int64) (int, error) {
	start := b.t.enter()
	n, err := b.inner.ReadAt(p, off)
	b.t.exit(&b.t.seams.bread, "backing", "read", start, n)
	return n, err
}

func (b *tracedBacking) WriteAt(p []byte, off int64) (int, error) {
	start := b.t.enter()
	n, err := b.inner.WriteAt(p, off)
	b.t.exit(&b.t.seams.bwrite, "backing", "write", start, n)
	return n, err
}

// Sync, Inode and Writable move no data; the cache calls Inode under
// its mutex on every access, so it is forwarded untimed.
func (b *tracedBacking) Sync() error    { return b.inner.Sync() }
func (b *tracedBacking) Inode() uint64  { return b.inner.Inode() }
func (b *tracedBacking) Writable() bool { return b.inner.Writable() }

// S4: transport.Transport and transport.VecSender.

// endpointStats is what one endpoint's decorator collects in a window.
type endpointStats struct {
	txFrames, txBytes int64
	rxFrames          int64
	txByType          [64]int64
	sendTime          time.Duration
	// rxHandle is the time from a Recv returning a frame to the next
	// Recv call on the endpoint's single receive loop: the demux,
	// decode and copy-into-transfer work of bulk and wire.
	rxHandle time.Duration
	// turnaround (client): request Send returning to the reply's Recv
	// returning, matched by header Seq.
	turnaround histogram
	// firstReply and serve (imd): a request's Recv returning to the
	// entry of the first Send to that peer, and to the exit of the last.
	firstReply, serve histogram
}

// request is an imd's view of one ReadReq, ReadBatchReq or WriteReq.
type request struct {
	start    time.Time
	replied  bool
	lastExit time.Time
}

type endpointTrace struct {
	t     *tracer
	role  string
	inner transport.Transport
	vec   transport.VecSender

	// Touched only by the endpoint's single receive loop: when the frame
	// in hand was returned (zero when none is), its type, and rx-handle
	// time not yet added to agg.
	lastRet   time.Time
	lastType  wire.Type
	unflushed time.Duration

	mu      sync.Mutex
	agg     endpointStats
	pending map[uint32]time.Time // client: request Seq -> Send exit
	open    map[string]*request  // imd: peer -> its request in service
}

var (
	_ transport.Transport = (*endpointTrace)(nil)
	_ transport.VecSender = (*endpointTrace)(nil)
)

func (t *tracer) wrapTransport(role string, inner transport.Transport) transport.Transport {
	vec, ok := inner.(transport.VecSender)
	if !ok {
		// Both transports under test gather in SendVec; a decorator
		// that hid it would change the path bulk takes.
		panic(fmt.Sprintf("benchmark: %T does not implement transport.VecSender", inner))
	}
	e := &endpointTrace{
		t: t, role: role, inner: inner, vec: vec,
		pending: make(map[uint32]time.Time), open: make(map[string]*request),
	}
	t.mu.Lock()
	t.endpoints = append(t.endpoints, e)
	t.mu.Unlock()
	return e
}

// frameHeader classifies a frame with wire.ParseHeader. The prefix of a
// vectored send is shorter than the payload length it declares, which
// ParseHeader refuses after it has checked magic, version and type; the
// fields are then read straight from the prefix.
func frameHeader(b []byte) (wire.Type, uint32, bool) {
	h, err := wire.ParseHeader(b)
	if err == nil {
		return h.Type, h.Seq, true
	}
	if errors.Is(err, wire.ErrShortFrame) {
		return wire.Type(b[3]), binary.BigEndian.Uint32(b[4:8]), true
	}
	return wire.TInvalid, 0, false
}

func isRequest(t wire.Type) bool {
	return t == wire.TReadReq || t == wire.TReadBatchReq || t == wire.TWriteReq
}

func (e *endpointTrace) LocalAddr() string { return e.inner.LocalAddr() }
func (e *endpointTrace) MTU() int          { return e.inner.MTU() }
func (e *endpointTrace) Close() error      { return e.inner.Close() }

func (e *endpointTrace) Send(to string, data []byte) error {
	start := time.Now()
	err := e.inner.Send(to, data)
	e.sent(to, data, len(data), start)
	return err
}

func (e *endpointTrace) SendVec(to string, prefix, payload []byte) error {
	start := time.Now()
	err := e.vec.SendVec(to, prefix, payload)
	e.sent(to, prefix, len(prefix)+len(payload), start)
	return err
}

func (e *endpointTrace) sent(to string, head []byte, size int, start time.Time) {
	end := time.Now()
	typ, seq, ok := frameHeader(head)
	e.mu.Lock()
	e.agg.txFrames++
	e.agg.txBytes += int64(size)
	e.agg.sendTime += end.Sub(start)
	if ok {
		e.agg.txByType[typ]++
	}
	switch e.role {
	case "client":
		if ok && isRequest(typ) {
			e.pending[seq] = end
		}
	case "imd":
		if r := e.open[to]; r != nil {
			if !r.replied {
				r.replied = true
				e.agg.firstReply.add(start.Sub(r.start))
			}
			r.lastExit = end
		}
	}
	e.mu.Unlock()
	if op, keep := e.t.newestOp(); keep {
		e.t.span("transport", e.role+" send "+typ.String(), start, end, op)
	}
}

func (e *endpointTrace) Recv(timeout time.Duration) ([]byte, string, error) {
	if call := time.Now(); !e.lastRet.IsZero() {
		e.unflushed += call.Sub(e.lastRet)
		if op, keep := e.t.newestOp(); keep {
			e.t.span("bulk", e.role+" rx-handle "+e.lastType.String(), e.lastRet, call, op)
		}
		e.lastRet = time.Time{}
	}
	data, from, err := e.inner.Recv(timeout)
	if err != nil {
		return data, from, err
	}
	ret := time.Now()
	typ, seq, ok := frameHeader(data)
	e.lastRet, e.lastType = ret, typ
	e.mu.Lock()
	e.agg.rxFrames++
	e.agg.rxHandle += e.unflushed
	e.unflushed = 0
	switch e.role {
	case "client":
		if ok && (typ == wire.TDataResp || typ == wire.TReadBatchResp) {
			if sent, waiting := e.pending[seq]; waiting {
				e.agg.turnaround.add(ret.Sub(sent))
				delete(e.pending, seq)
			}
		}
	case "imd":
		if ok && isRequest(typ) {
			e.closeRequestLocked(from)
			e.open[from] = &request{start: ret}
		}
	}
	e.mu.Unlock()
	return data, from, nil
}

// closeRequestLocked retires peer's request in service, if any: the
// next request from the peer, or the end of the window, ends it.
func (e *endpointTrace) closeRequestLocked(peer string) {
	if r := e.open[peer]; r != nil && r.replied {
		e.agg.serve.add(r.lastExit.Sub(r.start))
	}
	delete(e.open, peer)
}

// roleStats sums the window's aggregates over the endpoints of a role.
func (t *tracer) roleStats(role string) *endpointStats {
	sum := &endpointStats{}
	for _, e := range t.endpoints {
		if e.role != role {
			continue
		}
		e.mu.Lock()
		a := &e.agg
		sum.txFrames += a.txFrames
		sum.txBytes += a.txBytes
		sum.rxFrames += a.rxFrames
		for i, n := range a.txByType {
			sum.txByType[i] += n
		}
		sum.sendTime += a.sendTime
		sum.rxHandle += a.rxHandle
		sum.turnaround.merge(&a.turnaround)
		sum.firstReply.merge(&a.firstReply)
		sum.serve.merge(&a.serve)
		e.mu.Unlock()
	}
	return sum
}
