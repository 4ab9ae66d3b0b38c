// Package usocket reimplements the paper's libusocket (§4.6): a library
// with a UDP-socket-like interface layered on top of U-Net, the
// user-level network architecture of von Eicken et al.
//
// The original ran against a real DEC-Tulip NIC with a modified driver.
// Here the "NIC" is an emulated Ethernet segment (Segment): endpoints are
// addressed by MAC address, frames carry at most one MTU of payload, the
// receive queue is a fixed ring that drops on overflow, and there is no
// reliability — exactly the properties the Dodo bulk-transfer protocol
// (§4.4) was designed around. The API mirrors Figure 6 of the paper:
//
//	u_socket     -> Segment.Socket
//	u_close      -> Socket.Close
//	u_aton       -> Aton
//	u_ntoa       -> MACAddr.String
//	u_bind       -> Socket.Bind
//	u_connect    -> Socket.Connect
//	u_send       -> Socket.Send
//	u_send_iovec -> Socket.SendIovec
//	u_recv       -> Socket.Recv
//	u_recv_iovec -> Socket.RecvIovec
package usocket

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dodo/internal/locks"
	"dodo/internal/sim"
	"dodo/internal/wire"
)

// MTU is the largest payload of a single U-Net frame: one Ethernet frame
// (1500 bytes) minus the U-Net header ("≈1500 bytes for U-Net", §4.4).
const MTU = 1468

// Errors returned by the library.
var (
	ErrClosed     = errors.New("usocket: socket closed")
	ErrTimeout    = errors.New("usocket: receive timed out")
	ErrTooLarge   = errors.New("usocket: frame exceeds MTU")
	ErrNotBound   = errors.New("usocket: socket not bound")
	ErrNotConn    = errors.New("usocket: socket not connected")
	ErrAddrInUse  = errors.New("usocket: address already bound")
	ErrBadAddress = errors.New("usocket: malformed MAC address")
)

// MACAddr is a 6-byte Ethernet MAC address (the paper's macaddr_t).
type MACAddr [6]byte

// macStrLen is the length of the canonical text form, "aa:bb:cc:dd:ee:ff".
const macStrLen = 17

// Aton parses "aa:bb:cc:dd:ee:ff" into a MACAddr (the paper's u_aton).
// It accepts exactly the canonical form: six groups of two hex digits
// (either case) joined by colons, 17 bytes in all. The transport
// adapter parses the destination of every frame it sends to another
// peer than the last, so the parse is hand-rolled and allocation-free.
// The fmt.Sscanf it replaces also took one-digit groups, a sign in
// place of a digit, leading blanks and trailing text; nothing ever
// produced those (String is the only writer of addresses), they are
// rejected now, and the differential test pins both halves of that
// decision.
func Aton(s string) (MACAddr, error) {
	var m MACAddr
	if len(s) != macStrLen {
		return MACAddr{}, badAddress(s)
	}
	for i := range m {
		hi, lo := unhex(s[3*i]), unhex(s[3*i+1])
		if hi > 0xf || lo > 0xf || (i < 5 && s[3*i+2] != ':') {
			return MACAddr{}, badAddress(s)
		}
		m[i] = hi<<4 | lo
	}
	return m, nil
}

func badAddress(s string) error { return fmt.Errorf("%w: %q", ErrBadAddress, s) }

// unhex returns the value of one hex digit, or 0xff for any other byte.
func unhex(c byte) byte {
	switch {
	case '0' <= c && c <= '9':
		return c - '0'
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10
	}
	return 0xff
}

const hexDigits = "0123456789abcdef"

// String formats the address as "aa:bb:cc:dd:ee:ff" (the paper's u_ntoa).
func (m MACAddr) String() string {
	var b [macStrLen]byte
	for i, v := range m {
		b[3*i], b[3*i+1] = hexDigits[v>>4], hexDigits[v&0xf]
		if i < 5 {
			b[3*i+2] = ':'
		}
	}
	return string(b[:])
}

// Iovec is a scatter/gather element, mirroring struct iovec. The paper
// uses iovecs with sendmsg/recvmsg "to avoid copying to and from a
// temporary buffer"; SendIovec and RecvIovec preserve that shape.
type Iovec struct {
	Base []byte
}

// Segment is the emulated Ethernet wire: a set of U-Net endpoints that
// can frame-switch to each other by MAC address.
type Segment struct {
	mu locks.Mutex
	// dodo:guardedby mu
	bound map[MACAddr]*Socket
	// dropProb, when set by tests via SetLoss, drops frames
	// deterministically every 1-in-n sends.
	// dodo:guardedby mu
	lossEvery int
	// dodo:guardedby mu
	sends int
}

// NewSegment creates an empty wire.
func NewSegment() *Segment {
	g := &Segment{bound: make(map[MACAddr]*Socket)}
	g.mu.SetRank(locks.RankSegment)
	return g
}

// SetLoss makes the segment drop every n-th frame (0 disables loss).
// U-Net itself is lossy under receive-queue overflow; this adds wire
// loss for protocol tests.
func (g *Segment) SetLoss(everyN int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.lossEvery = everyN
}

// Socket creates an unbound socket on this segment (the paper's
// u_socket). sendBuf and recvBuf are queue capacities in frames; recvBuf
// frames beyond capacity are dropped, as on real U-Net endpoints. The
// socket must be Closed (directly or through the transport wrapping it)
// to unregister from the segment.
//
// dodo:acquires(sock)
func (g *Segment) Socket(sendBuf, recvBuf int) (*Socket, error) {
	if sendBuf <= 0 || recvBuf <= 0 {
		return nil, fmt.Errorf("usocket: buffer sizes must be positive (got %d, %d)", sendBuf, recvBuf)
	}
	s := &Socket{seg: g, recvCap: recvBuf, ring: make([]frame, recvBuf)}
	s.mu.SetRank(locks.RankSocket)
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

type frame struct {
	from MACAddr
	data []byte
}

// Socket is one U-Net endpoint.
type Socket struct {
	// dodo:unguarded — immutable after construction
	seg *Segment
	// dodo:unguarded — immutable after construction
	recvCap int

	mu locks.Mutex
	// dodo:unguarded — set at construction; Cond is internally synchronized
	cond *sync.Cond
	// ring is the receive queue: recvCap slots, queued frames at
	// head, head+1, ... (mod recvCap). A fixed ring, as on the NIC: a
	// deposit or a dequeue moves an index and allocates nothing.
	// dodo:guardedby mu
	ring []frame
	// dodo:guardedby mu
	head int
	// dodo:guardedby mu
	queued int
	// dodo:guardedby mu
	bound bool
	// dodo:guardedby mu
	addr MACAddr
	// dodo:guardedby mu
	conn bool
	// dodo:guardedby mu
	peer MACAddr
	// dodo:guardedby mu
	closed bool
	// dodo:guardedby mu
	overflow int // frames dropped at the receive queue
}

// Bind attaches the socket to a local MAC address (the paper's u_bind).
func (s *Socket) Bind(addr MACAddr) error {
	s.seg.mu.Lock()
	defer s.seg.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, taken := s.seg.bound[addr]; taken {
		return fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	if s.bound {
		delete(s.seg.bound, s.addr)
	}
	s.seg.bound[addr] = s
	s.addr = addr
	s.bound = true
	return nil
}

// LocalAddr returns the bound address.
func (s *Socket) LocalAddr() (MACAddr, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr, s.bound
}

// Connect fixes the default peer for Send (the paper's u_connect).
func (s *Socket) Connect(peer MACAddr) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.peer = peer
	s.conn = true
	return nil
}

// Send transmits one frame to the connected peer (the paper's u_send).
// It returns the number of payload bytes accepted.
func (s *Socket) Send(buf []byte) (int, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	if !s.conn {
		s.mu.Unlock()
		return 0, ErrNotConn
	}
	peer := s.peer
	s.mu.Unlock()
	return s.SendTo(peer, buf)
}

// SendTo transmits one frame to an explicit peer.
func (s *Socket) SendTo(peer MACAddr, buf []byte) (int, error) {
	if len(buf) > MTU {
		return 0, ErrTooLarge
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	if !s.bound {
		s.mu.Unlock()
		return 0, ErrNotBound
	}
	from := s.addr
	s.mu.Unlock()

	g := s.seg
	g.mu.Lock()
	g.sends++
	if g.lossEvery > 0 && g.sends%g.lossEvery == 0 {
		g.mu.Unlock()
		return len(buf), nil // dropped on the wire; sender can't tell
	}
	dst, ok := g.bound[peer]
	g.mu.Unlock()
	if !ok {
		// No such endpoint: the frame dies on the wire. Like Ethernet,
		// the sender sees success.
		return len(buf), nil
	}
	dst.deposit(from, append([]byte(nil), buf...))
	return len(buf), nil
}

// SendIovec gathers the iovec and transmits it as one frame to the
// connected peer (the paper's u_send_iovec).
func (s *Socket) SendIovec(iov []Iovec) (int, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	if !s.conn {
		s.mu.Unlock()
		return 0, ErrNotConn
	}
	peer := s.peer
	s.mu.Unlock()
	return s.SendIovecTo(peer, iov)
}

// SendIovecTo gathers the iovec and transmits it as one frame to an
// explicit peer. The gather happens directly into the frame the
// receiver will own, so a scatter-gather send costs exactly one copy —
// the same as SendTo — instead of gather-then-copy. The frame is a
// recycled one (wire.GetDataFrame), as an endpoint's buffer area is
// filled by the NIC again and again: this is the send of the bulk data
// plane, whose receiver gives the frame back when it has copied the
// payload out. SendTo carries the control messages, which their
// receiver decodes in place and keeps, so its frames are never given
// back and are allocated at their own size.
func (s *Socket) SendIovecTo(peer MACAddr, iov []Iovec) (int, error) {
	total := 0
	for _, v := range iov {
		total += len(v.Base)
	}
	if total > MTU {
		return 0, ErrTooLarge
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	if !s.bound {
		s.mu.Unlock()
		return 0, ErrNotBound
	}
	from := s.addr
	s.mu.Unlock()

	g := s.seg
	g.mu.Lock()
	g.sends++
	if g.lossEvery > 0 && g.sends%g.lossEvery == 0 {
		g.mu.Unlock()
		return total, nil // dropped on the wire; sender can't tell
	}
	dst, ok := g.bound[peer]
	g.mu.Unlock()
	if !ok {
		// No such endpoint: the frame dies on the wire, sender sees
		// success — same as SendTo.
		return total, nil
	}
	frame := wire.GetDataFrame()
	for _, v := range iov {
		frame = append(frame, v.Base...)
	}
	dst.deposit(from, frame)
	return total, nil
}

// deposit queues one frame on the receiving socket. The senders gather
// into a buffer of their own and give it away here; it belongs to the
// queue and then to whoever dequeues it. A frame the queue refuses
// (closed socket, full ring) is left to the garbage collector: it was
// never delivered, and it is never pooled either. Either way the
// sender's obligation to a pooled frame ends here.
//
// dodo:adopts(data)
// dodo:releases(frame)
func (s *Socket) deposit(from MACAddr, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if s.queued >= s.recvCap {
		s.overflow++ // receive queue overflow: U-Net drops the frame
		return
	}
	s.ring[(s.head+s.queued)%s.recvCap] = frame{from: from, data: data}
	s.queued++
	s.cond.Signal()
}

// Recv blocks for one frame, copying its payload into buf (the paper's
// u_recv). It returns the payload length (truncated to len(buf)) and the
// sender address. timeout <= 0 waits forever.
func (s *Socket) Recv(buf []byte, timeout time.Duration) (int, MACAddr, error) {
	f, err := s.dequeue(timeout)
	if err != nil {
		return 0, MACAddr{}, err
	}
	n := copy(buf, f.data)
	return n, f.from, nil
}

// RecvFrame blocks for one frame and hands over the buffer the sender
// deposited, whole and uncopied: the caller owns the returned slice and
// the socket keeps no reference to it. It is Recv without the second
// buffer and the copy into it, for callers that would otherwise
// allocate one per frame (the transport adapter).
func (s *Socket) RecvFrame(timeout time.Duration) ([]byte, MACAddr, error) {
	f, err := s.dequeue(timeout)
	if err != nil {
		return nil, MACAddr{}, err
	}
	return f.data, f.from, nil
}

// RecvIovec scatters one frame across the iovec (the paper's
// u_recv_iovec). It returns the total bytes scattered and the sender.
func (s *Socket) RecvIovec(iov []Iovec, timeout time.Duration) (int, MACAddr, error) {
	f, err := s.dequeue(timeout)
	if err != nil {
		return 0, MACAddr{}, err
	}
	total := 0
	rest := f.data
	for _, v := range iov {
		if len(rest) == 0 {
			break
		}
		n := copy(v.Base, rest)
		rest = rest[n:]
		total += n
	}
	return total, f.from, nil
}

func (s *Socket) dequeue(timeout time.Duration) (frame, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !sim.CondWaitTimeout(s.cond, timeout, func() bool {
		return s.queued > 0 || s.closed
	}) {
		return frame{}, ErrTimeout
	}
	if s.queued == 0 {
		return frame{}, ErrClosed
	}
	f := s.ring[s.head]
	s.ring[s.head] = frame{} // the frame is the caller's now
	s.head = (s.head + 1) % s.recvCap
	s.queued--
	return f, nil
}

// Overflow reports how many frames the receive queue has dropped.
func (s *Socket) Overflow() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.overflow
}

// RecvCap returns the receive queue capacity in frames. The bulk
// protocol's window negotiation uses it as the receiver's buffer space.
func (s *Socket) RecvCap() int { return s.recvCap }

// Close releases the socket and its binding (the paper's u_close).
//
// dodo:releases(sock)
func (s *Socket) Close() error {
	s.seg.mu.Lock()
	s.mu.Lock()
	if s.bound {
		delete(s.seg.bound, s.addr)
		s.bound = false
	}
	s.closed = true
	s.ring, s.head, s.queued = nil, 0, 0
	s.cond.Broadcast()
	s.mu.Unlock()
	s.seg.mu.Unlock()
	return nil
}
