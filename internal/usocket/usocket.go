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
	"sync/atomic"
	"time"

	"dodo/internal/locks"
	"dodo/internal/sim"
	"dodo/internal/simnet"
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
// can frame-switch to each other by MAC address. It is the one
// in-process fabric: the benchmarks measure it, and every sweep injects
// its faults here — seeded loss, duplication and reordering for the
// whole wire or per address, and partitions.
type Segment struct {
	mu locks.Mutex
	// dodo:guardedby mu
	bound map[MACAddr]*Socket
	// names is the MAC address Host and Addr give each host name, filled
	// once per name: a host opened again under its name is at its old
	// address.
	// dodo:guardedby mu
	names map[string]MACAddr
	// faults is nil while no fault is set, so a frame on a healthy wire
	// pays one nil check for the whole fault surface.
	// dodo:guardedby mu
	faults *faultPlan
	// overflow counts frames every receive ring on the segment dropped,
	// closed sockets' included.
	// dodo:atomic
	overflow atomic.Int64
}

// faultPlan is what the segment does to frames besides carrying them.
type faultPlan struct {
	wire  *simnet.Injector
	links map[MACAddr]*simnet.Injector
	cut   map[MACAddr]bool
}

// fate decides one frame from one address to another. A partition at
// either end drops it; otherwise the sender's link injector, the
// receiver's, then the wire's decide, so each decision comes from one
// deterministic stream.
func (p *faultPlan) fate(from, to MACAddr) simnet.Decision {
	switch {
	case p.cut[from] || p.cut[to]:
		return simnet.Decision{Drop: true}
	case p.links[from] != nil:
		return p.links[from].Next()
	case p.links[to] != nil:
		return p.links[to].Next()
	case p.wire != nil:
		return p.wire.Next()
	}
	return simnet.Decision{}
}

// NewSegment creates an empty wire.
func NewSegment() *Segment {
	g := &Segment{bound: make(map[MACAddr]*Socket), names: make(map[string]MACAddr)}
	g.mu.SetRank(locks.RankSegment)
	return g
}

// HostRing is the receive ring depth, in frames, of every socket Host
// binds. A bulk window of half of it fits with its offer and the
// control frames around it, and blasts from several senders at once
// overflow it, as they would a real U-Net endpoint's: the seeded
// sweeps drop frames here as well as on the wire.
const HostRing = 16

// Host binds a socket for the named host, at the address Addr gives the
// name, and wraps it as a transport. The caller owns the transport and
// must Close it; the name can then be opened again, at the same address.
func (g *Segment) Host(name string) (*UNet, error) {
	sock, err := g.Socket(HostRing, HostRing)
	if err != nil {
		return nil, err
	}
	if err := sock.Bind(g.mac(name)); err != nil {
		_ = sock.Close()
		return nil, err
	}
	return NewTransport(sock)
}

// Addr returns the transport address of the named host.
func (g *Segment) Addr(name string) string { return g.mac(name).String() }

// mac returns the MAC address of the named host, giving a new name the
// next locally administered address.
func (g *Segment) mac(name string) MACAddr {
	g.mu.Lock()
	defer g.mu.Unlock()
	if m, ok := g.names[name]; ok {
		return m
	}
	n := len(g.names) + 1
	m := MACAddr{0x02, 0, byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
	g.names[name] = m
	return m
}

// SetFaults makes the whole wire drop, duplicate and reorder frames as
// the seeded f decides; the zero Faults heals it. U-Net itself is lossy
// only under receive-ring overflow; this adds wire faults for protocol
// tests and sweeps.
func (g *Segment) SetFaults(f simnet.Faults) {
	g.editFaults(func(p *faultPlan) {
		p.wire = nil
		if f != (simnet.Faults{}) {
			p.wire = f.NewInjector()
		}
	})
}

// SetEndpointFaults degrades every link touching the address: each
// frame sent to or from it passes through an injector seeded from f. It
// models a flaky NIC or switch port. When both ends of a frame are
// degraded, the sender's injector decides.
func (g *Segment) SetEndpointFaults(addr string, f simnet.Faults) {
	g.editAddr(addr, func(p *faultPlan, m MACAddr) { p.links[m] = f.NewInjector() })
}

// ClearEndpointFaults heals the address's links.
func (g *Segment) ClearEndpointFaults(addr string) {
	g.editAddr(addr, func(p *faultPlan, m MACAddr) { delete(p.links, m) })
}

// Partition isolates the address: frames to or from it vanish until
// Heal. It models the crashed or cut-off hosts of §3.1.
func (g *Segment) Partition(addr string) {
	g.editAddr(addr, func(p *faultPlan, m MACAddr) { p.cut[m] = true })
}

// Heal reconnects a partitioned address.
func (g *Segment) Heal(addr string) {
	g.editAddr(addr, func(p *faultPlan, m MACAddr) { delete(p.cut, m) })
}

// editAddr edits the fault plan for one address. An address that is no
// MAC names no host, and no frame, so it leaves the plan as it is.
func (g *Segment) editAddr(addr string, edit func(*faultPlan, MACAddr)) {
	m, err := Aton(addr)
	if err != nil {
		return
	}
	g.editFaults(func(p *faultPlan) { edit(p, m) })
}

// editFaults edits the fault plan under the segment lock, and drops it
// once it sets nothing.
func (g *Segment) editFaults(edit func(*faultPlan)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	p := g.faults
	if p == nil {
		p = &faultPlan{links: make(map[MACAddr]*simnet.Injector), cut: make(map[MACAddr]bool)}
	}
	edit(p)
	g.faults = p
	if p.wire == nil && len(p.links) == 0 && len(p.cut) == 0 {
		g.faults = nil
	}
}

// Overflow reports how many frames the receive rings of the segment's
// sockets have dropped, closed sockets' included.
func (g *Segment) Overflow() int { return int(g.overflow.Load()) }

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
	dst := g.bound[peer]
	if g.faults != nil && dst != nil {
		fate := g.faults.fate(from, peer)
		g.mu.Unlock()
		dst.land(from, fate, func() []byte { return append([]byte(nil), buf...) })
		return len(buf), nil
	}
	g.mu.Unlock()
	if dst != nil {
		dst.deposit(from, append([]byte(nil), buf...))
	}
	// With no endpoint at peer the frame dies on the wire: like
	// Ethernet, the sender sees success, and no fault stream is drawn.
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
// payload out. SendTo carries the control messages, whose frames are
// allocated at their own size: their receiver offers them to
// wire.PutFrame too, once the message is dead, and only one that
// happens to have a data frame's capacity is kept.
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
	dst := g.bound[peer]
	if g.faults != nil && dst != nil {
		fate := g.faults.fate(from, peer)
		g.mu.Unlock()
		dst.land(from, fate, func() []byte { return gather(iov) })
		return total, nil
	}
	g.mu.Unlock()
	if dst != nil {
		dst.deposit(from, gather(iov))
	}
	return total, nil // as for SendTo, nothing tells a frame to no endpoint
}

// gather copies the iovec into a recycled data frame.
//
// dodo:acquires(frame)
func gather(iov []Iovec) []byte {
	frame := wire.GetDataFrame()
	for _, v := range iov {
		frame = append(frame, v.Base...)
	}
	return frame
}

// land delivers a frame the fault plan touched, as fate says: nothing
// for a drop; for a duplicate, a second frame from frame(), so one
// pooled frame is never deposited twice; and fate.ExtraDelay late for a
// reordered frame, which later frames overtake.
func (s *Socket) land(from MACAddr, fate simnet.Decision, frame func() []byte) {
	if fate.Drop {
		return
	}
	copies := 1
	if fate.Duplicate {
		copies = 2
	}
	for range copies {
		data := frame()
		if fate.ExtraDelay > 0 {
			time.AfterFunc(fate.ExtraDelay, func() { s.deposit(from, data) })
			continue
		}
		s.deposit(from, data)
	}
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
		s.seg.overflow.Add(1)
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
