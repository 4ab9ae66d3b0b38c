package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"time"

	"dodo/internal/locks"
	"dodo/internal/wire"
)

// UDPMTU is the largest datagram the UDP transport accepts: the 64 KB
// IPv4 datagram limit minus generous header room, matching the paper's
// "64 KB for UDP" packetization bound.
const UDPMTU = 63 << 10

// UDP is a Transport over a kernel UDP socket.
type UDP struct {
	// dodo:unguarded — immutable after construction; *net.UDPConn is
	// safe for concurrent use
	conn *net.UDPConn
	// rbuf is the pooled frame (wire.GetFrame) Recv lands the next
	// datagram in. One byte longer than the largest datagram Send
	// accepts, so an oversize datagram from a foreign sender shows as
	// UDPMTU+1 bytes instead of passing for a full-size one.
	// dodo:unguarded — touched only by Recv, single receive loop
	rbuf []byte
	// lastFrom/lastFromStr cache the text form of the latest sender, as
	// usocket.UNet does: a client talks to a handful of imds, and
	// formatting the same address for each datagram was an allocation
	// per receive.
	// dodo:unguarded — touched only by Recv, single receive loop
	lastFrom netip.AddrPort
	// dodo:unguarded — touched only by Recv, single receive loop
	lastFromStr string

	mu locks.Mutex
	// dodo:guardedby mu
	routes map[string]*net.UDPAddr
	// dodo:guardedby mu
	closed bool
}

var (
	_ Transport = (*UDP)(nil)
	_ VecSender = (*UDP)(nil)
)

// ListenUDP opens a UDP transport bound to addr (e.g. "127.0.0.1:0").
// The transport keeps the frame its first receive lands in.
//
// dodo:transfers(frame)
func ListenUDP(addr string) (*UDP, error) {
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolving %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listening on %q: %w", addr, err)
	}
	u := &UDP{conn: conn, routes: make(map[string]*net.UDPAddr)}
	u.mu.SetRank(locks.RankUDP)
	rbuf := wire.GetFrame(UDPMTU + 1)
	u.rbuf = rbuf
	return u, nil
}

// LocalAddr returns the bound "ip:port".
func (u *UDP) LocalAddr() string { return u.conn.LocalAddr().String() }

// MTU returns the UDP datagram bound.
func (u *UDP) MTU() int { return UDPMTU }

// Send transmits one datagram to the "ip:port" address to.
func (u *UDP) Send(to string, data []byte) error {
	if len(data) > UDPMTU {
		return ErrTooLarge
	}
	raddr, err := u.route(to)
	if err != nil {
		return err
	}
	if _, err := u.conn.WriteToUDP(data, raddr); err != nil {
		if errors.Is(err, net.ErrClosed) {
			return ErrClosed
		}
		return fmt.Errorf("transport: udp send to %s: %w", to, err)
	}
	return nil
}

// SendVec transmits prefix+payload as one datagram. The kernel needs a
// contiguous buffer, so the two segments are gathered into a pooled
// frame that is recycled as soon as the write returns — no per-packet
// heap allocation.
func (u *UDP) SendVec(to string, prefix, payload []byte) error {
	n := len(prefix) + len(payload)
	if n > UDPMTU {
		return ErrTooLarge
	}
	raddr, err := u.route(to)
	if err != nil {
		return err
	}
	frame := wire.GetFrame(n)
	defer wire.PutFrame(frame)
	copy(frame, prefix)
	copy(frame[len(prefix):], payload)
	if _, err := u.conn.WriteToUDP(frame, raddr); err != nil {
		if errors.Is(err, net.ErrClosed) {
			return ErrClosed
		}
		return fmt.Errorf("transport: udp send to %s: %w", to, err)
	}
	return nil
}

func (u *UDP) route(to string) (*net.UDPAddr, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return nil, ErrClosed
	}
	if a, ok := u.routes[to]; ok {
		return a, nil
	}
	a, err := net.ResolveUDPAddr("udp", to)
	if err != nil {
		return nil, fmt.Errorf("transport: %w: %q: %v", ErrNoRoute, to, err)
	}
	u.routes[to] = a
	return a, nil
}

// Recv blocks for one datagram. The kernel needs room for the largest
// datagram before it says how long this one is, so the read lands in a
// pooled frame of that size (Recv is called from a single receive
// loop). A datagram of wire.MinPooledFrame bytes or more is handed over
// in that frame, and a fresh pooled frame takes its place for the next
// read: a 32 KB inline page crosses from the kernel to its receiver
// with one copy, and the receiver's wire.PutFrame recycles the frame.
// A smaller one is copied out at its own size, so a 100-byte control
// message costs 100 bytes of heap, not a 64 KB frame held until the
// garbage collector finds it.
//
// dodo:transfers(frame)
func (u *UDP) Recv(timeout time.Duration) ([]byte, string, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if err := u.conn.SetReadDeadline(deadline); err != nil {
		// Setting a deadline on a closed socket must surface as
		// ErrClosed, or receive loops spin forever.
		if errors.Is(err, net.ErrClosed) {
			return nil, "", ErrClosed
		}
		return nil, "", fmt.Errorf("transport: udp deadline: %w", err)
	}
	n, from, err := u.conn.ReadFromUDPAddrPort(u.rbuf)
	if err != nil {
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			return nil, "", ErrTimeout
		}
		if errors.Is(err, net.ErrClosed) {
			return nil, "", ErrClosed
		}
		return nil, "", fmt.Errorf("transport: udp recv: %w", err)
	}
	if from != u.lastFrom || u.lastFromStr == "" {
		// Unmapped first: a dual-stack socket reports an IPv4 peer as
		// ::ffff:a.b.c.d, and the address must read as Send's callers
		// write it.
		u.lastFrom = from
		u.lastFromStr = netip.AddrPortFrom(from.Addr().Unmap(), from.Port()).String()
	}
	if n < wire.MinPooledFrame {
		return append([]byte(nil), u.rbuf[:n]...), u.lastFromStr, nil
	}
	data := u.rbuf[:n]
	next := wire.GetFrame(UDPMTU + 1)
	u.rbuf = next
	return data, u.lastFromStr, nil
}

// Close shuts the socket down.
func (u *UDP) Close() error {
	u.mu.Lock()
	u.closed = true
	u.mu.Unlock()
	return u.conn.Close()
}
