package usocket

import (
	"errors"
	"sync/atomic"
	"time"

	"dodo/internal/transport"
)

// UNet adapts a usocket Socket to the transport.Transport interface so
// every Dodo daemon can run unchanged over the U-Net substrate, just as
// the paper's implementation selects UDP or U-Net at startup (§4).
// Addresses on this transport are MAC strings ("aa:bb:cc:dd:ee:ff").
type UNet struct {
	// dodo:unguarded — immutable after construction
	sock *Socket
	// local/localStr are the address the socket was bound to when it
	// was wrapped, and its text form: LocalAddr is asked per message by
	// callers addressing a peer, and formats only after a re-Bind.
	// dodo:unguarded — immutable after construction
	local MACAddr
	// dodo:unguarded — immutable after construction
	localStr string

	// lastFrom/lastFromStr cache the text form of the latest sender: a
	// blast is many frames from one peer, and formatting the same six
	// bytes for each would be the receive path's only allocation
	// besides the frame. Recv is called from a single receive loop
	// (the Transport contract), so the pair needs no lock.
	// dodo:unguarded — touched only by Recv, single receive loop
	lastFrom MACAddr
	// dodo:unguarded — touched only by Recv, single receive loop
	lastFromStr string

	// lastTo is the same cache in the other direction: the destination
	// parsed last, since a blast is many frames to one peer. Send is
	// called from many goroutines, so the pair is immutable and swapped
	// whole.
	// dodo:atomic
	lastTo atomic.Pointer[dest]
}

// dest is a destination address in both its forms.
type dest struct {
	text string
	mac  MACAddr
}

var (
	_ transport.Transport = (*UNet)(nil)
	_ transport.VecSender = (*UNet)(nil)
)

// NewTransport wraps a bound socket. On success the socket's lifetime
// moves to the transport: UNet.Close closes it. On error the caller
// still owns the socket.
func NewTransport(sock *Socket) (*UNet, error) {
	addr, bound := sock.LocalAddr()
	if !bound {
		return nil, ErrNotBound
	}
	return &UNet{sock: sock, local: addr, localStr: addr.String()}, nil
}

// LocalAddr returns the socket's MAC string.
func (u *UNet) LocalAddr() string {
	if addr, _ := u.sock.LocalAddr(); addr != u.local {
		return addr.String()
	}
	return u.localStr
}

// MTU returns the single-frame U-Net payload limit.
func (u *UNet) MTU() int { return MTU }

// parseDest is Aton through the one-entry cache.
func (u *UNet) parseDest(to string) (MACAddr, error) {
	if d := u.lastTo.Load(); d != nil && d.text == to {
		return d.mac, nil
	}
	mac, err := Aton(to)
	if err != nil {
		return MACAddr{}, transport.ErrNoRoute
	}
	u.lastTo.Store(&dest{text: to, mac: mac})
	return mac, nil
}

// Send transmits one frame to the MAC string address.
func (u *UNet) Send(to string, data []byte) error {
	mac, err := u.parseDest(to)
	if err != nil {
		return err
	}
	_, err = u.sock.SendTo(mac, data)
	switch {
	case errors.Is(err, ErrTooLarge):
		return transport.ErrTooLarge
	case errors.Is(err, ErrClosed):
		return transport.ErrClosed
	}
	return err
}

// SendVec transmits prefix+payload as one frame via the socket's iovec
// send: the two segments ride U-Net's scatter-gather path and are
// copied exactly once, into the receiver-owned frame.
func (u *UNet) SendVec(to string, prefix, payload []byte) error {
	mac, err := u.parseDest(to)
	if err != nil {
		return err
	}
	_, err = u.sock.SendIovecTo(mac, []Iovec{{Base: prefix}, {Base: payload}})
	switch {
	case errors.Is(err, ErrTooLarge):
		return transport.ErrTooLarge
	case errors.Is(err, ErrClosed):
		return transport.ErrClosed
	}
	return err
}

// Recv blocks for one frame. The returned slice is the very buffer the
// sender's gather filled (Socket.RecvFrame): the frame crosses the
// emulated wire with one copy on the way in and none on the way out.
func (u *UNet) Recv(timeout time.Duration) ([]byte, string, error) {
	data, from, err := u.sock.RecvFrame(timeout)
	switch {
	case errors.Is(err, ErrTimeout):
		return nil, "", transport.ErrTimeout
	case errors.Is(err, ErrClosed):
		return nil, "", transport.ErrClosed
	case err != nil:
		return nil, "", err
	}
	if from != u.lastFrom || u.lastFromStr == "" {
		u.lastFrom, u.lastFromStr = from, from.String()
	}
	return data, u.lastFromStr, nil
}

// Close releases the underlying socket.
func (u *UNet) Close() error { return u.sock.Close() }
