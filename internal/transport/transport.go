// Package transport abstracts the datagram substrate Dodo runs over. The
// paper's implementation can use either kernel UDP/IP or U-Net through the
// usocket library (§4); this package defines the common interface and
// the real UDP implementation. The U-Net one, on an emulated in-memory
// Ethernet segment with deterministic fault injection, is package
// usocket's: every test, sweep and benchmark that runs in one process
// runs on it.
//
// The interface is deliberately UDP-shaped — unreliable, unordered,
// message-oriented with a per-transport MTU — because the bulk transfer
// protocol (package bulk) supplies reliability above it exactly as §4.4
// describes.
package transport

import (
	"errors"
	"time"
)

// Errors shared by all implementations.
var (
	// ErrTimeout reports that no datagram arrived within the deadline.
	ErrTimeout = errors.New("transport: receive timed out")
	// ErrClosed reports use of a closed transport.
	ErrClosed = errors.New("transport: closed")
	// ErrTooLarge reports a send exceeding the transport MTU.
	ErrTooLarge = errors.New("transport: datagram exceeds MTU")
	// ErrNoRoute reports a send to an unknown address.
	ErrNoRoute = errors.New("transport: no route to host")
)

// Transport is one endpoint of a datagram network. Implementations must
// allow Send and Recv to be called concurrently with each other and with
// Close; Recv itself is called from a single receive loop.
type Transport interface {
	// LocalAddr returns this endpoint's address in the network's
	// addressing scheme ("ip:port" for UDP, MAC strings for usocket).
	LocalAddr() string
	// MTU returns the largest datagram this transport can carry.
	// Kernel UDP fragments up to ~64 KB; U-Net carries single Ethernet
	// frames (§4.4: "≈1500 bytes for U-Net and 64 KB for UDP").
	MTU() int
	// Send transmits one datagram. Delivery is not guaranteed.
	Send(to string, data []byte) error
	// Recv blocks until a datagram arrives or timeout elapses. A
	// timeout <= 0 blocks until a datagram arrives or Close, which then
	// returns ErrClosed: an endpoint's receive loop calls Recv(0) and
	// relies on Close to end it, so it arms no timer per wait. The
	// returned slice is owned by the caller.
	Recv(timeout time.Duration) (data []byte, from string, err error)
	// Close releases the endpoint; blocked Recv calls return ErrClosed.
	Close() error
}

// VecSender is an optional extension: a transport that can transmit a
// datagram supplied as two segments (a protocol prefix and a payload)
// without the caller first gathering them into one contiguous frame.
// The bulk data plane uses it to send BulkData packets whose payload is
// a slice of the transfer buffer — the transport performs the single
// gather copy it needs (into the receiver-owned frame on a usocket
// segment, or into a pooled frame handed to the kernel for UDP), so no
// intermediate per-packet frame is built by the sender.
//
// SendVec must not retain prefix or payload after it returns, and must
// never write to them: both may alias caller-owned memory (the payload
// typically aliases a live transfer buffer).
type VecSender interface {
	// SendVec transmits the concatenation of prefix and payload as one
	// datagram, subject to the same MTU bound as Send.
	SendVec(to string, prefix, payload []byte) error
}
