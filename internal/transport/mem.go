package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dodo/internal/locks"
	"dodo/internal/sim"
	"dodo/internal/simnet"
)

// Network is an in-memory datagram network for tests and single-process
// cluster harnesses. Endpoints are named, delivery preserves per-sender
// order unless reordering is injected, and a simnet.Injector can drop,
// duplicate or reorder frames deterministically.
//
// Delivery is synchronous: Send appends to the destination queue before
// returning, so tests need no sleeps.
type Network struct {
	mu locks.Mutex
	// dodo:guardedby mu
	hosts map[string]*MemEndpoint
	// dodo:unguarded — set by options in NewNetwork, immutable after
	injector *simnet.Injector
	// dodo:guardedby mu
	perHost map[string]*simnet.Injector
	// dodo:guardedby mu
	partitioned map[string]bool
	// dodo:unguarded — set by options in NewNetwork, immutable after
	mtu int
}

// NetworkOption configures a Network.
type NetworkOption func(*Network)

// WithFaults installs deterministic fault injection on every frame.
func WithFaults(f simnet.Faults) NetworkOption {
	return func(n *Network) { n.injector = f.NewInjector() }
}

// WithMTU sets the network MTU (default UDPMTU).
func WithMTU(mtu int) NetworkOption {
	return func(n *Network) { n.mtu = mtu }
}

// NewNetwork creates an empty in-memory network.
func NewNetwork(opts ...NetworkOption) *Network {
	n := &Network{
		hosts:       make(map[string]*MemEndpoint),
		perHost:     make(map[string]*simnet.Injector),
		partitioned: make(map[string]bool),
		mtu:         UDPMTU,
	}
	n.mu.SetRank(locks.RankNetwork)
	for _, o := range opts {
		o(n)
	}
	return n
}

// Host creates (or returns) the endpoint with the given address.
func (n *Network) Host(addr string) *MemEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.hosts[addr]; ok && !ep.closed.Load() {
		return ep
	}
	ep := &MemEndpoint{net: n, addr: addr}
	ep.mu.SetRank(locks.RankNetEndpoint)
	ep.cond = sync.NewCond(&ep.mu)
	n.hosts[addr] = ep
	return ep
}

// Partition isolates addr: frames to or from it vanish until Heal.
// It models the crashed/reclaimed hosts of §3.1.
func (n *Network) Partition(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitioned[addr] = true
}

// Heal reconnects a partitioned address.
func (n *Network) Heal(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitioned, addr)
}

// SetEndpointFaults degrades every link touching addr: each frame sent
// to or from it passes through a dedicated injector seeded from f. It
// models a flaky NIC or switch port, and may be installed and removed
// at runtime (unlike the construction-time WithFaults). The sender-side
// injector wins when both ends are degraded, keeping frame decisions
// attributable to one deterministic stream.
func (n *Network) SetEndpointFaults(addr string, f simnet.Faults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.perHost[addr] = f.NewInjector()
}

// ClearEndpointFaults heals addr's links.
func (n *Network) ClearEndpointFaults(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.perHost, addr)
}

// deliver routes one datagram, given as up to two segments (prefix may
// be nil): each recipient copy is gathered into one fresh frame, so a
// scatter-gather SendVec costs exactly the same single copy as a plain
// Send.
func (n *Network) deliver(from, to string, prefix, data []byte) error {
	n.mu.Lock()
	if n.partitioned[from] || n.partitioned[to] {
		n.mu.Unlock()
		return nil // silently dropped, like a dead wire
	}
	dst, ok := n.hosts[to]
	if !ok || dst.closed.Load() {
		n.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoRoute, to)
	}
	var decision simnet.Decision
	switch {
	case n.perHost[from] != nil:
		decision = n.perHost[from].Next()
	case n.perHost[to] != nil:
		decision = n.perHost[to].Next()
	case n.injector != nil:
		decision = n.injector.Next()
	}
	n.mu.Unlock()

	if decision.Drop {
		return nil
	}
	copies := 1
	if decision.Duplicate {
		copies = 2
	}
	for i := 0; i < copies; i++ {
		frame := make([]byte, 0, len(prefix)+len(data))
		frame = append(append(frame, prefix...), data...)
		if decision.ExtraDelay > 0 {
			// Reordering: defer this frame so later sends overtake it.
			time.AfterFunc(decision.ExtraDelay, func() { dst.enqueue(from, frame) })
			continue
		}
		dst.enqueue(from, frame)
	}
	return nil
}

// MemEndpoint is one endpoint on a Network.
type MemEndpoint struct {
	// dodo:unguarded — immutable after construction
	net *Network
	// dodo:unguarded — immutable after construction
	addr string

	mu locks.Mutex
	// dodo:unguarded — set at construction; Cond is internally synchronized
	cond *sync.Cond
	// dodo:guardedby mu
	queue []memFrame
	// closed is atomic so Send's fast path can refuse without taking
	// the endpoint lock; Recv re-checks it under mu via the cond loop.
	// dodo:atomic
	closed atomic.Bool
}

type memFrame struct {
	from string
	data []byte
}

var (
	_ Transport = (*MemEndpoint)(nil)
	_ VecSender = (*MemEndpoint)(nil)
)

// LocalAddr returns the endpoint name.
func (e *MemEndpoint) LocalAddr() string { return e.addr }

// MTU returns the network MTU.
func (e *MemEndpoint) MTU() int { return e.net.mtu }

// Send delivers one datagram through the network fabric.
func (e *MemEndpoint) Send(to string, data []byte) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if len(data) > e.net.mtu {
		return ErrTooLarge
	}
	return e.net.deliver(e.addr, to, nil, data)
}

// SendVec delivers prefix+payload as one datagram; the fabric gathers
// the two segments into each recipient's fresh frame directly.
func (e *MemEndpoint) SendVec(to string, prefix, payload []byte) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if len(prefix)+len(payload) > e.net.mtu {
		return ErrTooLarge
	}
	return e.net.deliver(e.addr, to, prefix, payload)
}

// enqueue takes ownership of data: deliver hands it a fresh copy per
// recipient, never a caller-owned buffer.
//
// dodo:adopts(data)
func (e *MemEndpoint) enqueue(from string, data []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return
	}
	e.queue = append(e.queue, memFrame{from: from, data: data})
	e.cond.Signal()
}

// Recv blocks until a frame arrives, the timeout passes, or Close.
func (e *MemEndpoint) Recv(timeout time.Duration) ([]byte, string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !sim.CondWaitTimeout(e.cond, timeout, func() bool {
		return len(e.queue) > 0 || e.closed.Load()
	}) {
		return nil, "", ErrTimeout
	}
	if len(e.queue) == 0 {
		return nil, "", ErrClosed
	}
	f := e.queue[0]
	e.queue = e.queue[1:]
	return f.data, f.from, nil
}

// Close removes the endpoint from the network.
func (e *MemEndpoint) Close() error {
	e.mu.Lock()
	e.closed.Store(true)
	e.queue = nil
	e.cond.Broadcast()
	e.mu.Unlock()
	return nil
}
