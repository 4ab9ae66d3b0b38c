// Package simnet provides parametric network cost models for the two
// communication substrates evaluated in the paper: UDP/IP through the
// kernel socket stack, and U-Net, the user-level network architecture of
// von Eicken et al. Both run over the same 100 Mb/s switched Fast Ethernet
// as the paper's Beowulf cluster.
//
// The models capture the property the paper's evaluation turns on: the
// wire is identical, but UDP pays a much larger per-message and per-packet
// software overhead (system calls, kernel buffering, IP stack traversal)
// than U-Net (direct user-level NIC access). The constants are calibrated
// so that end-to-end remote-memory fetch times sit in the regime the
// paper reports (remote memory decisively beats random disk I/O, U-Net
// appreciably beats UDP, and sequential disk roughly ties the network).
package simnet

import (
	"fmt"
	"math/rand"
	"time"
)

// CostModel describes the cost of moving a message of arbitrary size
// between two hosts on the same LAN.
type CostModel struct {
	// Name identifies the model in reports ("udp", "unet").
	Name string
	// PerMessage is fixed software overhead paid once per message on
	// each side (send + receive are folded together here).
	PerMessage time.Duration
	// PerPacket is software overhead paid for every MTU-sized frame of
	// the message.
	PerPacket time.Duration
	// MTU is the maximum payload carried per frame.
	MTU int
	// Bandwidth is the achievable wire bandwidth in bytes/second.
	Bandwidth float64
	// Propagation is the one-way wire/switch propagation delay.
	Propagation time.Duration
}

// Validate reports an error if the model is not usable.
func (m CostModel) Validate() error {
	if m.MTU <= 0 {
		return fmt.Errorf("simnet: model %q: MTU %d must be positive", m.Name, m.MTU)
	}
	if m.Bandwidth <= 0 {
		return fmt.Errorf("simnet: model %q: bandwidth %f must be positive", m.Name, m.Bandwidth)
	}
	if m.PerMessage < 0 || m.PerPacket < 0 || m.Propagation < 0 {
		return fmt.Errorf("simnet: model %q: negative overhead", m.Name)
	}
	return nil
}

// Packets returns the number of MTU-sized frames needed for n bytes.
// A zero-byte message still occupies one frame (the header).
func (m CostModel) Packets(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + m.MTU - 1) / m.MTU
}

// OneWay returns the time for a single n-byte message to leave the sender
// and be available at the receiver.
func (m CostModel) OneWay(n int) time.Duration {
	if n < 0 {
		n = 0
	}
	pkts := m.Packets(n)
	wire := time.Duration(float64(n) / m.Bandwidth * float64(time.Second))
	return m.PerMessage + time.Duration(pkts)*m.PerPacket + wire + m.Propagation
}

// RoundTrip returns the time for a small request followed by an n-byte
// response, the shape of every remote-memory read in Dodo.
func (m CostModel) RoundTrip(n int) time.Duration {
	return m.OneWay(64) + m.OneWay(n)
}

// Constants below are calibrated against the paper's platform (§5.1):
// 200 MHz Pentium Pro nodes, Linux 2.0.35, SMC Etherpower 10/100 (DEC
// Tulip) NICs, BayStack 350 Fast Ethernet switch.

// UDPFastEthernet models kernel UDP/IP on that platform. Linux 2.0-era
// UDP round-trip latency on Fast Ethernet was in the 200-300 µs range and
// sustained application-level bandwidth topped out near 9 MB/s.
func UDPFastEthernet() CostModel {
	return CostModel{
		Name:        "udp",
		PerMessage:  120 * time.Microsecond,
		PerPacket:   15 * time.Microsecond,
		MTU:         1500,
		Bandwidth:   9.5e6,
		Propagation: 20 * time.Microsecond,
	}
}

// UNetFastEthernet models U-Net on the same hardware: user-level NIC
// access eliminates the kernel from the data path, giving ~40 µs one-way
// small-message latency and near-wire bandwidth (~11.5 MB/s of the
// 12.5 MB/s raw).
func UNetFastEthernet() CostModel {
	return CostModel{
		Name:        "unet",
		PerMessage:  25 * time.Microsecond,
		PerPacket:   6 * time.Microsecond,
		MTU:         1500,
		Bandwidth:   11.5e6,
		Propagation: 20 * time.Microsecond,
	}
}

// ModelByName returns the calibrated model with the given name.
func ModelByName(name string) (CostModel, error) {
	switch name {
	case "udp":
		return UDPFastEthernet(), nil
	case "unet":
		return UNetFastEthernet(), nil
	}
	return CostModel{}, fmt.Errorf("simnet: unknown model %q (want \"udp\" or \"unet\")", name)
}

// Faults configures fault injection for the emulated U-Net segment
// (package usocket). The zero value injects nothing.
type Faults struct {
	// LossRate is the probability in [0,1) that a frame is dropped.
	LossRate float64
	// DupRate is the probability in [0,1) that a frame is delivered twice.
	DupRate float64
	// ReorderRate is the probability in [0,1) that a frame is delayed an
	// extra ReorderDelay, letting later frames overtake it.
	ReorderRate  float64
	ReorderDelay time.Duration
	// Seed makes the injection deterministic.
	Seed int64
}

// NewInjector builds a fault injector from the configuration.
func (f Faults) NewInjector() *Injector {
	return &Injector{cfg: f, rng: rand.New(rand.NewSource(f.Seed))}
}

// Injector makes per-frame drop/duplicate/reorder decisions. It is not
// safe for concurrent use; the segment calls it under its lock.
type Injector struct {
	cfg Faults
	rng *rand.Rand

	drops, dups, reorders, frames int
}

// Decision describes what should happen to one frame.
type Decision struct {
	Drop       bool
	Duplicate  bool
	ExtraDelay time.Duration
}

// Next returns the fate of the next frame.
func (in *Injector) Next() Decision {
	in.frames++
	var d Decision
	if in.cfg.LossRate > 0 && in.rng.Float64() < in.cfg.LossRate {
		in.drops++
		d.Drop = true
		return d
	}
	if in.cfg.DupRate > 0 && in.rng.Float64() < in.cfg.DupRate {
		in.dups++
		d.Duplicate = true
	}
	if in.cfg.ReorderRate > 0 && in.rng.Float64() < in.cfg.ReorderRate {
		in.reorders++
		d.ExtraDelay = in.cfg.ReorderDelay
	}
	return d
}

// Stats reports cumulative injection counts: frames seen, drops,
// duplicates and reorders.
func (in *Injector) Stats() (frames, drops, dups, reorders int) {
	return in.frames, in.drops, in.dups, in.reorders
}
