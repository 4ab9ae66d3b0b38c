// Package wire defines Dodo's binary wire protocol: the message types
// exchanged among the central manager daemon (cmd), the resource monitor
// daemons (rmd), the idle memory daemons (imd) and the client runtime
// library, together with their encoding.
//
// Every message travels as a fixed 12-byte header followed by a typed
// payload. Encoding is explicit big-endian binary (no reflection) so the
// format is stable, allocation-light and identical across transports
// (kernel UDP and the U-Net usocket layer).
// Each message has exactly one layout, stated once: its fields method
// names every field in wire order to a cursor (codec.go) that sizes,
// encodes and decodes with the same walk. A payload shorter than the
// layout is ErrTruncated — the cursor checks every read, no message
// does — and the header's Version byte is the only compatibility
// mechanism. The one layout written by hand is the BulkData fast path
// (fastpath.go), pinned against the walk by a test.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Protocol constants.
const (
	// Magic marks every Dodo frame. 0xD0D0: the bird.
	Magic uint16 = 0xD0D0
	// Version is the protocol version carried in every header, and the
	// protocol's only compatibility mechanism: every message has one
	// fixed layout, ParseHeader rejects a frame of any other version, and
	// a change to any layout bumps it. 2 dropped capability negotiation
	// and the optional trailing fields of version 1; 3 gave WriteReq its
	// inline payload; 4 made BulkOffer a one-way announcement that names
	// its window, and retired the accept that answered it; 5 made the
	// counters of KeepAliveAck and ClusterStatsResp a list of names.
	Version uint8 = 5
	// HeaderSize is the encoded size of a frame header.
	HeaderSize = 12
	// MaxPayload bounds a single message payload. Bulk data is split
	// across BulkData frames well below this bound.
	MaxPayload = 1 << 20
)

// Type identifies a message type.
type Type uint8

// Message types. Grouped by the pair of components that exchange them.
const (
	TInvalid Type = iota

	// Client <-> central manager.
	TAllocReq
	TAllocResp
	TFreeReq
	TFreeResp
	TCheckAllocReq
	TCheckAllocResp
	TKeepAlive
	TKeepAliveAck

	// rmd/imd <-> central manager.
	THostStatus
	THostStatusAck
	TIMDAllocReq
	TIMDAllocResp
	TIMDFreeReq
	TIMDFreeResp

	// Client <-> imd data path.
	TReadReq
	TWriteReq
	TDataResp

	// Bulk transfer sub-protocol.
	TBulkOffer
	// Reserved number of the retired answer to an offer; ParseHeader
	// refuses it.
	//
	// Deprecated: named by benchmark/metrics.go, which counts its frames.
	TBulkAccept
	TBulkData
	TBulkNack
	TBulkDone

	// Introspection (dodo-ctl <-> cmd).
	TClusterStatsReq
	TClusterStatsResp

	// Graceful-reclaim handoff (draining imd <-> cmd, imd <-> imd).
	THandoffOffer
	THandoffAccept
	THandoffPage
	THandoffDone

	// Manager crash-recovery: imd inventory re-report (imd <-> cmd).
	TInventoryReport
	TInventoryAck

	// Reserved numbers of the retired batched read; ParseHeader refuses them.
	//
	// Deprecated: named by benchmark/trace.go; go with core.BatchRead.
	TReadBatchReq
	TReadBatchResp

	typeSentinel // keep last
)

// types is the one registry of the protocol: a type's row gives the
// name it logs under and the constructor Decode calls. Registering a
// message is a constant above and a row here; a row with no constructor
// reserves its number, and ParseHeader refuses it.
var types = [typeSentinel]struct {
	name string
	new  func() Message
}{
	TInvalid:          {name: "invalid"},
	TAllocReq:         {"alloc-req", func() Message { return new(AllocReq) }},
	TAllocResp:        {"alloc-resp", func() Message { return new(AllocResp) }},
	TFreeReq:          {"free-req", func() Message { return new(FreeReq) }},
	TFreeResp:         {"free-resp", func() Message { return new(FreeResp) }},
	TCheckAllocReq:    {"check-alloc-req", func() Message { return new(CheckAllocReq) }},
	TCheckAllocResp:   {"check-alloc-resp", func() Message { return new(CheckAllocResp) }},
	TKeepAlive:        {"keep-alive", func() Message { return new(KeepAlive) }},
	TKeepAliveAck:     {"keep-alive-ack", func() Message { return new(KeepAliveAck) }},
	THostStatus:       {"host-status", func() Message { return new(HostStatus) }},
	THostStatusAck:    {"host-status-ack", func() Message { return new(HostStatusAck) }},
	TIMDAllocReq:      {"imd-alloc-req", func() Message { return new(IMDAllocReq) }},
	TIMDAllocResp:     {"imd-alloc-resp", func() Message { return new(IMDAllocResp) }},
	TIMDFreeReq:       {"imd-free-req", func() Message { return new(IMDFreeReq) }},
	TIMDFreeResp:      {"imd-free-resp", func() Message { return new(IMDFreeResp) }},
	TReadReq:          {"read-req", func() Message { return new(ReadReq) }},
	TWriteReq:         {"write-req", func() Message { return new(WriteReq) }},
	TDataResp:         {"data-resp", func() Message { return new(DataResp) }},
	TBulkOffer:        {"bulk-offer", func() Message { return new(BulkOffer) }},
	TBulkAccept:       {name: "bulk-accept"},
	TBulkData:         {"bulk-data", func() Message { return new(BulkData) }},
	TBulkNack:         {"bulk-nack", func() Message { return new(BulkNack) }},
	TBulkDone:         {"bulk-done", func() Message { return new(BulkDone) }},
	TClusterStatsReq:  {"cluster-stats-req", func() Message { return new(ClusterStatsReq) }},
	TClusterStatsResp: {"cluster-stats-resp", func() Message { return new(ClusterStatsResp) }},
	THandoffOffer:     {"handoff-offer", func() Message { return new(HandoffOffer) }},
	THandoffAccept:    {"handoff-accept", func() Message { return new(HandoffAccept) }},
	THandoffPage:      {"handoff-page", func() Message { return new(HandoffPage) }},
	THandoffDone:      {"handoff-done", func() Message { return new(HandoffDone) }},
	TInventoryReport:  {"inventory-report", func() Message { return new(InventoryReport) }},
	TInventoryAck:     {"inventory-ack", func() Message { return new(InventoryAck) }},
	TReadBatchReq:     {name: "read-batch-req"},
	TReadBatchResp:    {name: "read-batch-resp"},
}

// Messages returns a zero message of every registered type, in Type
// order. Each dispatcher's table test runs them all through it, so a
// type registered above fails those tests until their tables say what
// the dispatcher does with it.
func Messages() []Message {
	var out []Message
	for _, row := range types {
		if row.new != nil {
			out = append(out, row.new())
		}
	}
	return out
}

// Caps is the type of the inert ReadReq.Caps field.
//
// Deprecated: kept for benchmark/probes.go; nothing reads it.
type Caps uint32

// LocalCaps is the value benchmark/probes.go stores in ReadReq.Caps.
//
// Deprecated: kept for benchmark/probes.go; nothing reads it.
const LocalCaps Caps = 7

func (t Type) String() string {
	if t < typeSentinel {
		return types[t].name
	}
	return fmt.Sprintf("wire.Type(%d)", uint8(t))
}

// Status is the result code carried in every response, mirroring the
// errno-style results of the paper's API (§3.2).
type Status uint8

// Status codes.
const (
	StatusOK Status = iota
	// StatusNoMem: allocation failed for lack of idle memory (ENOMEM).
	StatusNoMem
	// StatusInvalid: malformed request or bad arguments (EINVAL).
	StatusInvalid
	// StatusNotFound: region unknown to the receiver.
	StatusNotFound
	// StatusStale: the region's epoch does not match the host's current
	// epoch; the hosting imd restarted since allocation.
	StatusStale
	// StatusBusy: host was reclaimed by its owner; imd is draining.
	StatusBusy
)

var statusNames = map[Status]string{
	StatusOK:       "ok",
	StatusNoMem:    "no-memory",
	StatusInvalid:  "invalid",
	StatusNotFound: "not-found",
	StatusStale:    "stale-epoch",
	StatusBusy:     "host-busy",
}

func (s Status) String() string {
	if n, ok := statusNames[s]; ok {
		return n
	}
	return fmt.Sprintf("wire.Status(%d)", uint8(s))
}

// Errors returned by the codec.
var (
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrBadType     = errors.New("wire: unknown message type")
	ErrShortFrame  = errors.New("wire: frame shorter than declared payload")
	ErrOversize    = errors.New("wire: payload exceeds MaxPayload")
	ErrTruncated   = errors.New("wire: truncated payload")
	ErrFieldBounds = errors.New("wire: field exceeds bounds")
)

// Header is the fixed preamble of every frame.
type Header struct {
	Type Type
	// Seq correlates a response with its request. The requester picks
	// it; responders echo it.
	Seq uint32
	// PayloadLen is the byte length of the payload that follows.
	PayloadLen uint32
}

// PutHeader encodes h into buf, which must be at least HeaderSize bytes.
func PutHeader(buf []byte, h Header) {
	binary.BigEndian.PutUint16(buf[0:2], Magic)
	buf[2] = Version
	buf[3] = uint8(h.Type)
	binary.BigEndian.PutUint32(buf[4:8], h.Seq)
	binary.BigEndian.PutUint32(buf[8:12], h.PayloadLen)
}

// ParseHeader decodes and validates a frame header.
func ParseHeader(buf []byte) (Header, error) {
	if len(buf) < HeaderSize {
		return Header{}, ErrTruncated
	}
	if binary.BigEndian.Uint16(buf[0:2]) != Magic {
		return Header{}, ErrBadMagic
	}
	if buf[2] != Version {
		return Header{}, ErrBadVersion
	}
	t := Type(buf[3])
	if t >= typeSentinel || types[t].new == nil {
		return Header{}, ErrBadType
	}
	h := Header{
		Type:       t,
		Seq:        binary.BigEndian.Uint32(buf[4:8]),
		PayloadLen: binary.BigEndian.Uint32(buf[8:12]),
	}
	if h.PayloadLen > MaxPayload {
		return Header{}, ErrOversize
	}
	if uint32(len(buf)-HeaderSize) < h.PayloadLen {
		return Header{}, ErrShortFrame
	}
	return h, nil
}

// RegionKey identifies a region in the central manager's region directory.
// Per §4.3 it is the (inode-number-of-backing-file, offset-in-file) pair;
// ClientID extends the key for multi-client configurations (the paper's
// footnote 4 plans exactly this extension).
type RegionKey struct {
	Inode    uint64
	Offset   int64
	ClientID uint32
}

func (k RegionKey) String() string {
	return fmt.Sprintf("region(%d@%d/c%d)", k.Inode, k.Offset, k.ClientID)
}

func (k *RegionKey) fields(c *cursor) {
	c.u64(&k.Inode)
	c.i64(&k.Offset)
	c.u32(&k.ClientID)
}

// Region is the descriptor the central manager hands back on allocation:
// the host serving the region, the region's identifier and pool offset on
// that host, its length, and the host's epoch at allocation time (§4.3).
type Region struct {
	// HostAddr is the transport address of the hosting imd.
	HostAddr string
	// RegionID is the imd-local identifier of the region.
	RegionID uint64
	// PoolOffset is the region's offset within the imd memory pool.
	PoolOffset uint64
	// Length is the region length in bytes.
	Length uint64
	// Epoch is the hosting imd's epoch when the region was allocated.
	Epoch uint64
}

func (r *Region) fields(c *cursor) {
	c.str(&r.HostAddr)
	c.u64(&r.RegionID, &r.PoolOffset, &r.Length, &r.Epoch)
}
