package wire

import "fmt"

// AllocReq asks the central manager to allocate a remote region of Length
// bytes keyed by Key (client -> cmd).
type AllocReq struct {
	Key    RegionKey
	Length uint64
}

func (*AllocReq) Kind() Type { return TAllocReq }
func (m *AllocReq) fields(c *cursor) {
	m.Key.fields(c)
	c.u64(&m.Length)
}

// AllocResp carries the allocation result (cmd -> client). Incarnation
// is the responding manager's incarnation number; clients track the
// highest incarnation seen and discard responses stamped with an older
// one, so a delayed pre-crash grant can never be acted on after the
// manager restarted.
type AllocResp struct {
	Status      Status
	Incarnation uint64
	Region      Region
}

func (*AllocResp) Kind() Type { return TAllocResp }
func (m *AllocResp) fields(c *cursor) {
	c.status(&m.Status)
	c.u64(&m.Incarnation)
	m.Region.fields(c)
}

// FreeReq releases the region with the given key (client -> cmd).
type FreeReq struct {
	Key RegionKey
}

func (*FreeReq) Kind() Type { return TFreeReq }
func (m *FreeReq) fields(c *cursor) {
	m.Key.fields(c)
}

// FreeResp acknowledges a free (cmd -> client), stamped with the
// manager incarnation like every other manager response.
type FreeResp struct {
	Status      Status
	Incarnation uint64
}

func (*FreeResp) Kind() Type { return TFreeResp }
func (m *FreeResp) fields(c *cursor) {
	c.status(&m.Status)
	c.u64(&m.Incarnation)
}

// CheckAllocReq asks the cmd whether a region is still valid (§4.3
// checkAlloc), returning its descriptor if so.
type CheckAllocReq struct {
	Key RegionKey
}

func (*CheckAllocReq) Kind() Type { return TCheckAllocReq }
func (m *CheckAllocReq) fields(c *cursor) {
	m.Key.fields(c)
}

// CheckAllocResp returns the region descriptor if the epoch check passed.
// Fresh marks a descriptor whose backing region was populated by a
// graceful-reclaim handoff: the new host already holds every byte the
// client had confirmed, so a recovering client with no unconfirmed
// writes may adopt the mapping without repopulating from disk.
type CheckAllocResp struct {
	Status      Status
	Fresh       bool
	Incarnation uint64
	Region      Region
}

func (*CheckAllocResp) Kind() Type { return TCheckAllocResp }
func (m *CheckAllocResp) fields(c *cursor) {
	c.status(&m.Status)
	c.flag(&m.Fresh)
	c.u64(&m.Incarnation)
	m.Region.fields(c)
}

// KeepAlive is the cmd's periodic liveness echo to a client (§3.1). The
// client must answer with KeepAliveAck or its regions are reclaimed.
// Incarnation carries the manager's incarnation, so a surviving client
// learns about a manager restart on the very next keep-alive and can
// start revalidating its regions against the rebuilt directory.
type KeepAlive struct {
	ClientID    uint32
	Incarnation uint64
}

func (*KeepAlive) Kind() Type { return TKeepAlive }
func (m *KeepAlive) fields(c *cursor) {
	c.u32(&m.ClientID)
	c.u64(&m.Incarnation)
}

// KeepAliveAck is the client's echo response. It piggybacks the
// client's running totals (§4.3 style hint-carrying) so the manager
// can aggregate them cluster-wide without extra RPCs.
type KeepAliveAck struct {
	ClientID uint32
	// Counters are the client's running totals, by name; at most 64.
	Counters []Counter
	// CorruptHosts breaks the client's checksum failures down by the
	// host that served the corrupt frame.
	CorruptHosts []HostCount
}

func (*KeepAliveAck) Kind() Type { return TKeepAliveAck }
func (m *KeepAliveAck) fields(c *cursor) {
	c.u32(&m.ClientID)
	ackCounters.counted(c, &m.Counters)
	hostCounts.counted(c, &m.CorruptHosts)
}

// HostState is the recruit/reclaim state an rmd reports for its host.
type HostState uint8

// Host states carried in HostStatus.
const (
	// HostIdle: the host satisfied the idleness predicate; its imd is up
	// and serving with the given pool size.
	HostIdle HostState = iota
	// HostBusy: the owner reclaimed the host; the imd is gone and all
	// regions it hosted are invalid.
	HostBusy
)

func (s HostState) String() string {
	switch s {
	case HostIdle:
		return "idle"
	case HostBusy:
		return "busy"
	}
	return fmt.Sprintf("wire.HostState(%d)", uint8(s))
}

// HostStatus is sent by an rmd/imd to the cmd on state changes and
// piggybacked on every imd<->cmd exchange (§4.3): the host's epoch, its
// total available pool and the largest free block, which the IWD stores
// as hints.
type HostStatus struct {
	HostAddr    string
	State       HostState
	Epoch       uint64
	AvailBytes  uint64
	LargestFree uint64
	// Incarnation is the manager incarnation the sender last heard
	// from. Zero is a protocol state, first contact: the sender has not
	// heard from any manager yet, and the announce is always accepted.
	// A non-zero mismatch is fenced with StatusStale so a delayed
	// pre-crash HostBusy cannot tear down a row the restarted manager
	// just rebuilt.
	Incarnation uint64
}

func (*HostStatus) Kind() Type { return THostStatus }
func (m *HostStatus) fields(c *cursor) {
	c.str(&m.HostAddr)
	c.u8((*uint8)(&m.State))
	c.u64(&m.Epoch, &m.AvailBytes, &m.LargestFree, &m.Incarnation)
}

// HostStatusAck acknowledges a HostStatus. Incarnation carries the
// manager's current incarnation: it is how an imd discovers a manager
// restart (and kicks its inventory re-report), and on StatusStale it
// names the incarnation the sender must re-announce against.
type HostStatusAck struct {
	Status      Status
	Incarnation uint64
}

func (*HostStatusAck) Kind() Type { return THostStatusAck }
func (m *HostStatusAck) fields(c *cursor) {
	c.status(&m.Status)
	c.u64(&m.Incarnation)
}

// IMDAllocReq is the cmd asking an imd to carve a region from its pool.
// Key and Client record the region's directory key and owning client at
// the imd, so a restarted manager can rebuild its full directory row
// from the imd's inventory re-report alone.
type IMDAllocReq struct {
	RegionID uint64
	Length   uint64
	Key      RegionKey
	Client   string
}

func (*IMDAllocReq) Kind() Type { return TIMDAllocReq }
func (m *IMDAllocReq) fields(c *cursor) {
	c.u64(&m.RegionID, &m.Length)
	m.Key.fields(c)
	c.str(&m.Client)
}

// IMDAllocResp reports the pool offset of a new region, with the imd's
// current availability piggybacked (§4.3).
type IMDAllocResp struct {
	Status      Status
	PoolOffset  uint64
	Epoch       uint64
	AvailBytes  uint64
	LargestFree uint64
}

func (*IMDAllocResp) Kind() Type { return TIMDAllocResp }
func (m *IMDAllocResp) fields(c *cursor) {
	c.status(&m.Status)
	c.u64(&m.PoolOffset, &m.Epoch, &m.AvailBytes, &m.LargestFree)
}

// IMDFreeReq is the cmd asking an imd to release a region.
type IMDFreeReq struct {
	RegionID uint64
}

func (*IMDFreeReq) Kind() Type { return TIMDFreeReq }
func (m *IMDFreeReq) fields(c *cursor) {
	c.u64(&m.RegionID)
}

// IMDFreeResp acknowledges a region free, with availability piggybacked.
type IMDFreeResp struct {
	Status      Status
	Epoch       uint64
	AvailBytes  uint64
	LargestFree uint64
}

func (*IMDFreeResp) Kind() Type { return TIMDFreeResp }
func (m *IMDFreeResp) fields(c *cursor) {
	c.status(&m.Status)
	c.u64(&m.Epoch, &m.AvailBytes, &m.LargestFree)
}

// ReadReq asks an imd for Length bytes at Offset within a region (client
// -> imd data path). A read that fits one frame (InlineDataLimit) is
// answered inline in the DataResp and leaves XferID, ChunkSize and
// Window zero. For a larger read XferID is the requester-chosen bulk
// transfer id (the requester pre-registers its receive state under this
// id before sending, so the data can never race ahead of it), and
// ChunkSize/Window are the packet size and receive window it committed.
type ReadReq struct {
	RegionID uint64
	Epoch    uint64
	Offset   uint64
	Length   uint64

	// Deprecated: kept for benchmark/probes.go; nothing reads it.
	Caps      Caps
	XferID    uint64
	ChunkSize uint32
	Window    uint32
}

func (*ReadReq) Kind() Type { return TReadReq }
func (m *ReadReq) fields(c *cursor) {
	c.u64(&m.RegionID, &m.Epoch, &m.Offset, &m.Length)
	c.u32((*uint32)(&m.Caps))
	c.u64(&m.XferID)
	c.u32(&m.ChunkSize, &m.Window)
}

// WriteReq writes Length bytes at Offset within a region, in one of two
// shapes chosen by size alone, as a read's response is. A write that
// fits one frame (InlineWriteLimit) carries its bytes in Payload and
// leaves TransferID zero: one request, one DataResp. The bytes of a
// larger write are pushed first, under TransferID, by the bulk protocol
// (a BulkOffer and its blast); the request that follows names the
// transfer, and the imd takes the bytes from it. WriteSeq orders writes
// to one region: the imd ignores a request whose sequence is not newer
// than the last write it applied, so a duplicated or delayed request
// replayed by the network can never roll the region back to older
// bytes. The first write carries sequence 1; the imd refuses zero. Crc
// is the CRC32C of the Length bytes; the imd refuses the write when the
// bytes it received do not match.
type WriteReq struct {
	RegionID   uint64
	Epoch      uint64
	Offset     uint64
	Length     uint64
	TransferID uint64
	WriteSeq   uint64
	Crc        uint32
	Payload    []byte
}

func (*WriteReq) Kind() Type { return TWriteReq }
func (m *WriteReq) fields(c *cursor) {
	c.u64(&m.RegionID, &m.Epoch, &m.Offset, &m.Length, &m.TransferID, &m.WriteSeq)
	c.u32(&m.Crc)
	c.rest(&m.Payload)
}

// DataResp reports the outcome of a read or write: the byte count
// actually served (which may be short, per §3.2). A successful read
// sets exactly one flag. With DataFlagInline, Payload holds the served
// bytes themselves — the whole read answered in this one frame. With
// DataFlagEager, the bytes are already being blasted under TransferID,
// the id the requester chose and pre-registered: the response doubles
// as the bulk offer and no BulkOffer is sent. Either way Crc is the
// CRC32C of the served bytes, computed over the pool snapshot, and the
// client verifies it once they have all arrived. Write acks and
// refusals carry neither flag nor payload.
type DataResp struct {
	Status     Status
	Count      uint64
	TransferID uint64
	Crc        uint32
	Flags      uint8
	Payload    []byte
}

// DataResp.Flags bits.
const (
	// DataFlagInline: Payload carries the served bytes inline.
	DataFlagInline uint8 = 1 << iota
	// DataFlagEager: this response doubles as the bulk offer; the first
	// window is already in flight under the requester-chosen TransferID.
	DataFlagEager
)

func (*DataResp) Kind() Type { return TDataResp }
func (m *DataResp) fields(c *cursor) {
	c.status(&m.Status)
	c.u64(&m.Count, &m.TransferID)
	c.u32(&m.Crc)
	c.u8(&m.Flags)
	c.rest(&m.Payload)
}

// BulkOffer announces a pushed transfer (§4.4), one way: its total
// length, packet payload size and the window of packets the sender
// blasts before it waits for an ack. Nothing answers it but BulkDone:
// OK for a transfer already complete, StatusInvalid for an offer the
// receiver cannot take.
type BulkOffer struct {
	TransferID uint64
	TotalLen   uint64
	ChunkSize  uint32
	Window     uint32
}

func (*BulkOffer) Kind() Type { return TBulkOffer }
func (m *BulkOffer) fields(c *cursor) {
	c.u64(&m.TransferID, &m.TotalLen)
	c.u32(&m.ChunkSize, &m.Window)
}

// BulkData carries one sequenced chunk of a transfer.
type BulkData struct {
	TransferID uint64
	Seq        uint32
	Payload    []byte
}

func (*BulkData) Kind() Type { return TBulkData }
func (m *BulkData) fields(c *cursor) {
	c.u64(&m.TransferID)
	c.u32(&m.Seq)
	c.rest(&m.Payload)
}

// BulkNack is the receiver's selective NACK (§4.4): the sequence numbers
// still missing after a window timeout. An empty Missing list tells the
// sender the window arrived completely.
type BulkNack struct {
	TransferID uint64
	Missing    []uint32
}

func (*BulkNack) Kind() Type { return TBulkNack }
func (m *BulkNack) fields(c *cursor) {
	c.u64(&m.TransferID)
	n := uint32(len(m.Missing))
	c.u32(&n)
	nackSeqs.elems(c, &m.Missing, int(n))
}

// math32max is the sanity bound on a NACK list, whose count travels as
// uint32: a longer one neither encodes nor decodes.
const math32max = 1 << 16

var nackSeqs = newList(math32max, func(p *uint32, c *cursor) { c.u32(p) })

// BulkDone closes a transfer from the receiver side: all bytes arrived.
type BulkDone struct {
	TransferID uint64
	Status     Status
}

func (*BulkDone) Kind() Type { return TBulkDone }
func (m *BulkDone) fields(c *cursor) {
	c.u64(&m.TransferID)
	c.status(&m.Status)
}
