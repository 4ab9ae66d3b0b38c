package wire

import (
	"encoding/binary"
	"fmt"
)

// Message is implemented by every payload type in the protocol.
type Message interface {
	// Kind returns the wire type tag of the message.
	Kind() Type
	// payloadSize returns the exact encoded payload length.
	payloadSize() int
	// encode writes the payload into buf (already payloadSize() long).
	encode(buf []byte) error
	// decode parses the payload from buf.
	decode(buf []byte) error
}

// Encode serializes msg into a standalone frame with the given sequence
// number.
func Encode(seq uint32, msg Message) ([]byte, error) {
	n := msg.payloadSize()
	if n > MaxPayload {
		return nil, ErrOversize
	}
	frame := make([]byte, HeaderSize+n)
	PutHeader(frame, Header{Type: msg.Kind(), Seq: seq, PayloadLen: uint32(n)})
	if err := msg.encode(frame[HeaderSize:]); err != nil {
		return nil, err
	}
	return frame, nil
}

// Decode parses a frame into its header and typed message.
func Decode(frame []byte) (Header, Message, error) {
	h, err := ParseHeader(frame)
	if err != nil {
		return Header{}, nil, err
	}
	msg := newMessage(h.Type)
	if msg == nil {
		return Header{}, nil, ErrBadType
	}
	if err := msg.decode(frame[HeaderSize : HeaderSize+int(h.PayloadLen)]); err != nil {
		return Header{}, nil, fmt.Errorf("wire: decoding %v: %w", h.Type, err)
	}
	return h, msg, nil
}

func newMessage(t Type) Message {
	switch t {
	case TAllocReq:
		return &AllocReq{}
	case TAllocResp:
		return &AllocResp{}
	case TFreeReq:
		return &FreeReq{}
	case TFreeResp:
		return &FreeResp{}
	case TCheckAllocReq:
		return &CheckAllocReq{}
	case TCheckAllocResp:
		return &CheckAllocResp{}
	case TKeepAlive:
		return &KeepAlive{}
	case TKeepAliveAck:
		return &KeepAliveAck{}
	case THostStatus:
		return &HostStatus{}
	case THostStatusAck:
		return &HostStatusAck{}
	case TIMDAllocReq:
		return &IMDAllocReq{}
	case TIMDAllocResp:
		return &IMDAllocResp{}
	case TIMDFreeReq:
		return &IMDFreeReq{}
	case TIMDFreeResp:
		return &IMDFreeResp{}
	case TReadReq:
		return &ReadReq{}
	case TWriteReq:
		return &WriteReq{}
	case TDataResp:
		return &DataResp{}
	case TBulkOffer:
		return &BulkOffer{}
	case TBulkAccept:
		return &BulkAccept{}
	case TBulkData:
		return &BulkData{}
	case TBulkNack:
		return &BulkNack{}
	case TBulkDone:
		return &BulkDone{}
	case TClusterStatsReq:
		return &ClusterStatsReq{}
	case TClusterStatsResp:
		return &ClusterStatsResp{}
	case THandoffOffer:
		return &HandoffOffer{}
	case THandoffAccept:
		return &HandoffAccept{}
	case THandoffPage:
		return &HandoffPage{}
	case THandoffDone:
		return &HandoffDone{}
	case TInventoryReport:
		return &InventoryReport{}
	case TInventoryAck:
		return &InventoryAck{}
	case TReadBatchReq:
		return &ReadBatchReq{}
	case TReadBatchResp:
		return &ReadBatchResp{}
	}
	return nil
}

// AllocReq asks the central manager to allocate a remote region of Length
// bytes keyed by Key (client -> cmd).
type AllocReq struct {
	Key    RegionKey
	Length uint64
}

func (*AllocReq) Kind() Type       { return TAllocReq }
func (*AllocReq) payloadSize() int { return regionKeySize + 8 }
func (m *AllocReq) encode(b []byte) error {
	n := putRegionKey(b, m.Key)
	binary.BigEndian.PutUint64(b[n:], m.Length)
	return nil
}
func (m *AllocReq) decode(b []byte) error {
	k, n, err := getRegionKey(b)
	if err != nil {
		return err
	}
	if len(b) < n+8 {
		return ErrTruncated
	}
	m.Key = k
	m.Length = binary.BigEndian.Uint64(b[n:])
	return nil
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

func (*AllocResp) Kind() Type         { return TAllocResp }
func (m *AllocResp) payloadSize() int { return 9 + m.Region.encodedSize() }
func (m *AllocResp) encode(b []byte) error {
	b[0] = uint8(m.Status)
	binary.BigEndian.PutUint64(b[1:], m.Incarnation)
	_, err := putRegion(b[9:], m.Region)
	return err
}
func (m *AllocResp) decode(b []byte) error {
	if len(b) < 9 {
		return ErrTruncated
	}
	m.Status = Status(b[0])
	m.Incarnation = binary.BigEndian.Uint64(b[1:])
	r, _, err := getRegion(b[9:])
	m.Region = r
	return err
}

// FreeReq releases the region with the given key (client -> cmd).
type FreeReq struct {
	Key RegionKey
}

func (*FreeReq) Kind() Type       { return TFreeReq }
func (*FreeReq) payloadSize() int { return regionKeySize }
func (m *FreeReq) encode(b []byte) error {
	putRegionKey(b, m.Key)
	return nil
}
func (m *FreeReq) decode(b []byte) error {
	k, _, err := getRegionKey(b)
	m.Key = k
	return err
}

// FreeResp acknowledges a free (cmd -> client), stamped with the
// manager incarnation like every other manager response.
type FreeResp struct {
	Status      Status
	Incarnation uint64
}

func (*FreeResp) Kind() Type       { return TFreeResp }
func (*FreeResp) payloadSize() int { return 9 }
func (m *FreeResp) encode(b []byte) error {
	b[0] = uint8(m.Status)
	binary.BigEndian.PutUint64(b[1:], m.Incarnation)
	return nil
}
func (m *FreeResp) decode(b []byte) error {
	if len(b) < 9 {
		return ErrTruncated
	}
	m.Status = Status(b[0])
	m.Incarnation = binary.BigEndian.Uint64(b[1:])
	return nil
}

// CheckAllocReq asks the cmd whether a region is still valid (§4.3
// checkAlloc), returning its descriptor if so.
type CheckAllocReq struct {
	Key RegionKey
}

func (*CheckAllocReq) Kind() Type       { return TCheckAllocReq }
func (*CheckAllocReq) payloadSize() int { return regionKeySize }
func (m *CheckAllocReq) encode(b []byte) error {
	putRegionKey(b, m.Key)
	return nil
}
func (m *CheckAllocReq) decode(b []byte) error {
	k, _, err := getRegionKey(b)
	m.Key = k
	return err
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

func (*CheckAllocResp) Kind() Type         { return TCheckAllocResp }
func (m *CheckAllocResp) payloadSize() int { return 10 + m.Region.encodedSize() }
func (m *CheckAllocResp) encode(b []byte) error {
	b[0] = uint8(m.Status)
	b[1] = 0
	if m.Fresh {
		b[1] = 1
	}
	binary.BigEndian.PutUint64(b[2:], m.Incarnation)
	_, err := putRegion(b[10:], m.Region)
	return err
}
func (m *CheckAllocResp) decode(b []byte) error {
	if len(b) < 10 {
		return ErrTruncated
	}
	m.Status = Status(b[0])
	m.Fresh = b[1] != 0
	m.Incarnation = binary.BigEndian.Uint64(b[2:])
	r, _, err := getRegion(b[10:])
	m.Region = r
	return err
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

func (*KeepAlive) Kind() Type       { return TKeepAlive }
func (*KeepAlive) payloadSize() int { return 12 }
func (m *KeepAlive) encode(b []byte) error {
	binary.BigEndian.PutUint32(b, m.ClientID)
	binary.BigEndian.PutUint64(b[4:], m.Incarnation)
	return nil
}
func (m *KeepAlive) decode(b []byte) error {
	if len(b) < 12 {
		return ErrTruncated
	}
	m.ClientID = binary.BigEndian.Uint32(b)
	m.Incarnation = binary.BigEndian.Uint64(b[4:])
	return nil
}

// KeepAliveAck is the client's echo response. It piggybacks the
// client's recovery counters (§4.3 style hint-carrying) so the manager
// can aggregate drop/revalidate/re-open totals without extra RPCs.
type KeepAliveAck struct {
	ClientID uint32
	// Drops counts drop-host events (all descriptors on a failed host
	// invalidated at once, §3.1).
	Drops uint64
	// Revalidations counts checkAlloc probes issued by the client's
	// background recovery pass.
	Revalidations uint64
	// Reopens counts regions transparently re-opened and repopulated
	// after a drop.
	Reopens uint64
	// HandoffAdopts counts regions re-adopted from a graceful-reclaim
	// handoff target without disk repopulation.
	HandoffAdopts uint64
	// HedgedReads / HedgeWins / HedgeWasted count hedged read
	// decisions: backup disk reads issued when the remote exceeded its
	// latency threshold, how many the disk won, and how many remote
	// replies arrived after the hedge already answered.
	HedgedReads uint64
	HedgeWins   uint64
	HedgeWasted uint64
	// RetryExhausted counts operations whose unified retry budget ran
	// dry at this client's endpoint.
	RetryExhausted uint64
	// ChecksumFailures counts bulk frames whose CRC32C did not match
	// the announced checksum; CorruptHosts breaks the total down by the
	// host that served the corrupt frame.
	ChecksumFailures uint64
	CorruptHosts     []HostCount
}

func (*KeepAliveAck) Kind() Type { return TKeepAliveAck }
func (m *KeepAliveAck) payloadSize() int {
	n := 4 + 9*8 + 2
	for _, h := range m.CorruptHosts {
		n += h.encodedSize()
	}
	return n
}
func (m *KeepAliveAck) encode(b []byte) error {
	if len(m.CorruptHosts) > math16max {
		return ErrFieldBounds
	}
	binary.BigEndian.PutUint32(b, m.ClientID)
	binary.BigEndian.PutUint64(b[4:], m.Drops)
	binary.BigEndian.PutUint64(b[12:], m.Revalidations)
	binary.BigEndian.PutUint64(b[20:], m.Reopens)
	binary.BigEndian.PutUint64(b[28:], m.HandoffAdopts)
	binary.BigEndian.PutUint64(b[36:], m.HedgedReads)
	binary.BigEndian.PutUint64(b[44:], m.HedgeWins)
	binary.BigEndian.PutUint64(b[52:], m.HedgeWasted)
	binary.BigEndian.PutUint64(b[60:], m.RetryExhausted)
	binary.BigEndian.PutUint64(b[68:], m.ChecksumFailures)
	binary.BigEndian.PutUint16(b[76:], uint16(len(m.CorruptHosts)))
	at := 78
	for _, h := range m.CorruptHosts {
		n, err := putString(b[at:], h.Addr)
		if err != nil {
			return err
		}
		at += n
		binary.BigEndian.PutUint64(b[at:], h.Count)
		at += 8
	}
	return nil
}
func (m *KeepAliveAck) decode(b []byte) error {
	if len(b) < 78 {
		return ErrTruncated
	}
	m.ClientID = binary.BigEndian.Uint32(b)
	m.Drops = binary.BigEndian.Uint64(b[4:])
	m.Revalidations = binary.BigEndian.Uint64(b[12:])
	m.Reopens = binary.BigEndian.Uint64(b[20:])
	m.HandoffAdopts = binary.BigEndian.Uint64(b[28:])
	m.HedgedReads = binary.BigEndian.Uint64(b[36:])
	m.HedgeWins = binary.BigEndian.Uint64(b[44:])
	m.HedgeWasted = binary.BigEndian.Uint64(b[52:])
	m.RetryExhausted = binary.BigEndian.Uint64(b[60:])
	m.ChecksumFailures = binary.BigEndian.Uint64(b[68:])
	count := int(binary.BigEndian.Uint16(b[76:]))
	at := 78
	m.CorruptHosts = nil
	if count > 0 {
		m.CorruptHosts = make([]HostCount, 0, count)
	}
	for i := 0; i < count; i++ {
		addr, n, err := getString(b[at:])
		if err != nil {
			return err
		}
		at += n
		if len(b) < at+8 {
			return ErrTruncated
		}
		m.CorruptHosts = append(m.CorruptHosts, HostCount{Addr: addr, Count: binary.BigEndian.Uint64(b[at:])})
		at += 8
	}
	return nil
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

func (*HostStatus) Kind() Type         { return THostStatus }
func (m *HostStatus) payloadSize() int { return 2 + len(m.HostAddr) + 1 + 32 }
func (m *HostStatus) encode(b []byte) error {
	n, err := putString(b, m.HostAddr)
	if err != nil {
		return err
	}
	b[n] = uint8(m.State)
	binary.BigEndian.PutUint64(b[n+1:], m.Epoch)
	binary.BigEndian.PutUint64(b[n+9:], m.AvailBytes)
	binary.BigEndian.PutUint64(b[n+17:], m.LargestFree)
	binary.BigEndian.PutUint64(b[n+25:], m.Incarnation)
	return nil
}
func (m *HostStatus) decode(b []byte) error {
	addr, n, err := getString(b)
	if err != nil {
		return err
	}
	if len(b) < n+33 {
		return ErrTruncated
	}
	m.HostAddr = addr
	m.State = HostState(b[n])
	m.Epoch = binary.BigEndian.Uint64(b[n+1:])
	m.AvailBytes = binary.BigEndian.Uint64(b[n+9:])
	m.LargestFree = binary.BigEndian.Uint64(b[n+17:])
	m.Incarnation = binary.BigEndian.Uint64(b[n+25:])
	return nil
}

// HostStatusAck acknowledges a HostStatus. Incarnation carries the
// manager's current incarnation: it is how an imd discovers a manager
// restart (and kicks its inventory re-report), and on StatusStale it
// names the incarnation the sender must re-announce against.
type HostStatusAck struct {
	Status      Status
	Incarnation uint64
}

func (*HostStatusAck) Kind() Type       { return THostStatusAck }
func (*HostStatusAck) payloadSize() int { return 9 }
func (m *HostStatusAck) encode(b []byte) error {
	b[0] = uint8(m.Status)
	binary.BigEndian.PutUint64(b[1:], m.Incarnation)
	return nil
}
func (m *HostStatusAck) decode(b []byte) error {
	if len(b) < 9 {
		return ErrTruncated
	}
	m.Status = Status(b[0])
	m.Incarnation = binary.BigEndian.Uint64(b[1:])
	return nil
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

func (*IMDAllocReq) Kind() Type         { return TIMDAllocReq }
func (m *IMDAllocReq) payloadSize() int { return 16 + regionKeySize + 2 + len(m.Client) }
func (m *IMDAllocReq) encode(b []byte) error {
	binary.BigEndian.PutUint64(b[0:8], m.RegionID)
	binary.BigEndian.PutUint64(b[8:16], m.Length)
	putRegionKey(b[16:], m.Key)
	_, err := putString(b[16+regionKeySize:], m.Client)
	return err
}
func (m *IMDAllocReq) decode(b []byte) error {
	if len(b) < 16 {
		return ErrTruncated
	}
	m.RegionID = binary.BigEndian.Uint64(b[0:8])
	m.Length = binary.BigEndian.Uint64(b[8:16])
	k, n, err := getRegionKey(b[16:])
	if err != nil {
		return err
	}
	m.Key = k
	client, _, err := getString(b[16+n:])
	if err != nil {
		return err
	}
	m.Client = client
	return nil
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

func (*IMDAllocResp) Kind() Type       { return TIMDAllocResp }
func (*IMDAllocResp) payloadSize() int { return 1 + 32 }
func (m *IMDAllocResp) encode(b []byte) error {
	b[0] = uint8(m.Status)
	binary.BigEndian.PutUint64(b[1:], m.PoolOffset)
	binary.BigEndian.PutUint64(b[9:], m.Epoch)
	binary.BigEndian.PutUint64(b[17:], m.AvailBytes)
	binary.BigEndian.PutUint64(b[25:], m.LargestFree)
	return nil
}
func (m *IMDAllocResp) decode(b []byte) error {
	if len(b) < 33 {
		return ErrTruncated
	}
	m.Status = Status(b[0])
	m.PoolOffset = binary.BigEndian.Uint64(b[1:])
	m.Epoch = binary.BigEndian.Uint64(b[9:])
	m.AvailBytes = binary.BigEndian.Uint64(b[17:])
	m.LargestFree = binary.BigEndian.Uint64(b[25:])
	return nil
}

// IMDFreeReq is the cmd asking an imd to release a region.
type IMDFreeReq struct {
	RegionID uint64
}

func (*IMDFreeReq) Kind() Type       { return TIMDFreeReq }
func (*IMDFreeReq) payloadSize() int { return 8 }
func (m *IMDFreeReq) encode(b []byte) error {
	binary.BigEndian.PutUint64(b, m.RegionID)
	return nil
}
func (m *IMDFreeReq) decode(b []byte) error {
	if len(b) < 8 {
		return ErrTruncated
	}
	m.RegionID = binary.BigEndian.Uint64(b)
	return nil
}

// IMDFreeResp acknowledges a region free, with availability piggybacked.
type IMDFreeResp struct {
	Status      Status
	Epoch       uint64
	AvailBytes  uint64
	LargestFree uint64
}

func (*IMDFreeResp) Kind() Type       { return TIMDFreeResp }
func (*IMDFreeResp) payloadSize() int { return 1 + 24 }
func (m *IMDFreeResp) encode(b []byte) error {
	b[0] = uint8(m.Status)
	binary.BigEndian.PutUint64(b[1:], m.Epoch)
	binary.BigEndian.PutUint64(b[9:], m.AvailBytes)
	binary.BigEndian.PutUint64(b[17:], m.LargestFree)
	return nil
}
func (m *IMDFreeResp) decode(b []byte) error {
	if len(b) < 25 {
		return ErrTruncated
	}
	m.Status = Status(b[0])
	m.Epoch = binary.BigEndian.Uint64(b[1:])
	m.AvailBytes = binary.BigEndian.Uint64(b[9:])
	m.LargestFree = binary.BigEndian.Uint64(b[17:])
	return nil
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

func (*ReadReq) Kind() Type       { return TReadReq }
func (*ReadReq) payloadSize() int { return 52 }
func (m *ReadReq) encode(b []byte) error {
	binary.BigEndian.PutUint64(b[0:], m.RegionID)
	binary.BigEndian.PutUint64(b[8:], m.Epoch)
	binary.BigEndian.PutUint64(b[16:], m.Offset)
	binary.BigEndian.PutUint64(b[24:], m.Length)
	binary.BigEndian.PutUint32(b[32:], uint32(m.Caps))
	binary.BigEndian.PutUint64(b[36:], m.XferID)
	binary.BigEndian.PutUint32(b[44:], m.ChunkSize)
	binary.BigEndian.PutUint32(b[48:], m.Window)
	return nil
}
func (m *ReadReq) decode(b []byte) error {
	if len(b) < 52 {
		return ErrTruncated
	}
	m.RegionID = binary.BigEndian.Uint64(b[0:])
	m.Epoch = binary.BigEndian.Uint64(b[8:])
	m.Offset = binary.BigEndian.Uint64(b[16:])
	m.Length = binary.BigEndian.Uint64(b[24:])
	m.Caps = Caps(binary.BigEndian.Uint32(b[32:]))
	m.XferID = binary.BigEndian.Uint64(b[36:])
	m.ChunkSize = binary.BigEndian.Uint32(b[44:])
	m.Window = binary.BigEndian.Uint32(b[48:])
	return nil
}

// WriteReq announces an incoming write of Length bytes at Offset within a
// region; the data itself follows via the bulk protocol under TransferID.
// WriteSeq orders writes to one region: the imd ignores an announcement
// whose sequence is not newer than the last write it applied, so a
// duplicated or delayed announcement replayed by the network can never
// roll the region back to older bytes. The first write carries sequence
// 1; the imd refuses zero. Crc is the CRC32C of the announced bytes; the
// imd refuses the write when the received bulk data does not match.
type WriteReq struct {
	RegionID   uint64
	Epoch      uint64
	Offset     uint64
	Length     uint64
	TransferID uint64
	WriteSeq   uint64
	Crc        uint32
}

func (*WriteReq) Kind() Type       { return TWriteReq }
func (*WriteReq) payloadSize() int { return 52 }
func (m *WriteReq) encode(b []byte) error {
	binary.BigEndian.PutUint64(b[0:], m.RegionID)
	binary.BigEndian.PutUint64(b[8:], m.Epoch)
	binary.BigEndian.PutUint64(b[16:], m.Offset)
	binary.BigEndian.PutUint64(b[24:], m.Length)
	binary.BigEndian.PutUint64(b[32:], m.TransferID)
	binary.BigEndian.PutUint64(b[40:], m.WriteSeq)
	binary.BigEndian.PutUint32(b[48:], m.Crc)
	return nil
}
func (m *WriteReq) decode(b []byte) error {
	if len(b) < 52 {
		return ErrTruncated
	}
	m.RegionID = binary.BigEndian.Uint64(b[0:])
	m.Epoch = binary.BigEndian.Uint64(b[8:])
	m.Offset = binary.BigEndian.Uint64(b[16:])
	m.Length = binary.BigEndian.Uint64(b[24:])
	m.TransferID = binary.BigEndian.Uint64(b[32:])
	m.WriteSeq = binary.BigEndian.Uint64(b[40:])
	m.Crc = binary.BigEndian.Uint32(b[48:])
	return nil
}

// DataResp reports the outcome of a read or write: the byte count
// actually served (which may be short, per §3.2). A successful read
// sets exactly one flag. With DataFlagInline, Payload holds the served
// bytes themselves — the whole read answered in this one frame. With
// DataFlagEager, the bytes are already being blasted under TransferID,
// the id the requester chose: the response doubles as the bulk offer
// and no BulkOffer/BulkAccept exchange happens. Either way Crc is the
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

func (*DataResp) Kind() Type         { return TDataResp }
func (m *DataResp) payloadSize() int { return 22 + len(m.Payload) }
func (m *DataResp) encode(b []byte) error {
	b[0] = uint8(m.Status)
	binary.BigEndian.PutUint64(b[1:], m.Count)
	binary.BigEndian.PutUint64(b[9:], m.TransferID)
	binary.BigEndian.PutUint32(b[17:], m.Crc)
	b[21] = m.Flags
	copy(b[22:], m.Payload)
	return nil
}
func (m *DataResp) decode(b []byte) error {
	if len(b) < 22 {
		return ErrTruncated
	}
	m.Status = Status(b[0])
	m.Count = binary.BigEndian.Uint64(b[1:])
	m.TransferID = binary.BigEndian.Uint64(b[9:])
	m.Crc = binary.BigEndian.Uint32(b[17:])
	m.Flags = b[21]
	m.Payload = nil
	if len(b) > 22 {
		m.Payload = append([]byte(nil), b[22:]...)
	}
	return nil
}

// BulkOffer opens a bulk transfer (§4.4): the sender names the transfer,
// its total length and the packet payload size it will use, and asks the
// receiver how much buffer space it can commit.
type BulkOffer struct {
	TransferID uint64
	TotalLen   uint64
	ChunkSize  uint32
}

func (*BulkOffer) Kind() Type       { return TBulkOffer }
func (*BulkOffer) payloadSize() int { return 20 }
func (m *BulkOffer) encode(b []byte) error {
	binary.BigEndian.PutUint64(b[0:], m.TransferID)
	binary.BigEndian.PutUint64(b[8:], m.TotalLen)
	binary.BigEndian.PutUint32(b[16:], m.ChunkSize)
	return nil
}
func (m *BulkOffer) decode(b []byte) error {
	if len(b) < 20 {
		return ErrTruncated
	}
	m.TransferID = binary.BigEndian.Uint64(b[0:])
	m.TotalLen = binary.BigEndian.Uint64(b[8:])
	m.ChunkSize = binary.BigEndian.Uint32(b[16:])
	return nil
}

// BulkAccept is the receiver's answer: the number of packets it can
// buffer per blast window (the negotiated space of §4.4).
type BulkAccept struct {
	TransferID uint64
	Window     uint32
	Status     Status
}

func (*BulkAccept) Kind() Type       { return TBulkAccept }
func (*BulkAccept) payloadSize() int { return 13 }
func (m *BulkAccept) encode(b []byte) error {
	binary.BigEndian.PutUint64(b[0:], m.TransferID)
	binary.BigEndian.PutUint32(b[8:], m.Window)
	b[12] = uint8(m.Status)
	return nil
}
func (m *BulkAccept) decode(b []byte) error {
	if len(b) < 13 {
		return ErrTruncated
	}
	m.TransferID = binary.BigEndian.Uint64(b[0:])
	m.Window = binary.BigEndian.Uint32(b[8:])
	m.Status = Status(b[12])
	return nil
}

// BulkData carries one sequenced chunk of a transfer.
type BulkData struct {
	TransferID uint64
	Seq        uint32
	Payload    []byte
}

func (*BulkData) Kind() Type         { return TBulkData }
func (m *BulkData) payloadSize() int { return 12 + len(m.Payload) }
func (m *BulkData) encode(b []byte) error {
	binary.BigEndian.PutUint64(b[0:], m.TransferID)
	binary.BigEndian.PutUint32(b[8:], m.Seq)
	copy(b[12:], m.Payload)
	return nil
}
func (m *BulkData) decode(b []byte) error {
	if len(b) < 12 {
		return ErrTruncated
	}
	m.TransferID = binary.BigEndian.Uint64(b[0:])
	m.Seq = binary.BigEndian.Uint32(b[8:])
	m.Payload = append([]byte(nil), b[12:]...)
	return nil
}

// BulkNack is the receiver's selective NACK (§4.4): the sequence numbers
// still missing after a window timeout. An empty Missing list tells the
// sender the window arrived completely.
type BulkNack struct {
	TransferID uint64
	Missing    []uint32
}

func (*BulkNack) Kind() Type         { return TBulkNack }
func (m *BulkNack) payloadSize() int { return 12 + 4*len(m.Missing) }
func (m *BulkNack) encode(b []byte) error {
	if len(m.Missing) > math32max {
		return ErrFieldBounds
	}
	binary.BigEndian.PutUint64(b[0:], m.TransferID)
	binary.BigEndian.PutUint32(b[8:], uint32(len(m.Missing)))
	for i, s := range m.Missing {
		binary.BigEndian.PutUint32(b[12+4*i:], s)
	}
	return nil
}
func (m *BulkNack) decode(b []byte) error {
	if len(b) < 12 {
		return ErrTruncated
	}
	m.TransferID = binary.BigEndian.Uint64(b[0:])
	n := int(binary.BigEndian.Uint32(b[8:]))
	if len(b) < 12+4*n {
		return ErrTruncated
	}
	m.Missing = make([]uint32, n)
	for i := range m.Missing {
		m.Missing[i] = binary.BigEndian.Uint32(b[12+4*i:])
	}
	return nil
}

const math32max = 1 << 16 // sanity bound on NACK list length (uint32-encoded)

// math16max bounds element counts that travel as uint16 on the wire.
// The bound must be strictly below 1<<16: exactly 65536 elements would
// pass a `> 1<<16` check yet encode as count 0, silently dropping the
// whole list on decode.
const math16max = 1<<16 - 1

// BulkDone closes a transfer from the receiver side: all bytes arrived.
type BulkDone struct {
	TransferID uint64
	Status     Status
}

func (*BulkDone) Kind() Type       { return TBulkDone }
func (*BulkDone) payloadSize() int { return 9 }
func (m *BulkDone) encode(b []byte) error {
	binary.BigEndian.PutUint64(b[0:], m.TransferID)
	b[8] = uint8(m.Status)
	return nil
}
func (m *BulkDone) decode(b []byte) error {
	if len(b) < 9 {
		return ErrTruncated
	}
	m.TransferID = binary.BigEndian.Uint64(b[0:])
	m.Status = Status(b[8])
	return nil
}
