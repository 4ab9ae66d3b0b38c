package wire

import "encoding/binary"

// ReadBatchItem names one region read within a batched fetch: the same
// (RegionID, Epoch, Offset, Length) quad a ReadReq carries.
type ReadBatchItem struct {
	RegionID uint64
	Epoch    uint64
	Offset   uint64
	Length   uint64
}

const readBatchItemSize = 32

// ReadBatchReq asks an imd for several regions in one control exchange
// (client -> imd data path): the read exchange of ReadReq over a packed
// stream, so a prefetch window costs one round trip instead of one per
// region. The served bytes travel as ONE stream —
// the concatenation of per-item slots, each exactly item.Length long
// (short or failed items are zero-padded so the stream length is
// sum(Length), predictable before the response arrives). The requester
// chooses the bulk transfer id (XferID) and pre-registers its receive
// state, exactly as in a multi-frame ReadReq, so the response stream can
// be blasted without an offer/accept exchange; when the whole response
// fits one MTU frame it comes back inline in the ReadBatchResp instead.
type ReadBatchReq struct {
	XferID    uint64
	ChunkSize uint32
	Window    uint32
	Items     []ReadBatchItem
}

func (*ReadBatchReq) Kind() Type { return TReadBatchReq }
func (m *ReadBatchReq) payloadSize() int {
	return 18 + readBatchItemSize*len(m.Items)
}
func (m *ReadBatchReq) encode(b []byte) error {
	if len(m.Items) > math16max {
		return ErrFieldBounds
	}
	binary.BigEndian.PutUint64(b[0:], m.XferID)
	binary.BigEndian.PutUint32(b[8:], m.ChunkSize)
	binary.BigEndian.PutUint32(b[12:], m.Window)
	binary.BigEndian.PutUint16(b[16:], uint16(len(m.Items)))
	at := 18
	for _, it := range m.Items {
		binary.BigEndian.PutUint64(b[at:], it.RegionID)
		binary.BigEndian.PutUint64(b[at+8:], it.Epoch)
		binary.BigEndian.PutUint64(b[at+16:], it.Offset)
		binary.BigEndian.PutUint64(b[at+24:], it.Length)
		at += readBatchItemSize
	}
	return nil
}
func (m *ReadBatchReq) decode(b []byte) error {
	if len(b) < 18 {
		return ErrTruncated
	}
	m.XferID = binary.BigEndian.Uint64(b[0:])
	m.ChunkSize = binary.BigEndian.Uint32(b[8:])
	m.Window = binary.BigEndian.Uint32(b[12:])
	count := int(binary.BigEndian.Uint16(b[16:]))
	if len(b) < 18+readBatchItemSize*count {
		return ErrTruncated
	}
	m.Items = nil
	if count > 0 {
		m.Items = make([]ReadBatchItem, 0, count)
	}
	at := 18
	for i := 0; i < count; i++ {
		m.Items = append(m.Items, ReadBatchItem{
			RegionID: binary.BigEndian.Uint64(b[at:]),
			Epoch:    binary.BigEndian.Uint64(b[at+8:]),
			Offset:   binary.BigEndian.Uint64(b[at+16:]),
			Length:   binary.BigEndian.Uint64(b[at+24:]),
		})
		at += readBatchItemSize
	}
	return nil
}

// ReadBatchResult reports one item's outcome: its status, the count of
// valid leading bytes within the item's slot in the stream, and the
// CRC32C over those bytes.
type ReadBatchResult struct {
	Status Status
	Count  uint64
	Crc    uint32
}

const readBatchResultSize = 13

// ReadBatchResp answers a ReadBatchReq (imd -> client). Results aligns
// with the request's Items. With DataFlagInline set, Payload carries the
// whole slot stream in this frame; with DataFlagEager set, the stream is
// already being blasted under TransferID (the requester's XferID). A
// Status other than StatusOK with no Results means the batch as a whole
// was refused (e.g. stale epoch) and no stream follows.
type ReadBatchResp struct {
	Status     Status
	TransferID uint64
	Flags      uint8
	Results    []ReadBatchResult
	Payload    []byte
}

func (*ReadBatchResp) Kind() Type { return TReadBatchResp }
func (m *ReadBatchResp) payloadSize() int {
	return 12 + readBatchResultSize*len(m.Results) + len(m.Payload)
}
func (m *ReadBatchResp) encode(b []byte) error {
	if len(m.Results) > math16max {
		return ErrFieldBounds
	}
	b[0] = uint8(m.Status)
	binary.BigEndian.PutUint64(b[1:], m.TransferID)
	b[9] = m.Flags
	binary.BigEndian.PutUint16(b[10:], uint16(len(m.Results)))
	at := 12
	for _, r := range m.Results {
		b[at] = uint8(r.Status)
		binary.BigEndian.PutUint64(b[at+1:], r.Count)
		binary.BigEndian.PutUint32(b[at+9:], r.Crc)
		at += readBatchResultSize
	}
	copy(b[at:], m.Payload)
	return nil
}
func (m *ReadBatchResp) decode(b []byte) error {
	if len(b) < 12 {
		return ErrTruncated
	}
	m.Status = Status(b[0])
	m.TransferID = binary.BigEndian.Uint64(b[1:])
	m.Flags = b[9]
	count := int(binary.BigEndian.Uint16(b[10:]))
	if len(b) < 12+readBatchResultSize*count {
		return ErrTruncated
	}
	m.Results = nil
	if count > 0 {
		m.Results = make([]ReadBatchResult, 0, count)
	}
	at := 12
	for i := 0; i < count; i++ {
		m.Results = append(m.Results, ReadBatchResult{
			Status: Status(b[at]),
			Count:  binary.BigEndian.Uint64(b[at+1:]),
			Crc:    binary.BigEndian.Uint32(b[at+9:]),
		})
		at += readBatchResultSize
	}
	m.Payload = nil
	if len(b) > at {
		m.Payload = append([]byte(nil), b[at:]...)
	}
	return nil
}
