package wire

// ReadBatchItem names one region read within a batched fetch: the same
// (RegionID, Epoch, Offset, Length) quad a ReadReq carries.
type ReadBatchItem struct {
	RegionID uint64
	Epoch    uint64
	Offset   uint64
	Length   uint64
}

func (it *ReadBatchItem) fields(c *cursor) { c.u64(&it.RegionID, &it.Epoch, &it.Offset, &it.Length) }

var readBatchItems = newList(math16max, (*ReadBatchItem).fields)

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
func (m *ReadBatchReq) fields(c *cursor) {
	c.u64(&m.XferID)
	c.u32(&m.ChunkSize, &m.Window)
	readBatchItems.counted(c, &m.Items)
}

// ReadBatchResult reports one item's outcome: its status, the count of
// valid leading bytes within the item's slot in the stream, and the
// CRC32C over those bytes.
type ReadBatchResult struct {
	Status Status
	Count  uint64
	Crc    uint32
}

func (r *ReadBatchResult) fields(c *cursor) {
	c.status(&r.Status)
	c.u64(&r.Count)
	c.u32(&r.Crc)
}

var readBatchResults = newList(math16max, (*ReadBatchResult).fields)

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
func (m *ReadBatchResp) fields(c *cursor) {
	c.status(&m.Status)
	c.u64(&m.TransferID)
	c.u8(&m.Flags)
	readBatchResults.counted(c, &m.Results)
	c.rest(&m.Payload)
}
