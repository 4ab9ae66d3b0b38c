package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzWireRoundTrip drives arbitrary byte strings through the codec and
// checks the Marshal/Unmarshal symmetry on everything that decodes:
//
//   - Decode either rejects the frame or returns a message whose Kind
//     matches the header type;
//   - re-encoding the decoded message yields a frame whose header
//     PayloadLen is exactly the payload length on the wire;
//   - the re-encoded frame decodes to a deeply equal message — the
//     canonical form is a fixed point of Decode ∘ Encode.
//
// The seed corpus holds one zero-valued frame per registered wire type
// (so every decoder is exercised from the first run) plus populated
// frames covering the variable-length fields: strings, NACK lists,
// bulk payloads and host tables.
func FuzzWireRoundTrip(f *testing.F) {
	for t := TInvalid + 1; t < typeSentinel; t++ {
		msg := newMessage(t)
		if msg == nil {
			f.Fatalf("newMessage(%v) returned nil for a registered type", t)
		}
		frame, err := Encode(7, msg)
		if err != nil {
			f.Fatalf("Encode(zero %v): %v", t, err)
		}
		f.Add(frame)
	}
	populated := []Message{
		&AllocReq{Key: RegionKey{Inode: 42, Offset: 1 << 20, ClientID: 3}, Length: 8 << 20},
		&AllocResp{Status: StatusOK, Region: Region{HostAddr: "ws-3:7070", RegionID: 9, PoolOffset: 4096, Length: 1 << 20, Epoch: 5}},
		&HostStatus{HostAddr: "ws-1:7071", State: HostIdle, Epoch: 2, AvailBytes: 64 << 20, LargestFree: 16 << 20},
		&BulkData{TransferID: 11, Seq: 3, Payload: []byte("0123456789abcdef")},
		&BulkNack{TransferID: 11, Missing: []uint32{1, 4, 9}},
		&ClusterStatsResp{
			Status:  StatusOK,
			Hosts:   []HostInfo{{Addr: "ws-2:7070", Epoch: 1, AvailBytes: 32 << 20, LargestFree: 8 << 20}},
			Regions: 4, Clients: 2, Allocs: 17, Frees: 13,
			HandoffOffers: 2, HandoffPagesMoved: 5, ClientHedgedReads: 3,
		},
		&HandoffOffer{HostAddr: "ws-1:7071", Epoch: 4, Regions: []HandoffRegion{
			{RegionID: 3, Length: 1 << 16, Reads: 12},
			{RegionID: 7, Length: 1 << 18, Reads: 2},
		}},
		&HandoffAccept{Status: StatusOK, Grants: []HandoffGrant{
			{OldRegionID: 3, Target: Region{HostAddr: "ws-2:7070", RegionID: 41, PoolOffset: 0, Length: 1 << 16, Epoch: 9}},
		}},
		&HandoffPage{RegionID: 41, Epoch: 9, Length: 1 << 16, TransferID: 77, Crc: 0xDEADBEEF},
		&HandoffDone{HostAddr: "ws-1:7071", OldRegionID: 3, Status: StatusOK},
		&KeepAliveAck{ClientID: 7, Drops: 2, ChecksumFailures: 3, CorruptHosts: []HostCount{
			{Addr: "ws-1:7071", Count: 2},
			{Addr: "ws-2:7070", Count: 1},
		}},
		&InventoryReport{
			HostAddr: "ws-2:7070", Epoch: 3, Incarnation: 2,
			AvailBytes: 48 << 20, LargestFree: 16 << 20,
			Regions: []InventoryRegion{
				{RegionID: 1<<32 | 5, PoolOffset: 0, Length: 1 << 16, WriteSeq: 9,
					Key: RegionKey{Inode: 42, Offset: 0, ClientID: 3}, Client: "client-3"},
				{RegionID: 1<<32 | 6, PoolOffset: 1 << 16, Length: 1 << 17, WriteSeq: 0,
					Key: RegionKey{Inode: 42, Offset: 1 << 16, ClientID: 3}},
			},
		},
		&InventoryAck{Status: StatusStale, Incarnation: 4},
		// The read exchange: a multi-frame request, the inline and eager
		// response shapes, and the batched form of both.
		&ReadReq{RegionID: 9, Epoch: 5, Offset: 4096, Length: 1 << 16,
			XferID: 77, ChunkSize: 1408, Window: 32},
		&DataResp{Status: StatusOK, Count: 16, Crc: 0xFEEDF00D,
			Flags: DataFlagInline, Payload: []byte("0123456789abcdef")},
		&DataResp{Status: StatusOK, Count: 1 << 16, TransferID: 77,
			Crc: 0xFEEDF00D, Flags: DataFlagEager},
		&ReadBatchReq{XferID: 78, ChunkSize: 1408, Window: 32,
			Items: []ReadBatchItem{
				{RegionID: 9, Epoch: 5, Offset: 0, Length: 4096},
				{RegionID: 10, Epoch: 5, Offset: 8192, Length: 1 << 14},
			}},
		&ReadBatchResp{Status: StatusOK, TransferID: 78, Flags: DataFlagEager,
			Results: []ReadBatchResult{
				{Status: StatusOK, Count: 4096, Crc: 0xCAFEF00D},
				{Status: StatusStale, Count: 0},
			}},
		&ReadBatchResp{Status: StatusOK, Flags: DataFlagInline,
			Results: []ReadBatchResult{{Status: StatusOK, Count: 8, Crc: 1}},
			Payload: []byte("8bytes!!")},
		&CheckAllocResp{Status: StatusOK, Fresh: true, Incarnation: 2,
			Region: Region{HostAddr: "ws-4:7071", RegionID: 12, Length: 1 << 16, Epoch: 3}},
	}
	for _, msg := range populated {
		frame, err := Encode(99, msg)
		if err != nil {
			f.Fatalf("Encode(%T): %v", msg, err)
		}
		f.Add(frame)
	}
	// A few deliberately broken frames so the fuzzer starts near the
	// rejection paths too.
	f.Add([]byte{})
	f.Add([]byte{0xD0, 0xD0, Version, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xD0, 0xD0, Version - 1, byte(TFreeReq), 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xD0}, HeaderSize+4))

	f.Fuzz(func(t *testing.T, frame []byte) {
		h, msg, err := Decode(frame)
		if err != nil {
			return // rejection is a valid outcome; crashes are not
		}
		if msg.Kind() != h.Type {
			t.Fatalf("decoded %T.Kind() = %v, header says %v", msg, msg.Kind(), h.Type)
		}
		re, err := Encode(h.Seq, msg)
		if err != nil {
			t.Fatalf("re-encoding decoded %T: %v", msg, err)
		}
		h2, msg2, err := Decode(re)
		if err != nil {
			t.Fatalf("decoding re-encoded %T: %v", msg, err)
		}
		if h2.Type != h.Type || h2.Seq != h.Seq {
			t.Fatalf("header changed across round trip: %+v -> %+v", h, h2)
		}
		if int(HeaderSize)+int(h2.PayloadLen) != len(re) {
			t.Fatalf("%T: PayloadLen %d inconsistent with frame length %d", msg, h2.PayloadLen, len(re))
		}
		if !reflect.DeepEqual(msg, msg2) {
			t.Fatalf("%T not a fixed point of Decode∘Encode:\n first: %+v\nsecond: %+v", msg, msg, msg2)
		}
		// Canonical form must be stable: encoding again reproduces the
		// same bytes.
		re2, err := Encode(h.Seq, msg2)
		if err != nil {
			t.Fatalf("third encode of %T: %v", msg, err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("%T: canonical encoding not stable", msg)
		}
	})
}
