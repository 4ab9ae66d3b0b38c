package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, seq uint32, msg Message) Message {
	t.Helper()
	frame, err := Encode(seq, msg)
	if err != nil {
		t.Fatalf("Encode(%T) error: %v", msg, err)
	}
	h, got, err := Decode(frame)
	if err != nil {
		t.Fatalf("Decode(%T) error: %v", msg, err)
	}
	if h.Seq != seq {
		t.Fatalf("decoded seq = %d, want %d", h.Seq, seq)
	}
	if h.Type != msg.Kind() {
		t.Fatalf("decoded type = %v, want %v", h.Type, msg.Kind())
	}
	return got
}

func TestRoundTripAllMessages(t *testing.T) {
	region := Region{HostAddr: "10.0.0.7:7070", RegionID: 99, PoolOffset: 4096, Length: 1 << 20, Epoch: 12}
	key := RegionKey{Inode: 123456, Offset: 789, ClientID: 3}
	msgs := []Message{
		&AllocReq{Key: key, Length: 1 << 20},
		&AllocResp{Status: StatusOK, Region: region},
		&FreeReq{Key: key},
		&FreeResp{Status: StatusNotFound},
		&CheckAllocReq{Key: key},
		&CheckAllocResp{Status: StatusStale, Fresh: true, Region: region},
		&KeepAlive{ClientID: 77},
		&KeepAliveAck{ClientID: 77, Drops: 3, Revalidations: 2, Reopens: 1,
			HandoffAdopts: 4, HedgedReads: 9, HedgeWins: 5, HedgeWasted: 3, RetryExhausted: 1},
		&HostStatus{HostAddr: "host3:9000", State: HostIdle, Epoch: 5, AvailBytes: 100 << 20, LargestFree: 64 << 20},
		&HostStatusAck{Status: StatusOK},
		&IMDAllocReq{RegionID: 42, Length: 8192},
		&IMDAllocResp{Status: StatusOK, PoolOffset: 12288, Epoch: 5, AvailBytes: 99 << 20, LargestFree: 50 << 20},
		&IMDFreeReq{RegionID: 42},
		&IMDFreeResp{Status: StatusOK, Epoch: 5, AvailBytes: 100 << 20, LargestFree: 64 << 20},
		&ReadReq{RegionID: 42, Epoch: 5, Offset: 100, Length: 8192},
		&WriteReq{RegionID: 42, Epoch: 5, Offset: 100, Length: 8192, TransferID: 9001, WriteSeq: 17},
		&DataResp{Status: StatusOK, Count: 8192, TransferID: 9001},
		&BulkOffer{TransferID: 9001, TotalLen: 1 << 20, ChunkSize: 1400},
		&BulkAccept{TransferID: 9001, Window: 32, Status: StatusOK},
		&BulkData{TransferID: 9001, Seq: 17, Payload: []byte("hello dodo")},
		&BulkNack{TransferID: 9001, Missing: []uint32{3, 5, 8}},
		&BulkDone{TransferID: 9001, Status: StatusOK},
		&HandoffOffer{HostAddr: "host3:9000", Epoch: 5, Regions: []HandoffRegion{
			{RegionID: 42, Length: 8192, Reads: 31},
			{RegionID: 43, Length: 4096, Reads: 7},
		}},
		&HandoffAccept{Status: StatusOK, Grants: []HandoffGrant{
			{OldRegionID: 42, Target: region},
		}},
		&HandoffPage{RegionID: 99, Epoch: 12, Length: 8192, TransferID: 9002, Crc: 0xCAFEF00D},
		&HandoffDone{HostAddr: "host3:9000", OldRegionID: 42, Status: StatusBusy},
		&AllocResp{Status: StatusOK, Incarnation: 3, Region: region},
		&CheckAllocResp{Status: StatusOK, Incarnation: 3, Region: region},
		&KeepAlive{ClientID: 77, Incarnation: 3},
		&KeepAliveAck{ClientID: 77, ChecksumFailures: 2,
			CorruptHosts: []HostCount{{Addr: "host3:9000", Count: 2}}},
		&HostStatus{HostAddr: "host3:9000", State: HostIdle, Epoch: 5,
			AvailBytes: 100 << 20, LargestFree: 64 << 20, Incarnation: 3},
		&HostStatusAck{Status: StatusStale, Incarnation: 4},
		&IMDAllocReq{RegionID: 42, Length: 8192, Key: key, Client: "client-3:0"},
		&WriteReq{RegionID: 42, Epoch: 5, Offset: 100, Length: 8192, TransferID: 9001, WriteSeq: 17, Crc: 0x1234ABCD},
		&DataResp{Status: StatusOK, Count: 8192, TransferID: 9001, Crc: 0xFEEDFACE},
		&InventoryReport{HostAddr: "host3:9000", Epoch: 5, Incarnation: 2,
			AvailBytes: 90 << 20, LargestFree: 30 << 20,
			Regions: []InventoryRegion{
				{RegionID: 1<<32 | 7, PoolOffset: 4096, Length: 8192, WriteSeq: 3, Key: key, Client: "client-3:0"},
				{RegionID: 1<<32 | 8, PoolOffset: 16384, Length: 4096, Key: RegionKey{Inode: 9, Offset: -8, ClientID: 1}},
			}},
		&InventoryAck{Status: StatusOK, Incarnation: 2},
	}
	for _, msg := range msgs {
		got := roundTrip(t, 12345, msg)
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("%T round-trip mismatch:\n got  %+v\n want %+v", msg, got, msg)
		}
	}
}

func TestRoundTripEmptyVariants(t *testing.T) {
	msgs := []Message{
		&BulkData{TransferID: 1, Seq: 0, Payload: nil},
		&BulkNack{TransferID: 1, Missing: nil},
		&HostStatus{HostAddr: "", State: HostBusy},
		&AllocResp{Status: StatusNoMem, Region: Region{}},
	}
	for _, msg := range msgs {
		got := roundTrip(t, 0, msg)
		// BulkData normalizes nil payloads to empty slices on decode;
		// compare contents, not representation.
		switch want := msg.(type) {
		case *BulkData:
			g := got.(*BulkData)
			if g.TransferID != want.TransferID || g.Seq != want.Seq || len(g.Payload) != 0 {
				t.Errorf("BulkData round-trip = %+v, want %+v", g, want)
			}
		case *BulkNack:
			g := got.(*BulkNack)
			if g.TransferID != want.TransferID || len(g.Missing) != 0 {
				t.Errorf("BulkNack round-trip = %+v, want %+v", g, want)
			}
		default:
			if !reflect.DeepEqual(got, msg) {
				t.Errorf("%T round-trip mismatch: got %+v want %+v", msg, got, msg)
			}
		}
	}
}

func TestHeaderRejectsBadMagic(t *testing.T) {
	frame, _ := Encode(1, &KeepAlive{ClientID: 1})
	frame[0] = 0xAB
	if _, _, err := Decode(frame); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("Decode with bad magic = %v, want ErrBadMagic", err)
	}
}

func TestHeaderRejectsBadVersion(t *testing.T) {
	frame, _ := Encode(1, &KeepAlive{ClientID: 1})
	for _, v := range []uint8{200, Version - 1, Version + 1} {
		frame[2] = v
		if _, _, err := Decode(frame); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("Decode with version %d = %v, want ErrBadVersion", v, err)
		}
	}
}

func TestHeaderRejectsUnknownType(t *testing.T) {
	frame, _ := Encode(1, &KeepAlive{ClientID: 1})
	frame[3] = uint8(typeSentinel)
	if _, _, err := Decode(frame); !errors.Is(err, ErrBadType) {
		t.Fatalf("Decode with unknown type = %v, want ErrBadType", err)
	}
	frame[3] = uint8(TInvalid)
	if _, _, err := Decode(frame); !errors.Is(err, ErrBadType) {
		t.Fatalf("Decode with invalid type = %v, want ErrBadType", err)
	}
}

func TestHeaderRejectsShortFrame(t *testing.T) {
	frame, _ := Encode(1, &ReadReq{RegionID: 1, Length: 10})
	if _, _, err := Decode(frame[:len(frame)-4]); !errors.Is(err, ErrShortFrame) {
		t.Fatalf("Decode of short frame = %v, want ErrShortFrame", err)
	}
	if _, err := ParseHeader(frame[:5]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ParseHeader of 5 bytes = %v, want ErrTruncated", err)
	}
}

func TestHeaderRejectsOversizePayload(t *testing.T) {
	var buf [HeaderSize]byte
	PutHeader(buf[:], Header{Type: TBulkData, Seq: 1, PayloadLen: MaxPayload + 1})
	if _, err := ParseHeader(buf[:]); !errors.Is(err, ErrOversize) {
		t.Fatalf("ParseHeader oversize = %v, want ErrOversize", err)
	}
}

// TestTruncatedPayloadsRejected: every message has one layout, whose
// minimum is its zero value's encoding, and any shorter payload is
// ErrTruncated — never a decode that zero-fills the missing tail. The
// 32-byte ReadReq and the 21-byte DataResp of version 1 are two of the
// prefixes this walks.
func TestTruncatedPayloadsRejected(t *testing.T) {
	for ty := TAllocReq; ty < typeSentinel; ty++ {
		msg := newMessage(ty)
		if msg == nil {
			t.Fatalf("newMessage(%v) = nil", ty)
		}
		full, err := Encode(0, msg)
		if err != nil {
			t.Fatalf("Encode(zero %v): %v", ty, err)
		}
		for n := 0; n < len(full)-HeaderSize; n++ {
			frame := append([]byte(nil), full[:HeaderSize+n]...)
			PutHeader(frame, Header{Type: ty, Seq: 0, PayloadLen: uint32(n)})
			if _, _, err := Decode(frame); !errors.Is(err, ErrTruncated) {
				t.Errorf("Decode(%v) with %d of %d payload bytes = %v, want ErrTruncated",
					ty, n, len(full)-HeaderSize, err)
			}
		}
	}
}

// TestFixedLayouts pins the payload sizes version 2 settled: no field
// is optional, so a message's size depends on its variable-length
// fields alone, and a payload one byte short of the fixed part — which
// version 1 decoded by zero-filling the missing tail — is ErrTruncated.
func TestFixedLayouts(t *testing.T) {
	for _, tc := range []struct {
		msg         Message
		size, fixed int
	}{
		{&ReadReq{RegionID: 1, Length: 10}, 52, 52},
		{&ReadReq{RegionID: 1, Length: 10, XferID: 9, ChunkSize: 1408, Window: 32}, 52, 52},
		{&DataResp{Status: StatusBusy}, 22, 22},
		{&DataResp{Flags: DataFlagInline, Payload: []byte("abc")}, 25, 22},
		{&ReadBatchReq{XferID: 9}, 18, 18},
		{&HostStatus{HostAddr: "h"}, 36, 36},
		{&AllocResp{Region: Region{HostAddr: "h"}}, 44, 44},
		{&CheckAllocResp{Region: Region{HostAddr: "h"}}, 45, 45},
		{&KeepAliveAck{ClientID: 7}, 78, 78},
	} {
		frame, err := Encode(1, tc.msg)
		if err != nil {
			t.Fatalf("Encode(%T): %v", tc.msg, err)
		}
		if got := len(frame) - HeaderSize; got != tc.size {
			t.Errorf("%T payload = %d bytes, want %d", tc.msg, got, tc.size)
		}
		short := frame[:HeaderSize+tc.fixed-1]
		PutHeader(short, Header{Type: tc.msg.Kind(), Seq: 1, PayloadLen: uint32(tc.fixed - 1)})
		if _, _, err := Decode(short); !errors.Is(err, ErrTruncated) {
			t.Errorf("%T cut to %d payload bytes = %v, want ErrTruncated", tc.msg, tc.fixed-1, err)
		}
	}
}

func TestHostAddrTooLongRejected(t *testing.T) {
	long := string(bytes.Repeat([]byte{'a'}, math.MaxUint16+1))
	_, err := Encode(1, &HostStatus{HostAddr: long})
	if !errors.Is(err, ErrFieldBounds) {
		t.Fatalf("Encode with oversize addr = %v, want ErrFieldBounds", err)
	}
}

func TestBulkNackTooManyMissingRejected(t *testing.T) {
	nack := &BulkNack{TransferID: 1, Missing: make([]uint32, math32max+1)}
	if _, err := Encode(1, nack); err == nil {
		t.Fatal("Encode of oversized NACK succeeded, want error")
	}
}

// TestUint16CountsRejectExactly65536: element counts that travel as
// uint16 must refuse exactly 1<<16 entries — that length would pass a
// `> 1<<16` bound yet wrap to a count of 0 on the wire, silently
// dropping the whole list on decode. Encode's MaxPayload check happens
// to refuse these today too, so the encoders are exercised directly:
// the count bound must hold on its own.
func TestUint16CountsRejectExactly65536(t *testing.T) {
	cases := []struct {
		name string
		msg  Message
	}{
		{"HandoffOffer", &HandoffOffer{HostAddr: "a", Epoch: 1, Regions: make([]HandoffRegion, 1<<16)}},
		{"HandoffAccept", &HandoffAccept{Status: StatusOK, Grants: make([]HandoffGrant, 1<<16)}},
		{"ClusterStatsResp", &ClusterStatsResp{Status: StatusOK, Hosts: make([]HostInfo, 1<<16)}},
		{"ClusterStatsResp/corrupt", &ClusterStatsResp{Status: StatusOK, CorruptHosts: make([]HostCount, 1<<16)}},
		{"KeepAliveAck", &KeepAliveAck{ClientID: 1, CorruptHosts: make([]HostCount, 1<<16)}},
		{"InventoryReport", &InventoryReport{HostAddr: "a", Regions: make([]InventoryRegion, 1<<16)}},
	}
	for _, tc := range cases {
		if err := tc.msg.encode(make([]byte, tc.msg.payloadSize())); !errors.Is(err, ErrFieldBounds) {
			t.Errorf("%s.encode with 65536 elements = %v, want ErrFieldBounds", tc.name, err)
		}
		if _, err := Encode(1, tc.msg); err == nil {
			t.Errorf("Encode(%s) with 65536 elements succeeded, want error", tc.name)
		}
	}
}

func TestTypeAndStatusStrings(t *testing.T) {
	if TAllocReq.String() != "alloc-req" {
		t.Errorf("TAllocReq.String() = %q", TAllocReq.String())
	}
	if Type(250).String() != "wire.Type(250)" {
		t.Errorf("unknown type String() = %q", Type(250).String())
	}
	if StatusNoMem.String() != "no-memory" {
		t.Errorf("StatusNoMem.String() = %q", StatusNoMem.String())
	}
	if Status(250).String() != "wire.Status(250)" {
		t.Errorf("unknown status String() = %q", Status(250).String())
	}
	if HostIdle.String() != "idle" || HostBusy.String() != "busy" {
		t.Error("HostState strings wrong")
	}
	if HostState(9).String() != "wire.HostState(9)" {
		t.Errorf("unknown host state String() = %q", HostState(9).String())
	}
}

func TestRegionKeyString(t *testing.T) {
	k := RegionKey{Inode: 1, Offset: 2, ClientID: 3}
	if k.String() != "region(1@2/c3)" {
		t.Errorf("RegionKey.String() = %q", k.String())
	}
}

// Property: AllocReq round-trips for arbitrary keys and lengths.
func TestPropertyAllocReqRoundTrip(t *testing.T) {
	f := func(inode uint64, offset int64, client uint32, length uint64, seq uint32) bool {
		in := &AllocReq{Key: RegionKey{Inode: inode, Offset: offset, ClientID: client}, Length: length}
		frame, err := Encode(seq, in)
		if err != nil {
			return false
		}
		h, out, err := Decode(frame)
		if err != nil || h.Seq != seq {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: BulkData round-trips arbitrary payloads byte-for-byte.
func TestPropertyBulkDataRoundTrip(t *testing.T) {
	f := func(id uint64, seq32 uint32, payload []byte) bool {
		if len(payload) > MaxPayload-12 {
			payload = payload[:MaxPayload-12]
		}
		in := &BulkData{TransferID: id, Seq: seq32, Payload: payload}
		frame, err := Encode(0, in)
		if err != nil {
			return false
		}
		_, out, err := Decode(frame)
		if err != nil {
			return false
		}
		got := out.(*BulkData)
		return got.TransferID == id && got.Seq == seq32 && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding arbitrary garbage never panics and either errs or
// yields a message that re-encodes.
func TestPropertyDecodeGarbageNeverPanics(t *testing.T) {
	f := func(garbage []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Decode panicked on %x: %v", garbage, r)
			}
		}()
		h, msg, err := Decode(garbage)
		if err != nil {
			return true
		}
		_, err = Encode(h.Seq, msg)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: region descriptors round-trip with arbitrary host addresses.
func TestPropertyRegionRoundTrip(t *testing.T) {
	f := func(addr string, id, off, length, epoch uint64) bool {
		if len(addr) > math.MaxUint16 {
			addr = addr[:math.MaxUint16]
		}
		in := &AllocResp{Status: StatusOK, Region: Region{HostAddr: addr, RegionID: id, PoolOffset: off, Length: length, Epoch: epoch}}
		frame, err := Encode(0, in)
		if err != nil {
			return false
		}
		_, out, err := Decode(frame)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeReadReq(b *testing.B) {
	msg := &ReadReq{RegionID: 42, Epoch: 5, Offset: 100, Length: 8192}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(uint32(i), msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBulkData8KB(b *testing.B) {
	frame, err := Encode(1, &BulkData{TransferID: 1, Seq: 1, Payload: make([]byte, 8192)})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(8192)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}
