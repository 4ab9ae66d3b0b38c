package wire

import (
	"bytes"
	"encoding/binary"
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

// roundTripSamples requires every populated sample, or every empty
// variant, to decode to a deeply equal message. A payload tail is
// compared on its own, as bytes: the decoded one is a view of the
// frame, not a slice the codec made.
func roundTripSamples(t *testing.T, seq uint32, variants bool) {
	for _, s := range samples() {
		if (s.variant != "") != variants {
			continue
		}
		got := roundTrip(t, seq, s.msg)
		if !reflect.DeepEqual(got, s.msg) {
			t.Errorf("%s round-trip mismatch:\n got  %+v\n want %+v", s.name(), got, s.msg)
		}
		gotTail, _ := tailOf(got)
		if wantTail, has := tailOf(s.msg); has && !bytes.Equal(gotTail, wantTail) {
			t.Errorf("%s payload round-trips to %q, want %q", s.name(), gotTail, wantTail)
		}
	}
}

// TestDecodeAliasesFrame pins Decode's documented contract: a payload
// tail is a view of the frame handed in, so writing to the frame
// afterwards shows through the message, and everything that is not a
// tail was copied out.
func TestDecodeAliasesFrame(t *testing.T) {
	for _, msg := range []Message{
		&WriteReq{RegionID: 1, Length: 4, WriteSeq: 1, Payload: []byte("page")},
		&DataResp{Count: 4, Flags: DataFlagInline, Payload: []byte("page")},
		&BulkData{TransferID: 1, Payload: []byte("page")},
	} {
		frame, err := Encode(1, msg)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		tail, _ := tailOf(got)
		if len(tail) != 4 || &tail[0] != &frame[len(frame)-4] {
			t.Errorf("%v: decoded payload does not alias the frame's last 4 bytes", msg.Kind())
		}
		frame[len(frame)-1] ^= 0xFF
		if tail, _ := tailOf(got); bytes.Equal(tail, []byte("page")) {
			t.Errorf("%v: a write to the frame did not show through the decoded payload", msg.Kind())
		}
	}
	frame, _ := Encode(1, &HostStatus{HostAddr: "host3:9000"})
	_, got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := HeaderSize; i < len(frame); i++ {
		frame[i] = 'x'
	}
	if addr := got.(*HostStatus).HostAddr; addr != "host3:9000" {
		t.Errorf("a string field aliases the frame: HostAddr = %q after overwriting it", addr)
	}
}

func TestRoundTripAllMessages(t *testing.T) { roundTripSamples(t, 12345, false) }

// TestRoundTripEmptyVariants: an empty string, list or payload
// round-trips, and every empty list or payload decodes to nil — the
// samples leave theirs nil, so deep equality checks exactly that.
func TestRoundTripEmptyVariants(t *testing.T) { roundTripSamples(t, 0, true) }

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

// TestTruncatedPayloadsRejected: every message has one layout, and any
// payload shorter than it is ErrTruncated — never a panic, never a
// decode that zero-fills the missing tail. Every sample and every
// type's zero value is cut at every byte; the 32-byte ReadReq and the
// 21-byte DataResp of version 1 are two of the prefixes this walks.
func TestTruncatedPayloadsRejected(t *testing.T) {
	for _, ty := range registered() {
		sweepTruncations(t, "zero "+ty.String(), zero(ty))
	}
	for _, s := range samples() {
		sweepTruncations(t, s.name(), s.msg)
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
		{&HostStatus{HostAddr: "h"}, 36, 36},
		{&AllocResp{Region: Region{HostAddr: "h"}}, 44, 44},
		{&CheckAllocResp{Region: Region{HostAddr: "h"}}, 45, 45},
		{&KeepAliveAck{ClientID: 7}, 8, 8},
		{&KeepAliveAck{ClientID: 7, Counters: []Counter{{Name: "drops", Value: 3}}}, 23, 8},
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

// TestBulkNackTooManyMissingRejected: the NACK list bound holds in both
// directions. A list one over the bound does not encode, and a frame
// that carries one — count and every entry present, so nothing about
// it is truncated — does not decode.
func TestBulkNackTooManyMissingRejected(t *testing.T) {
	if _, err := Encode(1, &BulkNack{TransferID: 1, Missing: make([]uint32, math32max+1)}); !errors.Is(err, ErrFieldBounds) {
		t.Errorf("Encode of oversized NACK = %v, want ErrFieldBounds", err)
	}
	frame, err := Encode(1, &BulkNack{TransferID: 1, Missing: make([]uint32, math32max)})
	if err != nil {
		t.Fatalf("Encode of a NACK at the bound: %v", err)
	}
	if _, _, err := Decode(frame); err != nil {
		t.Errorf("Decode of a NACK at the bound: %v", err)
	}
	frame = append(frame, 0, 0, 0, 0)
	PutHeader(frame, Header{Type: TBulkNack, Seq: 1, PayloadLen: uint32(len(frame) - HeaderSize)})
	binary.BigEndian.PutUint32(frame[HeaderSize+8:], math32max+1)
	if _, _, err := Decode(frame); !errors.Is(err, ErrFieldBounds) {
		t.Errorf("Decode of oversized NACK = %v, want ErrFieldBounds", err)
	}
}

// TestKeepAliveAckCountersBounded: an ack carries at most 64 counters,
// so one client adds at most 64 names to the manager's table. A frame
// with a 65th — count and every entry present, so nothing about it is
// truncated — does not decode.
func TestKeepAliveAckCountersBounded(t *testing.T) {
	frame, err := Encode(1, &KeepAliveAck{ClientID: 1, Counters: make([]Counter, maxAckCounters)})
	if err != nil {
		t.Fatalf("Encode of an ack at the bound: %v", err)
	}
	if _, _, err := Decode(frame); err != nil {
		t.Errorf("Decode of an ack at the bound: %v", err)
	}
	// A 65th unnamed counter is ten zero bytes, inserted before the
	// corrupt-hosts count, which is zero too.
	frame = append(frame, make([]byte, 10)...)
	PutHeader(frame, Header{Type: TKeepAliveAck, Seq: 1, PayloadLen: uint32(len(frame) - HeaderSize)})
	binary.BigEndian.PutUint16(frame[HeaderSize+4:], maxAckCounters+1)
	if _, _, err := Decode(frame); !errors.Is(err, ErrFieldBounds) {
		t.Errorf("Decode of an ack with %d counters = %v, want ErrFieldBounds", maxAckCounters+1, err)
	}
}

// TestUint16CountsRejectExactly65536: element counts that travel as
// uint16 must refuse exactly 1<<16 entries — that length would pass a
// `> 1<<16` bound yet wrap to a count of 0 on the wire, silently
// dropping the whole list on decode. Encode's MaxPayload check happens
// to refuse these today too, so the encoders are exercised directly:
// the count bound must hold on its own. A list bounded tighter, like
// the keep-alive ack's 64 counters, refuses one element past its bound.
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
		{"KeepAliveAck/counters", &KeepAliveAck{ClientID: 1, Counters: make([]Counter, maxAckCounters+1)}},
		{"ClusterStatsResp/counters", &ClusterStatsResp{Status: StatusOK, Counters: make([]Counter, 1<<16)}},
		{"InventoryReport", &InventoryReport{HostAddr: "a", Regions: make([]InventoryRegion, 1<<16)}},
	}
	for _, tc := range cases {
		if _, err := new(cursor).run(putting, tc.msg, make([]byte, 8*MaxPayload)); !errors.Is(err, ErrFieldBounds) {
			t.Errorf("put walk of %s with 65536 elements = %v, want ErrFieldBounds", tc.name, err)
		}
		if _, err := Encode(1, tc.msg); !errors.Is(err, ErrFieldBounds) {
			t.Errorf("Encode(%s) with 65536 elements = %v, want ErrFieldBounds", tc.name, err)
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
