package wire

import (
	"errors"
	"runtime"
	"slices"
	"testing"
)

// TestTypeTable is the registry check: every type between TInvalid and
// typeSentinel has a row in types with a name no other row has and a
// constructor whose message reports that type. The three reserved
// numbers have a name only, and a frame that carries one is ErrBadType.
func TestTypeTable(t *testing.T) {
	reserved := map[Type]bool{TBulkAccept: true, TReadBatchReq: true, TReadBatchResp: true}
	names := map[string]Type{}
	for ty := TInvalid + 1; ty < typeSentinel; ty++ {
		row := types[ty]
		if row.name == "" {
			t.Errorf("wire type %d has no name in types", ty)
		} else if prev, dup := names[row.name]; dup {
			t.Errorf("wire types %d and %d are both named %q", prev, ty, row.name)
		}
		names[row.name] = ty
		switch {
		case reserved[ty]:
			frame, _ := Encode(1, &KeepAlive{ClientID: 1})
			frame[3] = uint8(ty)
			if _, _, err := Decode(frame); row.new != nil || !errors.Is(err, ErrBadType) {
				t.Errorf("reserved wire type %v: constructor %v, Decode = %v; want none and ErrBadType", ty, row.new != nil, err)
			}
		case row.new == nil:
			t.Errorf("wire type %v has no constructor in types; frames of this type cannot be decoded", ty)
		case row.new().Kind() != ty:
			t.Errorf("types[%v].new().Kind() = %v", ty, row.new().Kind())
		}
	}
}

// TestMessagesCoverTheTable pins what the dispatcher table tests rest
// on: Messages yields one message of every type with a constructor, in
// Type order, and none of a reserved number.
func TestMessagesCoverTheTable(t *testing.T) {
	var want []Type
	for ty := TInvalid + 1; ty < typeSentinel; ty++ {
		if types[ty].new != nil {
			want = append(want, ty)
		}
	}
	var got []Type
	for _, m := range Messages() {
		got = append(got, m.Kind())
	}
	if !slices.Equal(got, want) {
		t.Errorf("Messages() kinds = %v, want %v", got, want)
	}
}

// TestHostileCountsCostNothing: the smallest frame of every message
// that carries a list, its count bytes set to 0xFFFF and no element
// behind them, is ErrTruncated — ErrFieldBounds for a list bounded
// below 0xFFFF — and is refused before anything is allocated for the
// elements it claims.
func TestHostileCountsCostNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		msg  Message
		// behind is how many payload bytes follow the count in the
		// message's zero value: the next lists' own counts.
		behind int
		want   error
	}{
		{"KeepAliveAck/counters", &KeepAliveAck{}, 2, ErrFieldBounds},
		{"KeepAliveAck/corrupt", &KeepAliveAck{}, 0, ErrTruncated},
		{"BulkNack", &BulkNack{}, 0, ErrTruncated},
		{"ClusterStatsResp/hosts", &ClusterStatsResp{}, 4, ErrTruncated},
		{"ClusterStatsResp/counters", &ClusterStatsResp{}, 2, ErrTruncated},
		{"ClusterStatsResp/corrupt", &ClusterStatsResp{}, 0, ErrTruncated},
		{"HandoffOffer", &HandoffOffer{}, 0, ErrTruncated},
		{"HandoffAccept", &HandoffAccept{}, 0, ErrTruncated},
		{"InventoryReport", &InventoryReport{}, 0, ErrTruncated},
	} {
		frame, err := Encode(1, tc.msg)
		if err != nil {
			t.Fatal(err)
		}
		count := frame[len(frame)-tc.behind-2:]
		count[0], count[1] = 0xFF, 0xFF
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err = Decode(frame)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s with a hostile count = %v, want %v", tc.name, err, tc.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<10 {
			t.Errorf("%s with a hostile count allocated %d B before refusing it", tc.name, got)
		}
	}
}

// TestAllocBudget pins the codec's allocations, which unlike its ns/op
// are the same on every machine: the frame on encode, the message on
// decode, nothing for the walk itself.
func TestAllocBudget(t *testing.T) {
	req := &ReadReq{RegionID: 42, Epoch: 5, Offset: 100, Length: 8192}
	frame, err := Encode(1, req)
	if err != nil {
		t.Fatal(err)
	}
	pageMsg := &DataResp{Count: 8192, Flags: DataFlagInline, Payload: make([]byte, 8192)}
	page, err := Encode(1, pageMsg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"Encode", 1, func() { _, _ = Encode(1, req) }},
		{"Decode", 1, func() { _, _, _ = Decode(frame) }},
		// An inline page is a view of its frame, not a second buffer.
		{"Decode inline page", 1, func() { _, _, _ = Decode(page) }},
		// Below MinPooledFrame the frame is the one allocation; above it
		// the frame is recycled and PutFrame boxes the slice header it
		// returns to the pool.
		{"EncodePooled+PutFrame", 1, func() { f, _ := EncodePooled(1, req); PutFrame(f) }},
		{"EncodePooled+PutFrame of a page", 1, func() { f, _ := EncodePooled(1, pageMsg); PutFrame(f) }},
		{"PayloadSize", 0, func() { _ = PayloadSize(req) }},
	} {
		if got := testing.AllocsPerRun(200, tc.f); got > tc.max {
			t.Errorf("%s = %v allocs/op, budget %v", tc.name, got, tc.max)
		}
	}
}

// TestInlineDataLimit pins the limit against an encoded frame: a
// DataResp carrying exactly InlineDataLimit(mtu) bytes fills the MTU.
func TestInlineDataLimit(t *testing.T) {
	for _, mtu := range []int{1500, 63 << 10} {
		frame, err := Encode(1, &DataResp{Flags: DataFlagInline, Payload: make([]byte, InlineDataLimit(mtu))})
		if err != nil || len(frame) != mtu {
			t.Errorf("DataResp at InlineDataLimit(%d) is %d bytes (%v)", mtu, len(frame), err)
		}
	}
}

// TestInlineWriteLimit pins the write-side limit the same way, for
// Ethernet, usocket.MTU and transport.UDPMTU: a WriteReq carrying
// exactly InlineWriteLimit(mtu) bytes fills the MTU, and one byte more
// does not fit.
func TestInlineWriteLimit(t *testing.T) {
	for _, mtu := range []int{1500, 1468, 63 << 10} {
		limit := InlineWriteLimit(mtu)
		frame, err := Encode(1, &WriteReq{Length: uint64(limit), WriteSeq: 1, Payload: make([]byte, limit)})
		if err != nil || len(frame) != mtu {
			t.Errorf("WriteReq at InlineWriteLimit(%d) is %d bytes (%v)", mtu, len(frame), err)
		}
		frame, err = Encode(1, &WriteReq{Length: uint64(limit + 1), WriteSeq: 1, Payload: make([]byte, limit+1)})
		if err != nil || len(frame) != mtu+1 {
			t.Errorf("WriteReq one byte over InlineWriteLimit(%d) is %d bytes (%v)", mtu, len(frame), err)
		}
	}
}
