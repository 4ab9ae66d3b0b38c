package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// sample is one row of the table every codec test draws from.
type sample struct {
	// variant is empty for a type's fully populated value and names
	// what is empty otherwise.
	variant string
	msg     Message
}

func (s sample) name() string {
	if s.variant == "" {
		return s.msg.Kind().String()
	}
	return s.msg.Kind().String() + "/" + s.variant
}

// zero returns the zero value of a registered type.
func zero(t Type) Message { return types[t].new() }

// registered lists the types Decode accepts, in type order: every row
// of types with a constructor, which leaves out the reserved numbers.
func registered() []Type {
	var out []Type
	for ty := TInvalid + 1; ty < typeSentinel; ty++ {
		if types[ty].new != nil {
			out = append(out, ty)
		}
	}
	return out
}

// samples holds a fully populated value of every registered type, no
// two fields of one message alike, followed by the variants whose
// strings, lists and payloads are empty. Round trip, truncation sweep,
// fuzz seeds and testdata/frames.golden all read this one table.
func samples() []sample {
	region := Region{HostAddr: "10.0.0.7:7070", RegionID: 99, PoolOffset: 4096, Length: 1 << 20, Epoch: 12}
	key := RegionKey{Inode: 123456, Offset: 789, ClientID: 3}
	counts := []HostCount{{Addr: "ws-1:7071", Count: 2}, {Addr: "ws-2:7070", Count: 1}}
	counters := []Counter{{Name: "drops", Value: 3}, {Name: "hedged_reads", Value: 9}, {Name: "x", Value: 1 << 40}}
	return []sample{
		{"", &AllocReq{Key: key, Length: 8 << 20}},
		{"", &AllocResp{Status: StatusOK, Incarnation: 3, Region: region}},
		{"", &FreeReq{Key: key}},
		{"", &FreeResp{Status: StatusNotFound, Incarnation: 3}},
		{"", &CheckAllocReq{Key: key}},
		{"", &CheckAllocResp{Status: StatusStale, Fresh: true, Incarnation: 3, Region: region}},
		{"", &KeepAlive{ClientID: 77, Incarnation: 3}},
		{"", &KeepAliveAck{ClientID: 77, Counters: counters, CorruptHosts: counts}},
		{"", &HostStatus{HostAddr: "host3:9000", State: HostBusy, Epoch: 5,
			AvailBytes: 100 << 20, LargestFree: 64 << 20, Incarnation: 3}},
		{"", &HostStatusAck{Status: StatusStale, Incarnation: 4}},
		{"", &IMDAllocReq{RegionID: 42, Length: 8192, Key: key, Client: "client-3:0"}},
		{"", &IMDAllocResp{Status: StatusNoMem, PoolOffset: 12288, Epoch: 5, AvailBytes: 99 << 20, LargestFree: 50 << 20}},
		{"", &IMDFreeReq{RegionID: 42}},
		{"", &IMDFreeResp{Status: StatusBusy, Epoch: 5, AvailBytes: 100 << 20, LargestFree: 64 << 20}},
		{"", &ReadReq{RegionID: 42, Epoch: 5, Offset: 4096, Length: 1 << 16,
			Caps: LocalCaps, XferID: 77, ChunkSize: 1408, Window: 32}},
		{"", &WriteReq{RegionID: 42, Epoch: 5, Offset: 100, Length: 8192, TransferID: 9001, WriteSeq: 17, Crc: 0x1234ABCD}},
		{"", &DataResp{Status: StatusInvalid, Count: 16, TransferID: 9001, Crc: 0xFEEDF00D,
			Flags: DataFlagInline, Payload: []byte("0123456789abcdef")}},
		{"", &BulkOffer{TransferID: 9001, TotalLen: 1 << 20, ChunkSize: 1400, Window: 32}},
		{"", &BulkData{TransferID: 9001, Seq: 17, Payload: []byte("hello dodo")}},
		{"", &BulkNack{TransferID: 9001, Missing: []uint32{3, 5, 8}}},
		{"", &BulkDone{TransferID: 9001, Status: StatusInvalid}},
		{"", &ClusterStatsReq{}},
		{"", &ClusterStatsResp{
			Status: StatusBusy,
			Hosts: []HostInfo{
				{Addr: "10.0.0.1:7001", Epoch: 3, AvailBytes: 90 << 20, LargestFree: 64 << 20},
				{Addr: "10.0.0.2:7001", Epoch: 9, AvailBytes: 10 << 20, LargestFree: 1 << 20},
			},
			Regions: 1, Clients: 2, Incarnation: 19,
			Counters:     []Counter{{Name: "allocs", Value: 3}, {Name: "client.drops", Value: 8}},
			CorruptHosts: counts}},
		{"", &HandoffOffer{HostAddr: "host3:9000", Epoch: 5, Regions: []HandoffRegion{
			{RegionID: 42, Length: 8192, Reads: 31},
			{RegionID: 43, Length: 4096, Reads: 7},
		}}},
		{"", &HandoffAccept{Status: StatusStale, Grants: []HandoffGrant{
			{OldRegionID: 42, Target: region},
			{OldRegionID: 43, Target: Region{HostAddr: "ws-2:7070", RegionID: 41, Length: 1 << 16, Epoch: 9}},
		}}},
		{"", &HandoffPage{RegionID: 99, Epoch: 12, Length: 8192, TransferID: 9002, Crc: 0xCAFEF00D}},
		{"", &HandoffDone{HostAddr: "host3:9000", OldRegionID: 42, Status: StatusBusy}},
		{"", &InventoryReport{HostAddr: "host3:9000", Epoch: 5, Incarnation: 2,
			AvailBytes: 90 << 20, LargestFree: 30 << 20,
			Regions: []InventoryRegion{
				{RegionID: 1<<32 | 7, PoolOffset: 4096, Length: 8192, WriteSeq: 3, Key: key, Client: "client-3:0"},
				{RegionID: 1<<32 | 8, PoolOffset: 16384, Length: 4096, Key: RegionKey{Inode: 9, Offset: -8, ClientID: 1}},
			}}},
		{"", &InventoryAck{Status: StatusStale, Incarnation: 4}},

		{"no-addr", &AllocResp{Status: StatusNoMem, Incarnation: 3}},
		{"no-addr", &CheckAllocResp{Status: StatusNotFound, Incarnation: 3}},
		{"no-lists", &KeepAliveAck{ClientID: 77}},
		{"no-hosts", &KeepAliveAck{ClientID: 77, Counters: counters}},
		{"no-counters", &KeepAliveAck{ClientID: 77, CorruptHosts: counts}},
		{"unnamed", &KeepAliveAck{ClientID: 77, Counters: []Counter{{Value: 5}}}},
		{"no-addr", &HostStatus{State: HostBusy, Epoch: 5}},
		{"no-client", &IMDAllocReq{RegionID: 42, Length: 8192, Key: key}},
		{"inline", &WriteReq{RegionID: 42, Epoch: 5, Offset: 100, Length: 10, WriteSeq: 18, Crc: 0x5EEDBEEF,
			Payload: []byte("hello dodo")}},
		{"no-payload", &DataResp{Status: StatusOK, Count: 1 << 16, TransferID: 77, Crc: 0xFEEDFACE, Flags: DataFlagEager}},
		{"no-payload", &BulkData{TransferID: 1}},
		{"no-missing", &BulkNack{TransferID: 1}},
		{"no-lists", &ClusterStatsResp{Status: StatusOK, Regions: 4, Incarnation: 2}},
		{"no-hosts", &ClusterStatsResp{Status: StatusOK, Counters: counters, CorruptHosts: counts}},
		{"no-counters", &ClusterStatsResp{Status: StatusOK, Hosts: []HostInfo{{Addr: "h"}}, CorruptHosts: counts}},
		{"no-regions", &HandoffOffer{Epoch: 5}},
		{"no-grants", &HandoffAccept{Status: StatusStale}},
		{"no-addr", &HandoffDone{OldRegionID: 42, Status: StatusOK}},
		{"no-regions", &InventoryReport{HostAddr: "host3:9000", Epoch: 5, Incarnation: 2}},
	}
}

// TestSamplesCoverEveryType: the table's first rows are one populated
// value per registered type, in type order.
func TestSamplesCoverEveryType(t *testing.T) {
	all := samples()
	for i, ty := range registered() {
		s := all[i]
		if s.msg.Kind() != ty || s.variant != "" {
			t.Errorf("samples()[%d] = %s, want the populated %v", i, s.name(), ty)
		}
		if reflect.DeepEqual(s.msg, zero(ty)) && ty != TClusterStatsReq {
			t.Errorf("sample %s is the zero value", s.name())
		}
	}
}

// TestFramesGolden pins every sample's frame byte for byte. A codec
// change that keeps wire.Version must leave testdata/frames.golden
// untouched; to regenerate after a version bump, delete the file and
// run the test once.
func TestFramesGolden(t *testing.T) {
	const path = "testdata/frames.golden"
	var b strings.Builder
	for _, s := range samples() {
		frame, err := Encode(99, s.msg)
		if err != nil {
			t.Fatalf("Encode(%s): %v", s.name(), err)
		}
		fmt.Fprintf(&b, "%s %s\n", s.name(), hex.EncodeToString(frame))
	}
	want, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist; wrote it", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d frames, %s has %d", len(got)-1, path, len(wantLines)-1)
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("frame differs from %s:\n got  %s\n want %s", path, got[i], wantLines[i])
		}
	}
}

// tailOf returns the rest-of-payload tail of the three messages that
// have one, and false for every other message.
func tailOf(msg Message) ([]byte, bool) {
	switch m := msg.(type) {
	case *WriteReq:
		return m.Payload, true
	case *DataResp:
		return m.Payload, true
	case *BulkData:
		return m.Payload, true
	}
	return nil, false
}

// cutFrame returns frame's first n payload bytes under a header that
// declares exactly n.
func cutFrame(frame []byte, n int) []byte {
	h, _ := ParseHeader(frame)
	cut := append([]byte(nil), frame[:HeaderSize+n]...)
	PutHeader(cut, Header{Type: h.Type, Seq: h.Seq, PayloadLen: uint32(n)})
	return cut
}

// sweepTruncations cuts msg's frame at every payload byte. Below the
// fixed part — the whole payload, for a message without a tail — the
// cut is ErrTruncated; inside a tail it is a shorter tail, which must
// decode and re-encode to itself.
func sweepTruncations(t *testing.T, name string, msg Message) {
	t.Helper()
	full, err := Encode(0, msg)
	if err != nil {
		t.Fatalf("Encode(%s): %v", name, err)
	}
	fixed := len(full) - HeaderSize
	if tail, ok := tailOf(msg); ok {
		fixed -= len(tail)
	}
	for n := 0; n < len(full)-HeaderSize; n++ {
		cut := cutFrame(full, n)
		h, got, err := Decode(cut)
		if n < fixed {
			if !errors.Is(err, ErrTruncated) {
				t.Errorf("Decode(%s) with %d of %d payload bytes = %v, want ErrTruncated", name, n, fixed, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Decode(%s) cut inside its tail at %d: %v", name, n, err)
			continue
		}
		if re, err := Encode(h.Seq, got); err != nil || !bytes.Equal(re, cut) {
			t.Errorf("%s cut inside its tail at %d re-encodes to %x (%v), want %x", name, n, re, err, cut)
		}
	}
}

// TestBulkDataFastPathMatchesCodec pins the one hand-written layout,
// PutBulkDataPrefix/DecodeBulkData, byte for byte against the generic
// codec's BulkData frame.
func TestBulkDataFastPathMatchesCodec(t *testing.T) {
	if want := HeaderSize + PayloadSize(&BulkData{}); BulkDataPrefixSize != want {
		t.Errorf("BulkDataPrefixSize = %d, BulkData's fixed fields encode to %d", BulkDataPrefixSize, want)
	}
	for _, payload := range [][]byte{nil, []byte("hello dodo")} {
		msg := &BulkData{TransferID: 0x0102030405060708, Seq: 0x0A0B0C0D, Payload: payload}
		want, err := Encode(0, msg)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, BulkDataPrefixSize+len(payload))
		PutBulkDataPrefix(got, msg.TransferID, msg.Seq, len(payload))
		copy(got[BulkDataPrefixSize:], payload)
		if !bytes.Equal(got, want) {
			t.Errorf("PutBulkDataPrefix frame = %x, Encode = %x", got, want)
		}
		id, seq, tail, err := DecodeBulkData(want)
		if err != nil || id != msg.TransferID || seq != msg.Seq || !bytes.Equal(tail, payload) {
			t.Errorf("DecodeBulkData = (%#x, %#x, %q, %v), want %+v", id, seq, tail, err, msg)
		}
		for n := 0; n < BulkDataPrefixSize-HeaderSize; n++ {
			if _, _, _, err := DecodeBulkData(cutFrame(want, n)); !errors.Is(err, ErrTruncated) {
				t.Errorf("DecodeBulkData with %d payload bytes = %v, want ErrTruncated", n, err)
			}
		}
	}
}

// TestEncodePooledMatchesEncode: the pooled encoder writes the same
// bytes as Encode for every sample.
func TestEncodePooledMatchesEncode(t *testing.T) {
	for _, s := range samples() {
		want, err := Encode(99, s.msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EncodePooled(99, s.msg)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("EncodePooled(%s) = %x (%v), want %x", s.name(), got, err, want)
		}
		PutFrame(got)
	}
}
