package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"dodo/internal/bulk"
	"dodo/internal/usocket"
	"dodo/internal/wire"
)

// TestKeepAliveAckFitsOneFrame: the ack a client builds carries every
// counter it names and, with no corrupt hosts, fits one U-Net frame
// whatever the counters' values — a keep-alive answer never becomes a
// bulk transfer.
func TestKeepAliveAckFitsOneFrame(t *testing.T) {
	s := newStack(t, 0, 0)
	ack := s.cli.keepAliveAck(1)
	if len(ack.Counters) != len(ackCounters) || ack.CorruptHosts != nil {
		t.Fatalf("ack = %+v, want %d counters and no corrupt hosts", ack, len(ackCounters))
	}
	for i := range ack.Counters {
		ack.Counters[i].Value = math.MaxUint64
	}
	frame, err := wire.Encode(1, ack)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) > usocket.MTU {
		t.Fatalf("keep-alive ack frame = %d bytes, above the %d-byte MTU", len(frame), usocket.MTU)
	}
}

// TestHedgeAndChecksumCountersReachClusterStats: a real client's hedged
// reads and checksum failures reach the manager's stats response on a
// keep-alive, under the names the client gave them, with the per-host
// breakdown beside them. Every counter the client names is listed.
func TestHedgeAndChecksumCountersReachClusterStats(t *testing.T) {
	s := hedgeStack(t, 1)
	fd, err := s.cli.Mopen(8<<10, NewMemBacking(62, 1<<20), 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8<<10)
	for i := 0; i < 4; i++ {
		if _, err := s.cli.Mread(fd, 0, buf); err != nil {
			t.Fatalf("Mread %d: %v", i, err)
		}
	}
	// The client's own count of a failed page check, as a corrupt read
	// makes it (TestCorruptReadFailsChecksum drives that path).
	s.cli.noteCorrupt(s.seg.Addr("imd0"))
	st := s.cli.Stats()
	if st.HedgedReads == 0 {
		t.Fatalf("no read was hedged: %+v", st)
	}

	ctl := bulk.NewEndpoint(host(t, s.seg, "ctl"), fastEp(), nil)
	t.Cleanup(func() { ctl.Close() })
	var resp *wire.ClusterStatsResp
	byName := make(map[string]uint64)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		msg, err := ctl.Call(s.seg.Addr("cmd"), &wire.ClusterStatsReq{})
		if err != nil {
			t.Fatal(err)
		}
		resp = msg.(*wire.ClusterStatsResp)
		for _, k := range resp.Counters {
			byName[k.Name] = k.Value
		}
		if byName["client.checksum_failures"] == 1 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got, want := byName["client.hedged_reads"], uint64(st.HedgedReads); got != want {
		t.Errorf("client.hedged_reads = %d, want the client's %d", got, want)
	}
	if got := byName["client.checksum_failures"]; got != 1 {
		t.Errorf("client.checksum_failures = %d, want 1", got)
	}
	if want := []wire.HostCount{{Addr: s.seg.Addr("imd0"), Count: 1}}; !reflect.DeepEqual(resp.CorruptHosts, want) {
		t.Errorf("corrupt hosts = %v, want %v", resp.CorruptHosts, want)
	}
	for _, k := range ackCounters {
		if _, ok := byName["client."+k.name]; !ok {
			t.Errorf("client.%s missing from the stats response: %v", k.name, resp.Counters)
		}
	}
}
