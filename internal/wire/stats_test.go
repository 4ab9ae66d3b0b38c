package wire

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestClusterStatsRoundTrip(t *testing.T) {
	in := &ClusterStatsResp{
		Status: StatusOK,
		Hosts: []HostInfo{
			{Addr: "10.0.0.1:7001", Epoch: 3, AvailBytes: 90 << 20, LargestFree: 64 << 20},
			{Addr: "10.0.0.2:7001", Epoch: 9, AvailBytes: 10 << 20, LargestFree: 1 << 20},
		},
		Regions: 42, Clients: 3, Incarnation: 2,
		Counters: []Counter{{Name: "allocs", Value: 100}, {Name: "client.drops", Value: 11}, {Name: "frees", Value: 60}},
	}
	got := roundTrip(t, 9, in)
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip mismatch:\n got  %+v\n want %+v", got, in)
	}
	// Empty request round-trips too.
	req := roundTrip(t, 10, &ClusterStatsReq{})
	if _, ok := req.(*ClusterStatsReq); !ok {
		t.Fatalf("request round trip = %T", req)
	}
}

func TestClusterStatsEmptyHosts(t *testing.T) {
	in := &ClusterStatsResp{Status: StatusOK}
	got := roundTrip(t, 0, in).(*ClusterStatsResp)
	if len(got.Hosts) != 0 {
		t.Fatalf("hosts = %d, want 0", len(got.Hosts))
	}
}

func TestPropertyClusterStatsRoundTrip(t *testing.T) {
	f := func(addrs []string, epoch, avail uint64, regions, clients uint32) bool {
		in := &ClusterStatsResp{Status: StatusOK, Regions: uint64(regions), Clients: uint64(clients)}
		for _, a := range addrs {
			if len(a) > 200 {
				a = a[:200]
			}
			if len(in.Hosts) >= 100 {
				break
			}
			in.Hosts = append(in.Hosts, HostInfo{Addr: a, Epoch: epoch, AvailBytes: avail})
		}
		frame, err := Encode(0, in)
		if err != nil {
			return false
		}
		_, out, err := Decode(frame)
		if err != nil {
			return false
		}
		got := out.(*ClusterStatsResp)
		if len(got.Hosts) != len(in.Hosts) {
			return false
		}
		for i := range got.Hosts {
			if got.Hosts[i] != in.Hosts[i] {
				return false
			}
		}
		return got.Regions == in.Regions && got.Clients == in.Clients
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
