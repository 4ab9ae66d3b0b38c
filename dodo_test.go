package dodo

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dodo/internal/bulk"
	"dodo/internal/monitor"
)

func fastEp() EndpointConfig {
	return bulk.Config{
		CallTimeout:   200 * time.Millisecond,
		CallRetries:   4,
		WindowTimeout: 100 * time.Millisecond,
		NackDelay:     40 * time.Millisecond,
	}
}

// TestPublicAPIOverRealUDP is the facade's end-to-end test: manager,
// two imds and a client, all on real UDP loopback sockets, exercising
// the whole paper API surface.
func TestPublicAPIOverRealUDP(t *testing.T) {
	mgr, err := ListenManager("127.0.0.1:0", ManagerConfig{
		KeepAliveInterval: 300 * time.Millisecond,
		Endpoint:          fastEp(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	var imds []*IMD
	for i := 0; i < 2; i++ {
		d, err := ListenIMD("127.0.0.1:0", IMDConfig{
			ManagerAddr:    mgr.Addr(),
			PoolSize:       1 << 20,
			Epoch:          1,
			StatusInterval: 200 * time.Millisecond,
			Endpoint:       fastEp(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		imds = append(imds, d)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && mgr.Stats().IdleHosts < 2 {
		time.Sleep(20 * time.Millisecond)
	}
	if mgr.Stats().IdleHosts != 2 {
		t.Fatalf("manager sees %d idle hosts, want 2", mgr.Stats().IdleHosts)
	}

	cli, err := Dial("127.0.0.1:0", mgr.Addr(), ClientConfig{ClientID: 1, Endpoint: fastEp()})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	back := NewMemBacking(1, 1<<20)
	fd, err := cli.Mopen(128<<10, back, 0)
	if err != nil {
		t.Fatalf("Mopen over UDP: %v", err)
	}
	data := bytes.Repeat([]byte("udp-loopback!"), 128<<10/13+1)[:128<<10]
	if n, err := cli.Mwrite(fd, 0, data); err != nil || n != len(data) {
		t.Fatalf("Mwrite = %d, %v", n, err)
	}
	got := make([]byte, len(data))
	if n, err := cli.Mread(fd, 0, got); err != nil || n != len(data) {
		t.Fatalf("Mread = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("UDP round trip corrupted data")
	}
	if ok, err := cli.CheckAlloc(fd); err != nil || !ok {
		t.Fatalf("CheckAlloc = %v, %v", ok, err)
	}
	if err := cli.Msync(fd); err != nil {
		t.Fatalf("Msync: %v", err)
	}
	if err := cli.Mclose(fd); err != nil {
		t.Fatalf("Mclose: %v", err)
	}
	if _, err := cli.Mread(fd, 0, got); !errors.Is(err, ErrInval) {
		t.Fatalf("Mread after Mclose = %v, want ErrInval", err)
	}
}

func TestRegionCacheOverFacade(t *testing.T) {
	mgr, err := ListenManager("127.0.0.1:0", ManagerConfig{
		KeepAliveInterval: time.Hour,
		Endpoint:          fastEp(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	d, err := ListenIMD("127.0.0.1:0", IMDConfig{
		ManagerAddr: mgr.Addr(), PoolSize: 1 << 20, Epoch: 1,
		StatusInterval: 200 * time.Millisecond, Endpoint: fastEp(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cli, err := Dial("127.0.0.1:0", mgr.Addr(), ClientConfig{Endpoint: fastEp()})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	policy, err := NewPolicy("first-in")
	if err != nil {
		t.Fatal(err)
	}
	cache := NewRegionCache(cli, RegionConfig{Capacity: 8 << 10, Policy: policy, PromoteOnAccess: true})
	back := NewMemBacking(9, 1<<20)
	// Two regions fit locally; the third goes remote via the live imd.
	var fds []int
	for i := 0; i < 3; i++ {
		fd, err := cache.Copen(4<<10, back, int64(i)*4<<10)
		if err != nil {
			t.Fatalf("Copen %d: %v", i, err)
		}
		payload := bytes.Repeat([]byte{byte(i + 1)}, 4<<10)
		if _, err := cache.Cwrite(fd, 0, payload); err != nil {
			t.Fatalf("Cwrite %d: %v", i, err)
		}
		fds = append(fds, fd)
	}
	for i, fd := range fds {
		got := make([]byte, 4<<10)
		if _, err := cache.Cread(fd, 0, got); err != nil {
			t.Fatalf("Cread %d: %v", i, err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, 4<<10)) {
			t.Fatalf("region %d corrupted", i)
		}
	}
	for _, fd := range fds {
		if err := cache.Cclose(fd); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHarvestLimitExported(t *testing.T) {
	m := monitor.MemSample{Total: 128 << 20, Kernel: 20 << 20, Process: 10 << 20}
	if HarvestLimit(m, -1) == 0 {
		t.Fatal("HarvestLimit = 0 on a mostly idle host")
	}
	if got, want := HarvestLimit(m, -1), monitor.HarvestLimit(m, -1); got != want {
		t.Fatalf("facade disagrees with monitor: %d vs %d", got, want)
	}
}

func TestDialBadAddress(t *testing.T) {
	if _, err := Dial("not-an-address", "127.0.0.1:1", ClientConfig{}); err == nil {
		t.Fatal("Dial with bad local address succeeded")
	}
	if _, err := ListenManager("999.0.0.1:0", ManagerConfig{}); err == nil {
		t.Fatal("ListenManager with bad address succeeded")
	}
	if _, err := ListenIMD("999.0.0.1:0", IMDConfig{}); err == nil {
		t.Fatal("ListenIMD with bad address succeeded")
	}
}

func TestQueryClusterOverUDP(t *testing.T) {
	mgr, err := ListenManager("127.0.0.1:0", ManagerConfig{
		KeepAliveInterval: time.Hour,
		Endpoint:          fastEp(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	d, err := ListenIMD("127.0.0.1:0", IMDConfig{
		ManagerAddr: mgr.Addr(), PoolSize: 2 << 20, Epoch: 5,
		StatusInterval: 100 * time.Millisecond, Endpoint: fastEp(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && mgr.Stats().IdleHosts < 1 {
		time.Sleep(20 * time.Millisecond)
	}

	cli, err := Dial("127.0.0.1:0", mgr.Addr(), ClientConfig{ClientID: 1, Endpoint: fastEp()})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	back := NewMemBacking(3, 1<<20)
	if _, err := cli.Mopen(4096, back, 0); err != nil {
		t.Fatal(err)
	}

	state, err := QueryCluster(mgr.Addr())
	if err != nil {
		t.Fatalf("QueryCluster: %v", err)
	}
	if len(state.Hosts) != 1 {
		t.Fatalf("hosts = %d, want 1", len(state.Hosts))
	}
	h := state.Hosts[0]
	if h.Addr != d.Addr() || h.Epoch != 5 {
		t.Fatalf("host = %+v", h)
	}
	if h.AvailBytes != 2<<20-4096 {
		t.Fatalf("avail = %d, want pool minus one region", h.AvailBytes)
	}
	if state.Regions != 1 || state.Counters["allocs"] != 1 || state.Clients != 1 {
		t.Fatalf("state = %+v", state)
	}
	if _, err := QueryCluster("127.0.0.1:1"); err == nil {
		t.Fatal("QueryCluster against nothing succeeded")
	}
}
