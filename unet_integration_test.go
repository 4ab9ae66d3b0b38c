package dodo

// Integration test of the paper's headline portability property: the
// same daemons and runtime library run unchanged over the U-Net
// substrate (§4, §4.6) — here the usocket emulation with 1500-byte
// frames, bounded receive rings, and wire loss — as over UDP.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dodo/internal/bulk"
	"dodo/internal/core"
	"dodo/internal/imd"
	"dodo/internal/manager"
	"dodo/internal/simnet"
	"dodo/internal/usocket"
)

// unetNode binds one U-Net endpoint on the segment.
func unetNode(t *testing.T, seg *usocket.Segment, mac string) *usocket.UNet {
	t.Helper()
	sock, err := seg.Socket(256, 256)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := usocket.Aton(mac)
	if err != nil {
		t.Fatal(err)
	}
	if err := sock.Bind(addr); err != nil {
		t.Fatal(err)
	}
	tr, err := usocket.NewTransport(sock)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func unetStack(t *testing.T, wire simnet.Faults) (*manager.Manager, []*imd.Daemon, *core.Client) {
	t.Helper()
	seg := usocket.NewSegment()
	seg.SetFaults(wire)
	ep := bulk.Config{
		CallTimeout:   150 * time.Millisecond,
		CallRetries:   6,
		WindowTimeout: 80 * time.Millisecond,
		NackDelay:     30 * time.Millisecond,
		RecvWindow:    64,
	}
	mgr := manager.New(unetNode(t, seg, "00:00:00:00:00:01"), manager.Config{
		KeepAliveInterval: 300 * time.Millisecond,
		Endpoint:          ep,
	})
	t.Cleanup(func() { mgr.Close() })

	var daemons []*imd.Daemon
	for i := 0; i < 2; i++ {
		mac := fmt.Sprintf("00:00:00:00:01:%02d", i)
		d := imd.New(unetNode(t, seg, mac), imd.Config{
			ManagerAddr:    mgr.Addr(),
			PoolSize:       1 << 20,
			Epoch:          1,
			StatusInterval: 200 * time.Millisecond,
			Endpoint:       ep,
		})
		t.Cleanup(func() { d.Close() })
		daemons = append(daemons, d)
	}
	cli := core.New(unetNode(t, seg, "00:00:00:00:02:01"), core.Config{
		ManagerAddr: mgr.Addr(),
		ClientID:    1,
		Endpoint:    ep,
	})
	t.Cleanup(func() { cli.Close() })

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && mgr.Stats().IdleHosts < 2 {
		time.Sleep(20 * time.Millisecond)
	}
	if mgr.Stats().IdleHosts != 2 {
		t.Fatalf("manager over U-Net sees %d hosts, want 2", mgr.Stats().IdleHosts)
	}
	return mgr, daemons, cli
}

func TestFullStackOverUNet(t *testing.T) {
	_, _, cli := unetStack(t, simnet.Faults{})
	back := NewMemBacking(1, 1<<20)
	// 100 KB region: ~70 U-Net frames per transfer, multiple blast
	// windows.
	fd, err := cli.Mopen(100<<10, back, 0)
	if err != nil {
		t.Fatalf("Mopen over U-Net: %v", err)
	}
	data := make([]byte, 100<<10)
	rand.New(rand.NewSource(1)).Read(data)
	if n, err := cli.Mwrite(fd, 0, data); err != nil || n != len(data) {
		t.Fatalf("Mwrite = %d, %v", n, err)
	}
	got := make([]byte, len(data))
	if n, err := cli.Mread(fd, 0, got); err != nil || n != len(data) {
		t.Fatalf("Mread = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("U-Net round trip corrupted data")
	}
	if err := cli.Mclose(fd); err != nil {
		t.Fatal(err)
	}
}

func TestFullStackOverLossyUNet(t *testing.T) {
	// Lose one frame in forty on the wire: the bulk protocol's selective
	// NACKs and the control protocol's retries must still deliver
	// correct data end to end.
	_, _, cli := unetStack(t, simnet.Faults{LossRate: 1.0 / 40, Seed: 40})
	back := NewMemBacking(2, 1<<20)
	fd, err := cli.Mopen(64<<10, back, 0)
	if err != nil {
		t.Fatalf("Mopen over lossy U-Net: %v", err)
	}
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(2)).Read(data)
	if _, err := cli.Mwrite(fd, 0, data); err != nil {
		t.Fatalf("Mwrite through loss: %v", err)
	}
	got := make([]byte, len(data))
	n, err := cli.Mread(fd, 0, got)
	if err != nil || n != len(data) {
		t.Fatalf("Mread through loss = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("lossy U-Net corrupted data")
	}
}

func TestUNetReceiveRingOverflowRecovers(t *testing.T) {
	// A tiny receive ring forces overflow drops during blasts; the
	// window negotiation plus NACK recovery must still complete the
	// transfer. This is exactly the failure mode U-Net's bounded
	// endpoint queues create and §4.4's negotiation exists for.
	seg := usocket.NewSegment()
	ep := bulk.Config{
		CallTimeout:   150 * time.Millisecond,
		CallRetries:   6,
		WindowTimeout: 80 * time.Millisecond,
		NackDelay:     30 * time.Millisecond,
		// Advertise fewer packets than the ring holds: honest
		// negotiation.
		RecvWindow:      16,
		TransferRetries: 20,
	}
	mkNode := func(mac string, ring int) *usocket.UNet {
		sock, err := seg.Socket(64, ring)
		if err != nil {
			t.Fatal(err)
		}
		addr, _ := usocket.Aton(mac)
		if err := sock.Bind(addr); err != nil {
			t.Fatal(err)
		}
		tr, err := usocket.NewTransport(sock)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	snd := bulk.NewEndpoint(mkNode("00:00:00:00:00:0a", 64), ep, nil)
	rcv := bulk.NewEndpoint(mkNode("00:00:00:00:00:0b", 24), ep, nil)
	t.Cleanup(func() { snd.Close(); rcv.Close() })

	data := make([]byte, 96<<10)
	rand.New(rand.NewSource(3)).Read(data)
	id := snd.NextTransferID()
	done := make(chan error, 1)
	var got []byte
	go func() {
		var err error
		got, err = rcv.RecvBulk(snd.LocalAddr(), id, 60*time.Second)
		done <- err
	}()
	if err := snd.SendBulk(rcv.LocalAddr(), id, data); err != nil {
		t.Fatalf("SendBulk through ring overflow: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("RecvBulk: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("ring-overflow transfer corrupted data")
	}
}
