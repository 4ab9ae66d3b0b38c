package bulk

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"dodo/internal/simnet"
	"dodo/internal/usocket"
)

// pattern fills a buffer with bytes that name the transfer they belong
// to and their offset in it, so that a frame delivered to the wrong
// transfer or the wrong place shows.
func pattern(n int, tag uint32) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(uint32(i)*2654435761>>24) ^ byte(tag) ^ byte(tag>>8) ^ byte(tag>>16)
	}
	return b
}

// TestTwoReceiversSameTransferID: an eager transfer's id is its
// receiver's, and two receivers that have never met both start at 1.
// One sender serving both at once must keep their acknowledgements
// apart. Keyed by id alone, the second transfer took over the first's
// response channel and removed it when it finished, and the first never
// saw an acknowledgement again. The first receiver is partitioned off
// while the second transfer runs, so that the two overlap on every run.
func TestTwoReceiversSameTransferID(t *testing.T) {
	seg := usocket.NewSegment()
	sender := NewEndpoint(host(t, seg, "imd"), fastCfg(), nil)
	recvs := []*Endpoint{NewEndpoint(host(t, seg, "c1"), fastCfg(), nil), NewEndpoint(host(t, seg, "c2"), fastCfg(), nil)}
	t.Cleanup(func() { sender.Close(); recvs[0].Close(); recvs[1].Close() })

	// transfer starts one eager transfer of a pattern of its own to r
	// and returns a function that waits for both ends and checks them.
	transfer := func(i int, r *Endpoint) (wait func()) {
		data := pattern(96<<10, uint32(i+1))
		id := r.NextTransferID()
		if id != 1 {
			t.Fatalf("receiver %d starts at transfer id %d, want 1", i, id)
		}
		dst := make([]byte, len(data))
		window, err := r.ExpectBulkInto(dst, seg.Addr("imd"), id, sender.ChunkSize())
		if err != nil {
			t.Fatal(err)
		}
		sent := make(chan error, 1)
		go func() { sent <- sender.SendBulkEager(r.LocalAddr(), id, data, sender.ChunkSize(), window) }()
		return func() {
			t.Helper()
			_, err := r.RecvBulkInto(dst, seg.Addr("imd"), id, 5*time.Second)
			if serr := <-sent; err != nil || serr != nil {
				t.Fatalf("transfer to %s: receive %v, send %v", r.LocalAddr(), err, serr)
			}
			if !bytes.Equal(dst, data) {
				t.Fatalf("%s received bytes that are not its own", r.LocalAddr())
			}
		}
	}

	seg.Partition(seg.Addr("c1"))
	waitFirst := transfer(0, recvs[0])
	for registered := 0; registered == 0; time.Sleep(time.Millisecond) {
		sender.mu.Lock()
		registered = len(sender.tx)
		sender.mu.Unlock()
	}
	transfer(1, recvs[1])()
	seg.Heal(seg.Addr("c1"))
	waitFirst()
}

// TestRecycledFramesThroughLoss: with one frame in seven lost and one in
// twenty duplicated on the segment, 200 eager 128 KB transfers of
// distinct patterns from one sender to two receivers at once deliver
// every byte. Retransmitted and duplicated packets travel in recycled
// frames like any other, so a frame given back too early, or twice,
// would show as one transfer's bytes in another. Run under -race.
func TestRecycledFramesThroughLoss(t *testing.T) {
	transfers := 200
	if testing.Short() {
		transfers = 40
	}
	cfg := Config{
		CallTimeout:     100 * time.Millisecond,
		WindowTimeout:   25 * time.Millisecond,
		NackDelay:       2 * time.Millisecond,
		TransferRetries: 40,
	}
	seg := usocket.NewSegment()
	eps := unetEndpoints(t, seg, cfg, 3)
	sender, recvs := eps[0], eps[1:]
	seg.SetFaults(simnet.Faults{LossRate: 1.0 / 7, DupRate: 0.05, Seed: 7})

	var wg sync.WaitGroup
	for ri, r := range recvs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]byte, 128<<10)
			for i := 0; i < transfers/len(recvs); i++ {
				data := pattern(len(dst), uint32(ri<<16|i))
				id := r.NextTransferID()
				window, err := r.ExpectBulkInto(dst, sender.LocalAddr(), id, sender.ChunkSize())
				if err != nil {
					t.Error(err)
					return
				}
				sent := make(chan error, 1)
				go func() { sent <- sender.SendBulkEager(r.LocalAddr(), id, data, sender.ChunkSize(), window) }()
				_, err = r.RecvBulkInto(dst, sender.LocalAddr(), id, 30*time.Second)
				if serr := <-sent; err != nil || serr != nil {
					t.Errorf("receiver %d, transfer %d: receive %v, send %v", ri, i, err, serr)
					return
				}
				if !bytes.Equal(dst, data) {
					t.Errorf("receiver %d, transfer %d: bytes of another transfer or offset", ri, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if re, _, _ := sender.Stats(); re == 0 {
		t.Error("no retransmission: the loss this test is about did not happen")
	}
}
