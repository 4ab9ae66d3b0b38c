package core

import (
	"bytes"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"dodo/internal/bulk"
	"dodo/internal/imd"
	"dodo/internal/manager"
	"dodo/internal/simnet"
	"dodo/internal/transport"
	"dodo/internal/usocket"
	"dodo/internal/wire"
)

// countingTransport wraps a transport and counts datagrams in each
// direction, in all and by the type byte of their header (so that a
// reserved type no decoder takes is counted too). It deliberately does
// NOT implement transport.VecSender, so every frame the client emits
// passes through Send exactly once.
type countingTransport struct {
	transport.Transport
	sends, recvs atomic.Int64
	sent, recvd  [256]atomic.Int64
}

// frameType is a frame's type byte, or 0 for one too short to have one.
func frameType(frame []byte) byte {
	if len(frame) < wire.HeaderSize {
		return 0
	}
	return frame[3]
}

func (t *countingTransport) Send(to string, data []byte) error {
	t.sends.Add(1)
	t.sent[frameType(data)].Add(1)
	return t.Transport.Send(to, data)
}

func (t *countingTransport) Recv(timeout time.Duration) ([]byte, string, error) {
	data, from, err := t.Transport.Recv(timeout)
	if err == nil {
		t.recvs.Add(1)
		t.recvd[frameType(data)].Add(1)
	}
	return data, from, err
}

// snapshot copies the per-type counts.
func (t *countingTransport) snapshot() (sent, recvd [256]int64) {
	for i := range sent {
		sent[i], recvd[i] = t.sent[i].Load(), t.recvd[i].Load()
	}
	return sent, recvd
}

// quietStack is newStack with background chatter stretched out to tens
// of seconds (keep-alives, status announces), so that after setup the
// only frames crossing the client's transport are the ones the test
// provokes. The client's transport is wrapped in a frame counter.
func quietStack(t testing.TB, mut func(*Config)) (*stack, *countingTransport) {
	t.Helper()
	seg := usocket.NewSegment()
	mgr := manager.New(host(t, seg, "cmd"), manager.Config{
		KeepAliveInterval: 10 * time.Second,
		KeepAliveMisses:   3,
		Endpoint:          fastEp(),
	})
	s := &stack{seg: seg, mgr: mgr}
	d := imd.New(host(t, seg, "imd0"), imd.Config{
		ManagerAddr:    seg.Addr("cmd"),
		PoolSize:       1 << 20,
		Epoch:          1,
		StatusInterval: 10 * time.Second,
		Endpoint:       fastEp(),
	})
	s.imds = append(s.imds, d)
	ct := &countingTransport{Transport: host(t, seg, "client")}
	cfg := Config{
		ManagerAddr:      seg.Addr("cmd"),
		ClientID:         1,
		RefractionPeriod: 300 * time.Millisecond,
		Endpoint:         fastEp(),
	}
	if mut != nil {
		mut(&cfg)
	}
	s.cli = New(ct, cfg)
	t.Cleanup(func() {
		s.cli.Close()
		d.Close()
		mgr.Close()
	})
	return s, ct
}

// mopenRetry retries Mopen until the imd's startup announce has reached
// the manager (stacks with long status intervals announce exactly once,
// and the client may dial in before that announce lands).
func mopenRetry(t testing.TB, cli *Client, length int64, back Backing, off int64) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		fd, err := cli.Mopen(length, back, off)
		if err == nil {
			return fd
		}
		if time.Now().After(deadline) {
			t.Fatalf("Mopen never succeeded: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSmallReadSingleExchange pins the inline response shape at the
// transport level: a sub-MTU Mread must cost exactly one request frame
// out and one response frame in — no bulk offer, no done handshake.
func TestSmallReadSingleExchange(t *testing.T) {
	s, ct := quietStack(t, nil)
	back := NewMemBacking(7, 16<<10)
	fd := mopenRetry(t, s.cli, 16<<10, back, 0)
	data := make([]byte, 16<<10)
	rand.New(rand.NewSource(5)).Read(data)
	if n, err := s.cli.Mwrite(fd, 0, data); err != nil || n != len(data) {
		t.Fatalf("Mwrite = %d, %v", n, err)
	}
	buf := make([]byte, 512)
	if _, err := s.cli.Mread(fd, 0, buf); err != nil {
		t.Fatalf("warm Mread: %v", err)
	}
	// Let any trailing frames from the write transfer settle, then
	// snapshot the counters around one small read.
	time.Sleep(400 * time.Millisecond)
	sends, recvs := ct.sends.Load(), ct.recvs.Load()
	n, err := s.cli.Mread(fd, 1024, buf)
	if err != nil || n != 512 {
		t.Fatalf("Mread = %d, %v", n, err)
	}
	if !bytes.Equal(buf, data[1024:1536]) {
		t.Fatal("inline read returned wrong bytes")
	}
	dSends, dRecvs := ct.sends.Load()-sends, ct.recvs.Load()-recvs
	if dSends != 1 || dRecvs != 1 {
		t.Fatalf("sub-MTU Mread cost %d sends + %d recvs, want exactly 1 + 1", dSends, dRecvs)
	}
	if st := s.cli.Stats(); st.InlineReads < 2 {
		t.Fatalf("InlineReads = %d, want >= 2", st.InlineReads)
	}
}

// TestSmallWriteSingleExchange pins the one-frame push at the
// transport level: an Mwrite that fits a frame costs one WriteReq out
// and one DataResp in, and one byte more costs a push and then the
// WriteReq, with no answer to the offer.
func TestSmallWriteSingleExchange(t *testing.T) {
	s, ct := quietStack(t, nil)
	limit := wire.InlineWriteLimit(usocket.MTU)
	back := NewMemBacking(7, 16<<10)
	fd := mopenRetry(t, s.cli, 16<<10, back, 0)
	data := make([]byte, limit+1)
	rand.New(rand.NewSource(6)).Read(data)

	sends, recvs := ct.sends.Load(), ct.recvs.Load()
	if n, err := s.cli.Mwrite(fd, 256, data[:limit]); err != nil || n != limit {
		t.Fatalf("Mwrite = %d, %v", n, err)
	}
	dSends, dRecvs := ct.sends.Load()-sends, ct.recvs.Load()-recvs
	if dSends != 1 || dRecvs != 1 {
		t.Fatalf("Mwrite of InlineWriteLimit bytes cost %d sends + %d recvs, want exactly 1 + 1", dSends, dRecvs)
	}
	if st := s.cli.Stats(); st.InlineWrites != 1 || st.RemoteWrites != 1 {
		t.Fatalf("InlineWrites = %d of %d remote writes, want 1 of 1", st.InlineWrites, st.RemoteWrites)
	}
	if ds := s.imds[0].Stats(); ds.Writes != 1 || ds.WriteBytes != int64(limit) {
		t.Fatalf("imd applied %d writes, %d bytes; want 1 and %d", ds.Writes, ds.WriteBytes, limit)
	}

	// One byte more is pushed first: one offer and the data frames, no
	// answer until the imd has every byte, then the WriteReq naming the
	// transfer.
	sent0, recvd0 := ct.snapshot()
	sends, recvs = ct.sends.Load(), ct.recvs.Load()
	if n, err := s.cli.Mwrite(fd, 256, data); err != nil || n != limit+1 {
		t.Fatalf("Mwrite one byte over the limit = %d, %v", n, err)
	}
	sent1, recvd1 := ct.snapshot()
	frames := (len(data) + s.cli.ep.ChunkSize() - 1) / s.cli.ep.ChunkSize()
	for _, c := range []struct {
		what      string
		got, want int64
	}{
		{"BulkOffer sent", sent1[wire.TBulkOffer] - sent0[wire.TBulkOffer], 1},
		{"BulkData sent", sent1[wire.TBulkData] - sent0[wire.TBulkData], int64(frames)},
		{"WriteReq sent", sent1[wire.TWriteReq] - sent0[wire.TWriteReq], 1},
		{"frames sent", ct.sends.Load() - sends, int64(frames) + 2},
		{"BulkAccept received", recvd1[wire.TBulkAccept] - recvd0[wire.TBulkAccept], 0},
		{"BulkDone received", recvd1[wire.TBulkDone] - recvd0[wire.TBulkDone], 1},
		{"DataResp received", recvd1[wire.TDataResp] - recvd0[wire.TDataResp], 1},
		{"frames received", ct.recvs.Load() - recvs, 2},
	} {
		if c.got != c.want {
			t.Errorf("Mwrite one byte over the limit: %s = %d, want %d", c.what, c.got, c.want)
		}
	}
	if st := s.cli.Stats(); st.InlineWrites != 1 || st.RemoteWrites != 2 {
		t.Fatalf("InlineWrites = %d of %d remote writes, want 1 of 2", st.InlineWrites, st.RemoteWrites)
	}
	buf := make([]byte, limit+1)
	if _, err := s.cli.Mread(fd, 256, buf); err != nil || !bytes.Equal(buf, data) {
		t.Fatalf("Mread after both writes returned wrong bytes (%v)", err)
	}
	disk := make([]byte, limit+1)
	if _, err := back.ReadAt(disk, 256); err != nil || !bytes.Equal(disk, data) {
		t.Fatalf("backing file after both writes holds wrong bytes (%v)", err)
	}
}

// TestReadFastPathStats: small reads come back inline, large reads as
// an eager transfer, and both return the written bytes.
func TestReadFastPathStats(t *testing.T) {
	s, _ := quietStack(t, nil)
	back := NewMemBacking(8, 256<<10)
	fd := mopenRetry(t, s.cli, 256<<10, back, 0)
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(6)).Read(data)
	if n, err := s.cli.Mwrite(fd, 0, data); err != nil || n != len(data) {
		t.Fatalf("Mwrite = %d, %v", n, err)
	}
	small := make([]byte, 1024)
	if n, err := s.cli.Mread(fd, 4096, small); err != nil || n != 1024 {
		t.Fatalf("small Mread = %d, %v", n, err)
	}
	if !bytes.Equal(small, data[4096:5120]) {
		t.Fatal("small read returned wrong bytes")
	}
	large := make([]byte, 256<<10)
	if n, err := s.cli.Mread(fd, 0, large); err != nil || n != len(large) {
		t.Fatalf("large Mread = %d, %v", n, err)
	}
	if !bytes.Equal(large, data) {
		t.Fatal("large read returned wrong bytes")
	}
	st := s.cli.Stats()
	if st.InlineReads == 0 {
		t.Fatalf("InlineReads = 0 after a sub-MTU read; stats %+v", st)
	}
	if st.EagerReads == 0 {
		t.Fatalf("EagerReads = 0 after a multi-window read; stats %+v", st)
	}
}

// lossyEp is fastEp for a link that loses a third of its frames: more
// call retries, quicker loss recovery, and a window of a whole ring,
// which at this loss never fills.
func lossyEp() bulk.Config {
	c := fastEp()
	c.CallRetries = 8
	c.NackDelay = 10 * time.Millisecond
	c.WindowTimeout = 40 * time.Millisecond
	c.RecvWindow = usocket.HostRing
	return c
}

// TestMreadFastPathUnderLoss: the eager fast path over a 35%-loss link
// must degrade to selective-NACK recovery and still deliver
// byte-identical data end to end. Setup calls (open, write) may fail
// outright under this much loss — those retry; reads that complete must
// be correct.
func TestMreadFastPathUnderLoss(t *testing.T) {
	seg := usocket.NewSegment()
	seg.SetFaults(simnet.Faults{LossRate: 0.35, Seed: 42})
	mgr := manager.New(host(t, seg, "cmd"), manager.Config{
		KeepAliveInterval: 250 * time.Millisecond,
		KeepAliveMisses:   200,
		Endpoint:          lossyEp(),
	})
	d := imd.New(host(t, seg, "imd0"), imd.Config{
		ManagerAddr:    seg.Addr("cmd"),
		PoolSize:       1 << 20,
		Epoch:          1,
		StatusInterval: 100 * time.Millisecond,
		Endpoint:       lossyEp(),
	})
	cli := New(host(t, seg, "client"), Config{
		ManagerAddr:      seg.Addr("cmd"),
		ClientID:         1,
		RefractionPeriod: 50 * time.Millisecond,
		Endpoint:         lossyEp(),
	})
	t.Cleanup(func() {
		cli.Close()
		d.Close()
		mgr.Close()
	})
	data := make([]byte, 96<<10)
	rand.New(rand.NewSource(13)).Read(data)
	back := NewMemBacking(60, len(data))
	got := make([]byte, len(data))
	reads, fd := 0, -1
	deadline := time.Now().Add(60 * time.Second)
	for reads < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/3 lossy reads completed before the deadline", reads)
		}
		if fd < 0 {
			f, err := cli.Mopen(int64(len(data)), back, 0)
			if err != nil {
				time.Sleep(50 * time.Millisecond)
				continue
			}
			if _, err := cli.Mwrite(f, 0, data); err != nil {
				// The write dropped the host; reopen and try again.
				continue
			}
			fd = f
		}
		n2, err := cli.Mread(fd, 0, got)
		if err != nil {
			fd = -1
			continue
		}
		if n2 != len(data) || !bytes.Equal(got, data) {
			t.Fatalf("lossy read %d delivered %d bytes, equal=%v", reads, n2, bytes.Equal(got, data))
		}
		reads++
	}
	if st := cli.Stats(); st.EagerReads == 0 {
		t.Fatalf("EagerReads = 0 after lossy multi-window reads; stats %+v", st)
	}
}

// BenchmarkSmallRead measures one 1 KB remote read through a full
// in-process stack: one ReadReq out, the bytes back inline in the
// DataResp.
func BenchmarkSmallRead(b *testing.B) {
	s, _ := quietStack(b, nil)
	back := NewMemBacking(70, 64<<10)
	fd := mopenRetry(b, s.cli, 64<<10, back, 0)
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(21)).Read(data)
	if _, err := s.cli.Mwrite(fd, 0, data); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.cli.Mread(fd, int64(i%63)<<10, buf); err != nil {
			b.Fatal(err)
		}
	}
}
