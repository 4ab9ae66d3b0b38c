package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dodo/internal/imd"
	"dodo/internal/manager"
	"dodo/internal/usocket"
	"dodo/internal/wire"
)

// outageStack is a deployment whose manager can be crashed and
// restarted under a new incarnation, exercising the client's
// manager-outage mode.
type outageStack struct {
	seg *usocket.Segment
	d   *imd.Daemon
	cli *Client
	// ct counts the frames crossing the client's transport.
	ct *countingTransport
}

func newOutageStack(t *testing.T, firstInc uint64) (*outageStack, *manager.Manager) {
	t.Helper()
	seg := usocket.NewSegment()
	mgr := manager.New(host(t, seg, "cmd"), outageMgrConfig(firstInc))
	// StatusInterval is shorter than the manager's RebuildGrace, so the
	// imd re-reports inside the rebuild window, and long enough that the
	// client's revalidation lands between that re-report and the next
	// periodic announce.
	d := imd.New(host(t, seg, "imd0"), imd.Config{
		ManagerAddr:    seg.Addr("cmd"),
		PoolSize:       1 << 20,
		Epoch:          1,
		StatusInterval: 200 * time.Millisecond,
		Endpoint:       fastEp(),
	})
	ct := &countingTransport{Transport: host(t, seg, "client")}
	cli := New(ct, Config{
		ManagerAddr: seg.Addr("cmd"),
		ClientID:    1,
		// The outage window is half of this: 5s of queueing.
		RefractionPeriod: 10 * time.Second,
		RecoveryBackoff:  50 * time.Millisecond,
		Endpoint:         fastEp(),
	})
	t.Cleanup(func() { cli.Close(); d.Close() })
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && mgr.Stats().IdleHosts == 0 {
		time.Sleep(10 * time.Millisecond)
	}
	if mgr.Stats().IdleHosts != 1 {
		t.Fatal("manager never saw the imd")
	}
	return &outageStack{seg: seg, d: d, cli: cli, ct: ct}, mgr
}

func outageMgrConfig(inc uint64) manager.Config {
	return manager.Config{
		KeepAliveInterval: 100 * time.Millisecond,
		KeepAliveMisses:   5,
		Incarnation:       inc,
		RebuildGrace:      300 * time.Millisecond,
		Endpoint:          fastEp(),
	}
}

// TestMopenQueuesThroughManagerOutage: with the manager down, Mopen
// enters outage mode — it queues under capped backoff instead of
// failing — and completes transparently once a restarted manager (new
// incarnation) finishes its rebuild window. Descriptors opened against
// the dead incarnation keep serving and revalidate onto the new one.
func TestMopenQueuesThroughManagerOutage(t *testing.T) {
	s, mgr := newOutageStack(t, 1)

	back0 := NewMemBacking(100, 8<<10)
	fd0, err := s.cli.Mopen(8<<10, back0, 0)
	if err != nil {
		t.Fatalf("warm-up Mopen: %v", err)
	}
	data := bytes.Repeat([]byte{0xA5}, 8<<10)
	if n, err := s.cli.Mwrite(fd0, 0, data); err != nil || n != len(data) {
		t.Fatalf("warm-up Mwrite = %d, %v", n, err)
	}

	// Crash: the process dies, the directory dies with it.
	mgr.Close()

	type result struct {
		fd  int
		err error
	}
	back1 := NewMemBacking(101, 4<<10)
	done := make(chan result, 1)
	go func() {
		fd, err := s.cli.Mopen(4<<10, back1, 0)
		done <- result{fd, err}
	}()

	// The allocation must queue, not fail fast.
	select {
	case r := <-done:
		t.Fatalf("Mopen returned (%d, %v) while the manager was down; want outage-mode queueing", r.fd, r.err)
	case <-time.After(250 * time.Millisecond):
	}

	mgr2 := manager.New(host(t, s.seg, "cmd"), outageMgrConfig(2))
	t.Cleanup(func() { mgr2.Close() })

	var r result
	select {
	case r = <-done:
	case <-time.After(8 * time.Second):
		t.Fatal("Mopen still queued 8s after the manager restarted")
	}
	if r.err != nil || r.fd < 0 {
		t.Fatalf("queued Mopen = (%d, %v), want success after restart", r.fd, r.err)
	}
	small := bytes.Repeat([]byte{0x5A}, 4<<10)
	if n, err := s.cli.Mwrite(r.fd, 0, small); err != nil || n != len(small) {
		t.Fatalf("Mwrite on post-restart region = %d, %v", n, err)
	}

	// The pre-crash descriptor keeps serving: its bytes live on the imd,
	// which the crash never touched.
	got := make([]byte, len(data))
	if n, err := s.cli.Mread(fd0, 0, got); err != nil || n != len(data) {
		t.Fatalf("Mread on pre-crash region = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("pre-crash region served wrong bytes after the restart")
	}

	// And the client catches up to the new incarnation via keep-alives
	// or its revalidation traffic, and confirms the pre-crash mapping
	// against the rebuilt directory.
	revalidated := func() bool {
		s.cli.mu.Lock()
		defer s.cli.mu.Unlock()
		return s.cli.mgrIncarnation == 2 && !s.cli.regions[fd0].needsReval
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !revalidated() {
		time.Sleep(20 * time.Millisecond)
	}
	if !revalidated() {
		t.Fatalf("client never revalidated fd %d onto incarnation 2: %+v", fd0, s.cli.Stats())
	}

	// The revalidated mapping reads exactly as it did before the crash:
	// a multi-frame read is one eager exchange, and the imd sends no
	// offer toward the client.
	offers := &s.ct.recvd[wire.TBulkOffer]
	eager, before := s.cli.Stats().EagerReads, offers.Load()
	if n, err := s.cli.Mread(fd0, 0, got); err != nil || n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("Mread on revalidated region = %d, %v", n, err)
	}
	if st := s.cli.Stats(); st.EagerReads != eager+1 || offers.Load() != before {
		t.Fatalf("read of a revalidated region: EagerReads %d -> %d, BulkOffers from the imd %d -> %d; want +1 and +0",
			eager, st.EagerReads, before, offers.Load())
	}
}

// TestStaleManagerIncarnationFenced: a client that has seen incarnation
// N refuses responses stamped with an older incarnation (a zombie or
// delayed pre-crash instance) instead of acting on its directory, and
// its regions keep serving untouched.
func TestStaleManagerIncarnationFenced(t *testing.T) {
	s, mgr := newOutageStack(t, 2)

	back := NewMemBacking(200, 8<<10)
	fd, err := s.cli.Mopen(8<<10, back, 0)
	if err != nil {
		t.Fatalf("Mopen: %v", err)
	}
	data := bytes.Repeat([]byte{0x3C}, 8<<10)
	if n, err := s.cli.Mwrite(fd, 0, data); err != nil || n != len(data) {
		t.Fatalf("Mwrite = %d, %v", n, err)
	}
	if st := s.cli.Stats(); st.ManagerIncarnation != 2 {
		t.Fatalf("client incarnation = %d, want 2", st.ManagerIncarnation)
	}

	// Replace the live manager with a zombie running the dead
	// incarnation 1 at the same address.
	mgr.Close()
	zombie := manager.New(host(t, s.seg, "cmd"), outageMgrConfig(1))
	t.Cleanup(func() { zombie.Close() })

	// checkAlloc against the zombie is fenced client-side: error, not a
	// verdict on the region.
	if ok, err := s.cli.CheckAlloc(fd); err == nil {
		t.Fatalf("CheckAlloc against a dead incarnation = (%v, nil), want an error", ok)
	} else if !errors.Is(err, ErrNoMem) {
		t.Fatalf("CheckAlloc error = %v, want ErrNoMem", err)
	}

	// The region was not invalidated by the fenced exchange.
	got := make([]byte, len(data))
	if n, err := s.cli.Mread(fd, 0, got); err != nil || n != len(data) {
		t.Fatalf("Mread after fencing = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("region served wrong bytes after a fenced exchange")
	}
	if st := s.cli.Stats(); st.ManagerIncarnation != 2 {
		t.Fatalf("client regressed to incarnation %d", st.ManagerIncarnation)
	}
}
