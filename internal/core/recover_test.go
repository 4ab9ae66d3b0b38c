package core

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dodo/internal/bulk"
	"dodo/internal/imd"
	"dodo/internal/manager"
	"dodo/internal/simnet"
	"dodo/internal/usocket"
	"dodo/internal/wire"
)

// TestRogueResponderDegradesToNoMem: a misrouted or malformed response
// on the data path must surface as ErrNoMem (degrade to the backing
// file), never as a nil-pointer panic. The fake manager hands out a
// region on a host whose daemon answers reads and writes with the wrong
// message type.
func TestRogueResponderDegradesToNoMem(t *testing.T) {
	seg := usocket.NewSegment()
	mgrEp := bulk.NewEndpoint(host(t, seg, "cmd"), fastEp(), func(from string, msg wire.Message) wire.Message {
		switch req := msg.(type) {
		case *wire.AllocReq:
			return &wire.AllocResp{Status: wire.StatusOK, Region: wire.Region{
				HostAddr: seg.Addr("rogue"), RegionID: 7, Length: req.Length, Epoch: 1,
			}}
		case *wire.FreeReq:
			return &wire.FreeResp{Status: wire.StatusOK}
		}
		return nil
	})
	defer mgrEp.Close()
	rogueEp := bulk.NewEndpoint(host(t, seg, "rogue"), fastEp(), func(from string, msg wire.Message) wire.Message {
		switch msg.(type) {
		case *wire.ReadReq, *wire.WriteReq:
			return &wire.FreeResp{Status: wire.StatusOK} // wrong type on purpose
		}
		return nil
	})
	defer rogueEp.Close()

	cli := New(host(t, seg, "client"), Config{
		ManagerAddr: seg.Addr("cmd"), ClientID: 1, RefractionPeriod: 100 * time.Millisecond,
		DisableRecovery: true, Endpoint: fastEp(),
	})
	defer cli.Close()

	back := NewMemBacking(40, 1<<20)
	fd, err := cli.Mopen(4096, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if _, err := cli.Mread(fd, 0, buf); !errors.Is(err, ErrNoMem) {
		t.Fatalf("Mread from rogue host = %v, want ErrNoMem", err)
	}
	if cli.RegionValid(fd) {
		t.Fatal("descriptor still valid after a rogue response")
	}
	// The write path hits the same decode guard.
	fd2, err := cli.Mopen(4096, back, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Mwrite(fd2, 0, make([]byte, 4096)); !errors.Is(err, ErrNoMem) {
		t.Fatalf("Mwrite to rogue host = %v, want ErrNoMem", err)
	}
}

// TestCrashedIMDMidWorkloadFallsBack: an imd that dies without draining
// (kill -9 semantics) turns reads into ErrNoMem — the caller's signal to
// fall back to the backing file — and drops the host's descriptors.
func TestCrashedIMDMidWorkloadFallsBack(t *testing.T) {
	s := newStack(t, 1, 1<<20, shortCalls)
	back := NewMemBacking(41, 1<<20)
	fd, err := s.cli.Mopen(8192, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5a}, 8192)
	if _, err := s.cli.Mwrite(fd, 0, payload); err != nil {
		t.Fatal(err)
	}
	s.imds[0].Crash()
	buf := make([]byte, 8192)
	if _, err := s.cli.Mread(fd, 0, buf); !errors.Is(err, ErrNoMem) {
		t.Fatalf("Mread after imd crash = %v, want ErrNoMem", err)
	}
	if s.cli.RegionValid(fd) {
		t.Fatal("descriptor still valid after crash-induced drop")
	}
	if s.cli.Stats().DropEvents == 0 {
		t.Fatal("DropEvents = 0 after a crashed-host read")
	}
	// The write-through copy still serves the data.
	if !bytes.Equal(back.Bytes()[:8192], payload) {
		t.Fatal("backing file does not hold the written data")
	}
}

// TestCheckAllocDropKicksRecovery: a CheckAlloc that finds a valid
// descriptor's row gone drops the descriptor itself, and no host drop
// kicks the recovery loop for it. When the re-open it tries at once
// fails (the only imd is draining), the loop must still be woken, so
// the descriptor comes back once a second imd joins.
func TestCheckAllocDropKicksRecovery(t *testing.T) {
	s := newStack(t, 1, 1<<20)
	back := NewMemBacking(43, 1<<20)
	fd, err := s.cli.Mopen(4096, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.imds[0].Drain()
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if ok, err := s.cli.CheckAlloc(fd); err == nil && !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("CheckAlloc never reported the drained host's region stale")
		}
	}
	if st := s.cli.Stats(); st.DropEvents != 0 || st.Reopens != 0 {
		t.Fatalf("before a second imd: %d drop events, %d reopens; want 0 and 0", st.DropEvents, st.Reopens)
	}
	d := imd.New(host(t, s.seg, "imd1"), imd.Config{
		ManagerAddr: s.seg.Addr("cmd"), PoolSize: 1 << 20, Epoch: 1,
		StatusInterval: 100 * time.Millisecond, Endpoint: fastEp(),
	})
	t.Cleanup(func() { d.Close() })
	// The loop's backoff starts at RefractionPeriod/8 and is capped at
	// the refraction period (300 ms): a few periods are plenty.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && !s.cli.RegionValid(fd) {
		time.Sleep(20 * time.Millisecond)
	}
	if !s.cli.RegionValid(fd) {
		t.Fatalf("descriptor still invalid 3 s after a second imd joined; stats %+v", s.cli.Stats())
	}
	if st := s.cli.Stats(); st.Reopens < 1 {
		t.Fatalf("Reopens = %d, want at least 1; stats %+v", st.Reopens, st)
	}
}

// TestRecoveryReopensAfterCrashRestart: the background recovery loop
// turns a crash/restart pair into a transparent re-open — the descriptor
// becomes valid again, repopulated from the backing file, with no Mopen
// from the application.
func TestRecoveryReopensAfterCrashRestart(t *testing.T) {
	s := newStack(t, 1, 1<<20, shortCalls)
	back := NewMemBacking(42, 1<<20)
	fd, err := s.cli.Mopen(8192, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 8192)
	rand.New(rand.NewSource(7)).Read(payload)
	if _, err := s.cli.Mwrite(fd, 0, payload); err != nil {
		t.Fatal(err)
	}

	s.imds[0].Crash()
	buf := make([]byte, 8192)
	if _, err := s.cli.Mread(fd, 0, buf); !errors.Is(err, ErrNoMem) {
		t.Fatalf("Mread after crash = %v, want ErrNoMem", err)
	}

	// The workstation restarts with a bumped epoch (same address). The
	// manager's IWD entry is refreshed by the new status report, the
	// recovery pass sees the epoch mismatch via checkAlloc, re-allocates,
	// and repopulates from the backing file.
	d2 := imd.New(host(t, s.seg, "imd0"), imd.Config{
		ManagerAddr: s.seg.Addr("cmd"), PoolSize: 1 << 20, Epoch: 2,
		StatusInterval: 100 * time.Millisecond, Endpoint: fastEp(),
	})
	t.Cleanup(func() { d2.Close() })

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && !s.cli.RegionValid(fd) {
		time.Sleep(20 * time.Millisecond)
	}
	if !s.cli.RegionValid(fd) {
		t.Fatalf("descriptor never recovered after restart; stats %+v", s.cli.Stats())
	}
	st := s.cli.Stats()
	if st.Reopens == 0 {
		t.Fatalf("Reopens = 0 after a recovered crash; stats %+v", st)
	}
	if st.Revalidations == 0 {
		t.Fatalf("Revalidations = 0 after a recovered crash; stats %+v", st)
	}
	n, err := s.cli.Mread(fd, 0, buf)
	if err != nil || n != len(payload) {
		t.Fatalf("Mread after recovery = %d, %v", n, err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("recovered region holds different bytes than the backing file")
	}
}

// TestDuplicateMopenAliasesOneRegion: two Mopens of the same
// (inode, offset) yield two descriptors aliasing one RD entry; the first
// Mclose must leave the region alive and the second must succeed.
func TestDuplicateMopenAliasesOneRegion(t *testing.T) {
	s := newStack(t, 1, 1<<20)
	back := NewMemBacking(43, 1<<20)
	fd1, err := s.cli.Mopen(4096, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	fd2, err := s.cli.Mopen(4096, back, 0)
	if err != nil {
		t.Fatalf("duplicate Mopen: %v", err)
	}
	if fd1 == fd2 {
		t.Fatalf("duplicate Mopen returned the same descriptor %d", fd1)
	}
	if got := s.mgr.Stats().Regions; got != 1 {
		t.Fatalf("manager regions = %d, want 1 shared entry", got)
	}
	// The descriptors alias the same region.
	payload := bytes.Repeat([]byte{0xc3}, 4096)
	if _, err := s.cli.Mwrite(fd1, 0, payload); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if _, err := s.cli.Mread(fd2, 0, buf); err != nil || !bytes.Equal(buf, payload) {
		t.Fatalf("alias read = %v; bytes equal %v", err, bytes.Equal(buf, payload))
	}
	// First close: region stays alive for the surviving alias.
	if err := s.cli.Mclose(fd1); err != nil {
		t.Fatalf("first Mclose: %v", err)
	}
	if _, err := s.cli.Mread(fd2, 0, buf); err != nil {
		t.Fatalf("alias read after first close: %v", err)
	}
	if got := s.mgr.Stats().Regions; got != 1 {
		t.Fatalf("manager regions = %d after first close, want 1", got)
	}
	// Last close frees the RD entry; it must not report "already freed".
	if err := s.cli.Mclose(fd2); err != nil {
		t.Fatalf("second Mclose: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s.mgr.Stats().Regions == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("manager regions = %d after last close, want 0", s.mgr.Stats().Regions)
}

// TestWriteSeqSurvivesFailedFree: an Mclose whose free never reaches
// the manager leaves the RD entry — and the imd region behind it, write
// gate included — alive, and a later Mopen of the same key re-attaches
// to them via the manager's duplicate-allocation path. The client must
// keep its write-sequence counter across that cycle: restarting it
// would make every post-reopen write look superseded to the imd, which
// would confirm the writes without applying them and freeze the remote
// copy at stale bytes.
func TestWriteSeqSurvivesFailedFree(t *testing.T) {
	seg := usocket.NewSegment()
	mgr := manager.New(host(t, seg, "cmd"), manager.Config{
		KeepAliveInterval: 200 * time.Millisecond,
		// The manager goes dark for the length of Mclose's retry budget;
		// that window must not read as a dead client, or the eviction
		// path frees the region for real and hides the re-attach.
		KeepAliveMisses: 50,
		Endpoint:        fastEp(),
	})
	d := imd.New(host(t, seg, "imd0"), imd.Config{
		ManagerAddr: seg.Addr("cmd"), PoolSize: 1 << 20, Epoch: 1,
		StatusInterval: 100 * time.Millisecond, Endpoint: fastEp(),
	})
	cli := New(host(t, seg, "client"), Config{
		ManagerAddr: seg.Addr("cmd"), ClientID: 1, RefractionPeriod: 300 * time.Millisecond,
		Endpoint: fastEp(),
	})
	t.Cleanup(func() {
		cli.Close()
		d.Close()
		mgr.Close()
	})

	back := NewMemBacking(45, 1<<20)
	fd, err := cli.Mopen(8192, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte{0x11}, 8192)
	if _, err := cli.Mwrite(fd, 0, old); err != nil {
		t.Fatal(err)
	}

	// The manager goes dark: the free is lost, and both the RD entry
	// and the imd region (with its write gate) survive the close.
	seg.SetEndpointFaults(seg.Addr("cmd"), simnet.Faults{LossRate: 1})
	if err := cli.Mclose(fd); err == nil {
		t.Fatal("Mclose with an unreachable manager reported success")
	}
	seg.ClearEndpointFaults(seg.Addr("cmd"))

	// Re-open the same key: the duplicate path hands back the region
	// that already saw the first incarnation's writes.
	fd2, err := cli.Mopen(8192, back, 0)
	if err != nil {
		t.Fatalf("re-open after failed free: %v", err)
	}
	cur := bytes.Repeat([]byte{0x22}, 8192)
	if _, err := cli.Mwrite(fd2, 0, cur); err != nil {
		t.Fatalf("write after re-attach: %v", err)
	}
	buf := make([]byte, 8192)
	if _, err := cli.Mread(fd2, 0, buf); err != nil {
		t.Fatalf("read after re-attach: %v", err)
	}
	if !bytes.Equal(buf, cur) {
		t.Fatalf("remote region frozen at stale bytes: got 0x%02x, want 0x%02x", buf[0], cur[0])
	}
}

// TestZeroLengthMwriteShortCircuits: a write whose span within the
// region is empty returns immediately — no disk goroutine, no remote
// transfer.
func TestZeroLengthMwriteShortCircuits(t *testing.T) {
	s := newStack(t, 1, 1<<20)
	back := NewMemBacking(44, 1<<20)
	fd, err := s.cli.Mopen(4096, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.cli.Mwrite(fd, 0, nil); n != 0 || err != nil {
		t.Fatalf("Mwrite(nil) = %d, %v; want 0, nil", n, err)
	}
	// Offset at the region tail: nothing to write, not an error.
	if n, err := s.cli.Mwrite(fd, 4096, []byte("past-the-end")); n != 0 || err != nil {
		t.Fatalf("Mwrite at tail = %d, %v; want 0, nil", n, err)
	}
	st := s.cli.Stats()
	if st.RemoteWrites != 0 || st.RemoteWriteBytes != 0 {
		t.Fatalf("zero-length Mwrite reached the remote host: %+v", st)
	}
	for _, b := range back.Bytes()[:4096] {
		if b != 0 {
			t.Fatal("zero-length Mwrite touched the backing file")
		}
	}
}

// TestHandoffAdoptionBlockedByDiskOnlyWrites: a graceful drain repoints
// the region to a Fresh handoff copy, but the client only learns about
// the drain from a failed read (which bumps no write sequence). If the
// app then goes disk-only — the documented ErrNoMem fallback — the
// handoff copy is behind the backing file even though the write-seq
// gate is settled. Recovery must refuse to adopt the Fresh copy and
// repopulate it from disk instead.
func TestHandoffAdoptionBlockedByDiskOnlyWrites(t *testing.T) {
	seg := usocket.NewSegment()
	mgr := manager.New(host(t, seg, "cmd"), manager.Config{
		KeepAliveInterval: 200 * time.Millisecond,
		KeepAliveMisses:   8,
		HandoffGrace:      10 * time.Second,
		Endpoint:          fastEp(),
	})
	var imds []*imd.Daemon
	for i := 0; i < 2; i++ {
		imds = append(imds, imd.New(host(t, seg, "imd"+string(rune('0'+i))), imd.Config{
			ManagerAddr: seg.Addr("cmd"), PoolSize: 1 << 20, Epoch: uint64(i + 1),
			StatusInterval: 100 * time.Millisecond,
			GraceWindow:    2 * time.Second,
			Endpoint:       fastEp(),
		}))
	}
	cli := New(host(t, seg, "client"), Config{
		ManagerAddr: seg.Addr("cmd"), ClientID: 1,
		RefractionPeriod: 2 * time.Second,
		RecoveryBackoff:  250 * time.Millisecond,
		Endpoint:         shortCallEp(),
	})
	t.Cleanup(func() {
		cli.Close()
		for _, d := range imds {
			d.Close()
		}
		mgr.Close()
	})
	deadline := time.Now().Add(5 * time.Second)
	for mgr.Stats().IdleHosts != 2 {
		if time.Now().After(deadline) {
			t.Fatal("imds never registered")
		}
		time.Sleep(20 * time.Millisecond)
	}

	back := NewMemBacking(90, 1<<20)
	fd, err := cli.Mopen(8192, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte{0xaa}, 8192)
	if _, err := cli.Mwrite(fd, 0, old); err != nil {
		t.Fatal(err)
	}

	// Drain whichever imd holds the region; its handoff pushes the old
	// payload to the peer and the manager repoints the RD row Fresh.
	host, ok := cli.RegionHost(fd)
	if !ok {
		t.Fatal("no region host")
	}
	var victim *imd.Daemon
	for _, d := range imds {
		if d.Addr() == host {
			victim = d
		}
	}
	victim.Drain()

	// The client finds out the hard way: a read against the torn-down
	// host fails and drops the descriptor without bumping any sequence.
	buf := make([]byte, 8192)
	if _, err := cli.Mread(fd, 0, buf); !errors.Is(err, ErrNoMem) {
		t.Fatalf("Mread after drain = %v, want ErrNoMem", err)
	}
	// The app retries the write, is told the region can't take it, and
	// goes disk-only — exactly what the ErrNoMem contract prescribes.
	if _, err := cli.Mwrite(fd, 0, bytes.Repeat([]byte{0xbb}, 8192)); !errors.Is(err, ErrNoMem) {
		t.Fatalf("Mwrite after drop = %v, want ErrNoMem", err)
	}
	fresh := bytes.Repeat([]byte{0xbb}, 8192)
	if _, err := back.WriteAt(fresh, 0); err != nil {
		t.Fatal(err)
	}

	// Recovery must repopulate from the backing file, not adopt the
	// stale-but-Fresh handoff copy.
	deadline = time.Now().Add(15 * time.Second)
	for !cli.RegionValid(fd) {
		if time.Now().After(deadline) {
			t.Fatal("region never recovered")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := cli.Stats().HandoffAdopts; got != 0 {
		t.Fatalf("HandoffAdopts = %d, want 0 (disk-dirty region adopted)", got)
	}
	if _, err := cli.Mread(fd, 0, buf); err != nil {
		t.Fatalf("Mread after recovery: %v", err)
	}
	if !bytes.Equal(buf, fresh) {
		t.Fatal("recovered region serves the pre-drain bytes: disk-only write lost")
	}
}

// TestCommitReopenFreesOrphanedAllocation: when the last alias of a
// region is Mclosed while a recovery re-open is pushing bytes, the
// re-created manager mapping can end up owned by nobody — Mclose's own
// FreeReq covers the common orders, but when that free is lost the
// allocation used to sit on the manager until the client died.
// install must release the mapping itself when it finds the
// descriptor gone and no aliases remaining, and must NOT release it
// while other aliases of the key are still open.
func TestCommitReopenFreesOrphanedAllocation(t *testing.T) {
	seg := usocket.NewSegment()
	var (
		mu      sync.Mutex
		liveKey bool // manager-side mapping for the key exists
		frees   int
	)
	reg := wire.Region{HostAddr: seg.Addr("imd0"), RegionID: 3, Length: 8192, Epoch: 1}
	mgrEp := bulk.NewEndpoint(host(t, seg, "cmd"), fastEp(), func(from string, msg wire.Message) wire.Message {
		switch msg.(type) {
		case *wire.AllocReq:
			mu.Lock()
			liveKey = true
			mu.Unlock()
			return &wire.AllocResp{Status: wire.StatusOK, Region: reg}
		case *wire.FreeReq:
			mu.Lock()
			liveKey = false
			frees++
			mu.Unlock()
			return &wire.FreeResp{Status: wire.StatusOK}
		}
		return nil
	})
	defer mgrEp.Close()

	cli := New(host(t, seg, "client"), Config{
		ManagerAddr: seg.Addr("cmd"), ClientID: 1, DisableRecovery: true, Endpoint: fastEp(),
	})
	defer cli.Close()

	back := NewMemBacking(44, 1<<20)
	fd, err := cli.Mopen(8192, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	cli.mu.Lock()
	key := cli.regions[fd].key
	cli.mu.Unlock()
	if err := cli.Mclose(fd); err != nil {
		t.Fatal(err)
	}

	// Replay the racy interleaving deterministically: the recovery pass
	// re-allocated the key (manager maps it again) and repopulated, but
	// by the time it commits, the Mclose above has already removed the
	// descriptor and the mapping has no owner.
	mu.Lock()
	liveKey = true
	mu.Unlock()
	if cli.install(fd, key, reg) {
		t.Fatal("install on a closed descriptor = true, want false")
	}
	mu.Lock()
	leaked, got := liveKey, frees
	mu.Unlock()
	if leaked {
		t.Fatalf("manager still maps the key after install on a closed descriptor (frees=%d): orphaned allocation leaked", got)
	}

	// With another alias of the key still open, the mapping is owned and
	// the last Mclose frees it; install must leave it alone.
	fd1, err := cli.Mopen(8192, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	fd2, err := cli.Mopen(8192, back, 0) // same (inode, offset): alias
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Mclose(fd1); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	liveKey = true
	preFrees := frees
	mu.Unlock()
	if cli.install(fd1, key, reg) {
		t.Fatal("install on a closed alias = true, want false")
	}
	mu.Lock()
	still, post := liveKey, frees
	mu.Unlock()
	if !still || post != preFrees {
		t.Fatalf("install freed a mapping other aliases still own (liveKey=%v frees %d->%d)", still, preFrees, post)
	}
	if err := cli.Mclose(fd2); err != nil {
		t.Fatal(err)
	}
}
