package core

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dodo/internal/bulk"
	"dodo/internal/imd"
	"dodo/internal/manager"
	"dodo/internal/sim"
	"dodo/internal/usocket"
)

// fastEp keeps protocol timers short, and announces a receive window
// of half a host's ring, which holds a window with its offer and the
// control frames around it: the ring overflows only when others send
// to the host at the same time.
func fastEp() bulk.Config {
	return bulk.Config{
		CallTimeout:   150 * time.Millisecond,
		CallRetries:   4,
		WindowTimeout: 80 * time.Millisecond,
		NackDelay:     30 * time.Millisecond,
		RecvWindow:    usocket.HostRing / 2,
	}
}

// host opens the named host on seg. Whoever wraps it closes it; the
// cleanup closes a host nobody wraps.
func host(tb testing.TB, seg *usocket.Segment, name string) *usocket.UNet {
	tb.Helper()
	tr, err := seg.Host(name)
	if err != nil {
		tb.Fatalf("Host(%q): %v", name, err)
	}
	tb.Cleanup(func() { tr.Close() })
	return tr
}

// stack is a complete in-process Dodo deployment: manager + imds + client.
type stack struct {
	seg  *usocket.Segment
	mgr  *manager.Manager
	imds []*imd.Daemon
	cli  *Client
}

// shortCallEp is fastEp for a client that calls a crashed host: the
// segment drops a frame to an unbound address without a word, as
// Ethernet does, so such a call fails only once its timeouts run out.
func shortCallEp() bulk.Config {
	c := fastEp()
	c.CallTimeout, c.CallRetries = 50*time.Millisecond, 2
	return c
}

// shortCalls gives a stack's client shortCallEp.
func shortCalls(cfg *Config) { cfg.Endpoint = shortCallEp() }

func newStack(t *testing.T, imdCount int, poolSize uint64, mut ...func(*Config)) *stack {
	t.Helper()
	seg := usocket.NewSegment()
	mgr := manager.New(host(t, seg, "cmd"), manager.Config{
		KeepAliveInterval: 200 * time.Millisecond,
		KeepAliveMisses:   3,
		Endpoint:          fastEp(),
	})
	s := &stack{seg: seg, mgr: mgr}
	for i := 0; i < imdCount; i++ {
		d := imd.New(host(t, seg, "imd"+string(rune('0'+i))), imd.Config{
			ManagerAddr:    seg.Addr("cmd"),
			PoolSize:       poolSize,
			Epoch:          1,
			StatusInterval: 100 * time.Millisecond,
			Endpoint:       fastEp(),
		})
		s.imds = append(s.imds, d)
	}
	cfg := Config{
		ManagerAddr:      seg.Addr("cmd"),
		ClientID:         1,
		RefractionPeriod: 300 * time.Millisecond,
		Endpoint:         fastEp(),
	}
	for _, m := range mut {
		m(&cfg)
	}
	s.cli = New(host(t, seg, "client"), cfg)
	t.Cleanup(func() {
		s.cli.Close()
		for _, d := range s.imds {
			d.Close()
		}
		mgr.Close()
	})
	return s
}

func TestMopenMwriteMreadRoundTrip(t *testing.T) {
	s := newStack(t, 2, 1<<20)
	back := NewMemBacking(100, 64<<10)
	fd, err := s.cli.Mopen(64<<10, back, 0)
	if err != nil {
		t.Fatalf("Mopen: %v", err)
	}
	if fd < 0 {
		t.Fatalf("Mopen fd = %d, want non-negative", fd)
	}
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(data)
	n, err := s.cli.Mwrite(fd, 0, data)
	if err != nil || n != len(data) {
		t.Fatalf("Mwrite = %d, %v", n, err)
	}
	// The write must have reached the backing file too (write-through).
	if !bytes.Equal(back.Bytes()[:len(data)], data) {
		t.Fatal("backing file does not hold the written data")
	}
	got := make([]byte, len(data))
	n, err = s.cli.Mread(fd, 0, got)
	if err != nil || n != len(data) {
		t.Fatalf("Mread = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("Mread returned different bytes than Mwrite stored")
	}
	if err := s.cli.Mclose(fd); err != nil {
		t.Fatalf("Mclose: %v", err)
	}
}

func TestMopenValidation(t *testing.T) {
	s := newStack(t, 1, 1<<20)
	back := NewMemBacking(1, 1024)
	if _, err := s.cli.Mopen(0, back, 0); !errors.Is(err, ErrInval) {
		t.Fatalf("Mopen(len 0) = %v, want ErrInval", err)
	}
	if _, err := s.cli.Mopen(100, back, -1); !errors.Is(err, ErrInval) {
		t.Fatalf("Mopen(offset -1) = %v, want ErrInval", err)
	}
	ro := NewMemBacking(2, 1024)
	ro.SetReadOnly()
	if _, err := s.cli.Mopen(100, ro, 0); !errors.Is(err, ErrInval) {
		t.Fatalf("Mopen(read-only backing) = %v, want ErrInval", err)
	}
	if _, err := s.cli.Mopen(100, nil, 0); !errors.Is(err, ErrInval) {
		t.Fatalf("Mopen(nil backing) = %v, want ErrInval", err)
	}
}

func TestMreadShortAtTailAndOffsets(t *testing.T) {
	s := newStack(t, 1, 1<<20)
	back := NewMemBacking(3, 1000)
	fd, err := s.cli.Mopen(1000, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("wxyz"), 250)
	if _, err := s.cli.Mwrite(fd, 0, payload); err != nil {
		t.Fatal(err)
	}
	// Middle read.
	buf := make([]byte, 8)
	n, err := s.cli.Mread(fd, 4, buf)
	if err != nil || n != 8 || string(buf) != "wxyzwxyz" {
		t.Fatalf("middle Mread = %d %q %v", n, buf, err)
	}
	// Short read at tail: asks 100, gets 10 (§3.2).
	buf = make([]byte, 100)
	n, err = s.cli.Mread(fd, 990, buf)
	if err != nil || n != 10 {
		t.Fatalf("tail Mread = %d, %v; want 10", n, err)
	}
	// Exactly at the end: nothing left to read, and no error.
	if n, err := s.cli.Mread(fd, 1000, buf); err != nil || n != 0 {
		t.Fatalf("Mread at end = %d, %v; want 0, nil", n, err)
	}
	// Offset beyond end: EINVAL.
	if _, err := s.cli.Mread(fd, 1001, buf); !errors.Is(err, ErrInval) {
		t.Fatalf("Mread past end = %v, want ErrInval", err)
	}
	// Bad descriptor: EINVAL.
	if _, err := s.cli.Mread(99, 0, buf); !errors.Is(err, ErrInval) {
		t.Fatalf("Mread bad fd = %v, want ErrInval", err)
	}
}

func TestMwriteShortAtTail(t *testing.T) {
	s := newStack(t, 1, 1<<20)
	back := NewMemBacking(4, 100)
	fd, err := s.cli.Mopen(100, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.cli.Mwrite(fd, 95, bytes.Repeat([]byte{7}, 50))
	if err != nil || n != 5 {
		t.Fatalf("tail Mwrite = %d, %v; want 5 (short write)", n, err)
	}
	if _, err := s.cli.Mwrite(fd, 101, []byte{1}); !errors.Is(err, ErrInval) {
		t.Fatalf("Mwrite past end = %v, want ErrInval", err)
	}
}

func TestMcloseSemantics(t *testing.T) {
	s := newStack(t, 1, 1<<20)
	back := NewMemBacking(5, 1024)
	fd, err := s.cli.Mopen(1024, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.cli.Mclose(fd); err != nil {
		t.Fatal(err)
	}
	// Closed descriptor: EINVAL everywhere.
	if err := s.cli.Mclose(fd); !errors.Is(err, ErrInval) {
		t.Fatalf("double Mclose = %v, want ErrInval", err)
	}
	if _, err := s.cli.Mread(fd, 0, make([]byte, 10)); !errors.Is(err, ErrInval) {
		t.Fatalf("Mread after Mclose = %v, want ErrInval", err)
	}
	// The imd must have released the space.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s.imds[0].Stats().Regions == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("imd did not release the closed region")
}

func TestMsyncFlushesBacking(t *testing.T) {
	dir := t.TempDir()
	f, err := os.OpenFile(filepath.Join(dir, "backing.dat"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fb, err := NewFileBacking(f)
	if err != nil {
		t.Fatal(err)
	}
	s := newStack(t, 1, 1<<20)
	fd, err := s.cli.Mopen(4096, fb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.cli.Mwrite(fd, 0, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := s.cli.Msync(fd); err != nil {
		t.Fatalf("Msync: %v", err)
	}
	got := make([]byte, 7)
	if _, err := f.ReadAt(got, 0); err != nil || string(got) != "durable" {
		t.Fatalf("backing after Msync = %q, %v", got, err)
	}
}

func TestRealFileBackingRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f, err := os.OpenFile(filepath.Join(dir, "data.bin"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fb, err := NewFileBacking(f)
	if err != nil {
		t.Fatal(err)
	}
	if fb.Inode() == 0 {
		t.Fatal("FileBacking.Inode() = 0 on Linux")
	}
	s := newStack(t, 1, 1<<20)
	// Region at file offset 512 (mopen's in-place update flexibility).
	fd, err := s.cli.Mopen(1024, fb, 512)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.cli.Mwrite(fd, 0, []byte("at-offset")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 9)
	if _, err := f.ReadAt(got, 512); err != nil || string(got) != "at-offset" {
		t.Fatalf("file at offset 512 = %q, %v", got, err)
	}
}

// TestFileBackingInodeResolvedOnce: the inode is an fstat away, and the
// region cache asks for it under its mutex on every access, so it is
// looked up once per backing — by the constructor, or by the first call
// on a literal. Closing the file afterwards proves no later call stats.
func TestFileBackingInodeResolvedOnce(t *testing.T) {
	open := func() *os.File {
		f, err := os.OpenFile(filepath.Join(t.TempDir(), "data.bin"), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f := open()
	built, err := NewFileBacking(f)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if built.Inode() == 0 {
		t.Error("NewFileBacking did not resolve the inode: Inode() = 0 once the file is closed")
	}

	f = open()
	literal := &FileBacking{F: f}
	want := literal.Inode()
	f.Close()
	if want == 0 || literal.Inode() != want {
		t.Errorf("literal FileBacking: Inode() = %d open, %d closed", want, literal.Inode())
	}

	// A descriptor that cannot be stat-ed still reports 0.
	f = open()
	f.Close()
	if got := (&FileBacking{F: f}).Inode(); got != 0 {
		t.Errorf("Inode() of a closed file = %d, want the Stat-failure 0", got)
	}
}

func TestReadOnlyFileRejectedByMopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ro.dat")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path) // read-only
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := NewFileBacking(f); err == nil {
		t.Fatal("NewFileBacking accepted a read-only file")
	}
}

func TestAllocationFailureAndRefractionPeriod(t *testing.T) {
	s := newStack(t, 1, 8192) // tiny pool
	back := NewMemBacking(6, 1<<20)
	if _, err := s.cli.Mopen(1<<19, back, 0); !errors.Is(err, ErrNoMem) {
		t.Fatalf("oversized Mopen = %v, want ErrNoMem", err)
	}
	// Within the refraction period the library must not even try.
	start := time.Now()
	if _, err := s.cli.Mopen(1<<19, back, 4096); !errors.Is(err, ErrNoMem) {
		t.Fatalf("Mopen in refraction = %v, want ErrNoMem", err)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("refraction-period Mopen took %v; it should not contact the manager", elapsed)
	}
	if s.cli.Stats().RefractionSkips != 1 {
		t.Fatalf("RefractionSkips = %d, want 1", s.cli.Stats().RefractionSkips)
	}
	// After the period, attempts resume (and succeed for a small region).
	time.Sleep(350 * time.Millisecond)
	fd, err := s.cli.Mopen(1024, back, 8192)
	if err != nil {
		t.Fatalf("Mopen after refraction = %v", err)
	}
	_ = s.cli.Mclose(fd)
}

func TestHostFailureDropsAllItsDescriptors(t *testing.T) {
	s := newStack(t, 2, 1<<20)
	back := NewMemBacking(7, 1<<20)
	// Open several regions; they land across imd0/imd1.
	fds := make([]int, 6)
	for i := range fds {
		fd, err := s.cli.Mopen(4096, back, int64(i*4096))
		if err != nil {
			t.Fatalf("Mopen %d: %v", i, err)
		}
		fds[i] = fd
		if _, err := s.cli.Mwrite(fd, 0, bytes.Repeat([]byte{byte(i)}, 4096)); err != nil {
			t.Fatalf("Mwrite %d: %v", i, err)
		}
	}
	// Kill imd0's host.
	s.seg.Partition(s.seg.Addr("imd0"))
	// Reads now fail for regions on imd0 — and each failure must drop
	// every descriptor on that host (§3.1).
	sawNoMem := false
	for _, fd := range fds {
		buf := make([]byte, 16)
		if _, err := s.cli.Mread(fd, 0, buf); errors.Is(err, ErrNoMem) {
			sawNoMem = true
			break
		}
	}
	if !sawNoMem {
		t.Fatal("no read failed although a host is dead")
	}
	// All regions on the dead host are now invalid; regions on the live
	// host still work.
	validCount := 0
	for _, fd := range fds {
		if s.cli.RegionValid(fd) {
			validCount++
			buf := make([]byte, 16)
			if _, err := s.cli.Mread(fd, 0, buf); err != nil {
				t.Fatalf("read from surviving host failed: %v", err)
			}
		}
	}
	if validCount == 0 || validCount == len(fds) {
		t.Fatalf("validCount = %d of %d; want the dead host's regions dropped and the live host's kept", validCount, len(fds))
	}
	if s.cli.Stats().DropEvents == 0 {
		t.Fatal("DropEvents = 0, want at least one drop event")
	}
}

func TestDropHostPrunesLatencyHistory(t *testing.T) {
	s := newStack(t, 1, 1<<20)
	back := NewMemBacking(77, 1<<20)
	fd, err := s.cli.Mopen(4096, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.cli.Mwrite(fd, 0, bytes.Repeat([]byte{0xaa}, 4096)); err != nil {
		t.Fatal(err)
	}
	// A successful read records a latency sample for the hosting imd.
	buf := make([]byte, 4096)
	if _, err := s.cli.Mread(fd, 0, buf); err != nil {
		t.Fatal(err)
	}
	s.cli.mu.Lock()
	_, tracked := s.cli.hostLat[s.seg.Addr("imd0")]
	s.cli.mu.Unlock()
	if !tracked {
		t.Fatal("no hostLat entry for imd0 after a successful read")
	}
	// Kill the host; the failing read drops its descriptors — and must
	// drop its latency history with them, or a long-lived client in a
	// churny cluster grows the map one dead host at a time.
	s.seg.Partition(s.seg.Addr("imd0"))
	if _, err := s.cli.Mread(fd, 0, buf); err != nil && !errors.Is(err, ErrNoMem) {
		t.Fatalf("Mread on dead host = %v, want ErrNoMem or hedged disk success", err)
	}
	// The drop may land on a hedged read's background leg; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.cli.mu.Lock()
		_, tracked = s.cli.hostLat[s.seg.Addr("imd0")]
		s.cli.mu.Unlock()
		if !tracked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hostLat entry for the dead host was never pruned")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestMreadOnDroppedRegionIsNoMem(t *testing.T) {
	s := newStack(t, 1, 1<<20)
	back := NewMemBacking(8, 1<<20)
	fd, err := s.cli.Mopen(4096, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.seg.Partition(s.seg.Addr("imd0"))
	buf := make([]byte, 16)
	if _, err := s.cli.Mread(fd, 0, buf); !errors.Is(err, ErrNoMem) {
		t.Fatalf("Mread on dead host = %v, want ErrNoMem", err)
	}
	// Second read: descriptor already dropped, immediate ErrNoMem.
	start := time.Now()
	if _, err := s.cli.Mread(fd, 0, buf); !errors.Is(err, ErrNoMem) {
		t.Fatalf("Mread on dropped region = %v, want ErrNoMem", err)
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("dropped-region Mread hit the network; it should fail locally")
	}
}

func TestCheckAllocLifecycle(t *testing.T) {
	s := newStack(t, 1, 1<<20)
	back := NewMemBacking(9, 1<<20)
	fd, err := s.cli.Mopen(4096, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := s.cli.CheckAlloc(fd)
	if err != nil || !ok {
		t.Fatalf("CheckAlloc = %v, %v; want true", ok, err)
	}
	// Drain the imd (owner reclaims the host). The manager learns via
	// HostBusy; checkAlloc must now report the region stale.
	s.imds[0].Drain()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		ok, err = s.cli.CheckAlloc(fd)
		if err == nil && !ok {
			if s.cli.RegionValid(fd) {
				t.Fatal("descriptor still valid after stale CheckAlloc")
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("CheckAlloc never reported the drained host's region stale")
}

func TestPersistentRegionsSurviveClientRestart(t *testing.T) {
	// The dmine pattern (§5.2.1): a client exits without freeing; a new
	// client re-opens the same (inode, offset) keys and finds the data
	// still cached.
	seg := usocket.NewSegment()
	mgr := manager.New(host(t, seg, "cmd"), manager.Config{
		KeepAliveInterval: time.Hour, // don't reclaim during the test
		Endpoint:          fastEp(),
	})
	d := imd.New(host(t, seg, "imd0"), imd.Config{
		ManagerAddr: seg.Addr("cmd"), PoolSize: 1 << 20, Epoch: 1,
		StatusInterval: 100 * time.Millisecond, Endpoint: fastEp(),
	})
	t.Cleanup(func() { d.Close(); mgr.Close() })

	back := NewMemBacking(77, 1<<20)
	run1 := New(host(t, seg, "client"), Config{ManagerAddr: seg.Addr("cmd"), ClientID: 1, Endpoint: fastEp()})
	fd, err := run1.Mopen(8192, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("persist!"), 1024)
	if _, err := run1.Mwrite(fd, 0, want); err != nil {
		t.Fatal(err)
	}
	run1.Close() // exit without Mclose

	run2 := New(host(t, seg, "client2"), Config{ManagerAddr: seg.Addr("cmd"), ClientID: 1, Endpoint: fastEp()})
	defer run2.Close()
	fd2, err := run2.Mopen(8192, back, 0)
	if err != nil {
		t.Fatalf("re-Mopen: %v", err)
	}
	got := make([]byte, 8192)
	nread, err := run2.Mread(fd2, 0, got)
	if err != nil || nread != 8192 {
		t.Fatalf("Mread in run 2 = %d, %v", nread, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("second run did not see the first run's cached data")
	}
	// Only one region must exist on the imd (same key reused).
	if d.Stats().Regions != 1 {
		t.Fatalf("imd regions = %d, want 1", d.Stats().Regions)
	}
}

func TestClientUsesVirtualClockForRefraction(t *testing.T) {
	// The refraction timer runs off the configured clock, so the
	// simulated experiments control it.
	seg := usocket.NewSegment()
	clock := sim.NewVirtualClock(time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC))
	mgr := manager.New(host(t, seg, "cmd"), manager.Config{KeepAliveInterval: time.Hour, Endpoint: fastEp()})
	cli := New(host(t, seg, "client"), Config{
		ManagerAddr: seg.Addr("cmd"), RefractionPeriod: time.Minute, Clock: clock, Endpoint: fastEp(),
	})
	t.Cleanup(func() { cli.Close(); mgr.Close() })

	back := NewMemBacking(10, 1<<20)
	if _, err := cli.Mopen(4096, back, 0); !errors.Is(err, ErrNoMem) {
		t.Fatal("expected ErrNoMem with no imds")
	}
	if _, err := cli.Mopen(4096, back, 4096); !errors.Is(err, ErrNoMem) {
		t.Fatal("expected refraction ErrNoMem")
	}
	if cli.Stats().RefractionSkips != 1 {
		t.Fatalf("RefractionSkips = %d, want 1", cli.Stats().RefractionSkips)
	}
	clock.Advance(2 * time.Minute)
	// Attempt resumes (fails again for lack of hosts, but contacts the
	// manager rather than skipping).
	if _, err := cli.Mopen(4096, back, 4096); !errors.Is(err, ErrNoMem) {
		t.Fatal("expected ErrNoMem")
	}
	if got := cli.Stats().RefractionSkips; got != 1 {
		t.Fatalf("RefractionSkips = %d after clock advance, want still 1", got)
	}
}

func TestStatsCounters(t *testing.T) {
	s := newStack(t, 1, 1<<20)
	back := NewMemBacking(11, 1<<20)
	fd, _ := s.cli.Mopen(8192, back, 0)
	payload := make([]byte, 8192)
	s.cli.Mwrite(fd, 0, payload)
	s.cli.Mread(fd, 0, payload)
	s.cli.Mread(fd, 0, payload)
	st := s.cli.Stats()
	if st.RemoteReads != 2 || st.RemoteWrites != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.RemoteReadBytes != 16384 || st.RemoteWriteBytes != 8192 {
		t.Fatalf("byte counters = %+v", st)
	}
	if st.OpenRegions != 1 {
		t.Fatalf("OpenRegions = %d", st.OpenRegions)
	}
}
