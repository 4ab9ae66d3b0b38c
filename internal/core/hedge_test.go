package core

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dodo/internal/imd"
	"dodo/internal/locks"
	"dodo/internal/manager"
	"dodo/internal/sim"
	"dodo/internal/transport"
	"dodo/internal/usocket"
	"dodo/internal/wire"
)

// hedgeStack builds a deployment whose client hedges aggressively: any
// host with one latency sample gets a near-zero hedge delay, so every
// subsequent remote read races a disk read.
func hedgeStack(t *testing.T, imdCount int) *stack {
	t.Helper()
	seg := usocket.NewSegment()
	var imdTrs []transport.Transport
	for i := 0; i < imdCount; i++ {
		imdTrs = append(imdTrs, host(t, seg, "imd"+string(rune('0'+i))))
	}
	return hedgeStackOver(t, seg, host(t, seg, "client"), imdTrs...)
}

// hedgeStackOver is hedgeStack on segment seg, with the client on cliTr
// and one imd on each of imdTrs.
func hedgeStackOver(t *testing.T, seg *usocket.Segment, cliTr transport.Transport, imdTrs ...transport.Transport) *stack {
	t.Helper()
	mgr := manager.New(host(t, seg, "cmd"), manager.Config{
		KeepAliveInterval: 200 * time.Millisecond,
		KeepAliveMisses:   3,
		Endpoint:          fastEp(),
	})
	s := &stack{seg: seg, mgr: mgr}
	for _, tr := range imdTrs {
		d := imd.New(tr, imd.Config{
			ManagerAddr:    seg.Addr("cmd"),
			PoolSize:       1 << 20,
			Epoch:          1,
			StatusInterval: 100 * time.Millisecond,
			Endpoint:       fastEp(),
		})
		s.imds = append(s.imds, d)
	}
	s.cli = New(cliTr, Config{
		ManagerAddr:      seg.Addr("cmd"),
		ClientID:         1,
		RefractionPeriod: 300 * time.Millisecond,
		HedgeMultiplier:  1e-6,
		HedgeFloor:       time.Nanosecond,
		Endpoint:         fastEp(),
	})
	t.Cleanup(func() {
		s.cli.Close()
		for _, d := range s.imds {
			d.Close()
		}
		mgr.Close()
	})
	return s
}

// TestHedgeColdStartPerEpoch pins the EWMA bootstrap rule: a host with
// no latency samples under its current epoch is never hedged against —
// including a freshly recruited incarnation of a host we knew under an
// older epoch — so the very first read to a new imd cannot waste a disk
// read on an unknown latency.
func TestHedgeColdStartPerEpoch(t *testing.T) {
	s := newStack(t, 1, 1<<20)
	c, imd0 := s.cli, s.seg.Addr("imd0")

	if _, hedge := c.hedgeDelay(imd0, 1); hedge {
		t.Fatal("hedged with no samples at all")
	}
	c.recordLatency(imd0, 1, 10*time.Millisecond)
	d, hedge := c.hedgeDelay(imd0, 1)
	if !hedge {
		t.Fatal("not hedging with a sample on the books")
	}
	if want := 40 * time.Millisecond; d != want { // multiplier default 4
		t.Fatalf("hedge delay = %v, want %v", d, want)
	}
	// The host restarts under a new epoch: its history is void, the
	// first read of the new incarnation must go unhedged.
	if _, hedge := c.hedgeDelay(imd0, 2); hedge {
		t.Fatal("hedged the first read to a fresh incarnation")
	}
	c.recordLatency(imd0, 2, 100*time.Microsecond)
	d, hedge = c.hedgeDelay(imd0, 2)
	if !hedge {
		t.Fatal("new incarnation never warmed up")
	}
	if want := 2 * time.Millisecond; d != want { // floored (default 2ms)
		t.Fatalf("floored hedge delay = %v, want %v", d, want)
	}

	// DisableHedging wins over any history.
	off := New(host(t, s.seg, "client2"), Config{
		ManagerAddr: s.seg.Addr("cmd"), ClientID: 2, DisableHedging: true, Endpoint: fastEp(),
	})
	t.Cleanup(func() { off.Close() })
	off.recordLatency(imd0, 1, 10*time.Millisecond)
	if _, hedge := off.hedgeDelay(imd0, 1); hedge {
		t.Fatal("DisableHedging did not disable hedging")
	}
}

// TestHedgedReadsStayFresh: with hedging forced on, reads race the
// backing store — and must still always return the latest written
// bytes, because Mwrite writes through to the backing before
// confirming. The first read stays unhedged (cold start), later reads
// hedge and stay correct across interleaved writes. A 1 ns hedge delay
// has passed by the time the read would wait for its answer, and the
// read launches the disk leg itself before it waits, so every later
// read is hedged however fast the imd answers.
func TestHedgedReadsStayFresh(t *testing.T) {
	s := hedgeStack(t, 1)
	back := NewMemBacking(61, 1<<20)
	fd, err := s.cli.Mopen(32<<10, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32<<10)
	data := make([]byte, 32<<10)
	for round := 0; round < 4; round++ {
		rand.New(rand.NewSource(int64(round) + 500)).Read(data)
		if _, err := s.cli.Mwrite(fd, 0, data); err != nil {
			t.Fatalf("round %d: Mwrite: %v", round, err)
		}
		n, err := s.cli.Mread(fd, 0, buf)
		if err != nil || n != len(buf) {
			t.Fatalf("round %d: Mread = %d, %v", round, n, err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("round %d: hedged read returned bytes older than the confirmed write", round)
		}
		st := s.cli.Stats()
		if round == 0 && st.HedgedReads != 0 {
			t.Fatalf("first read to a fresh host hedged: %+v", st)
		}
		if round > 0 && st.HedgedReads < int64(round) {
			t.Fatalf("round %d: hedging never engaged: %+v", round, st)
		}
	}
}

// TestHedgedReadAnsweredInTimeLaunchesNothing: a hedged read the imd
// answers within the hedge delay runs on the caller's goroutine, and
// its hedge is one entry of the client's deadline queue: no goroutine,
// no channel and no timer of its own. The client runs on a VirtualClock
// nobody advances, so no hedge delay ever passes and no deadline timer
// is re-armed, and a read's allocations, the imd's included, are an
// exact count: a goroutine, a channel or a timer per read shows here.
func TestHedgedReadAnsweredInTimeLaunchesNothing(t *testing.T) {
	if locks.CheckEnabled || raceEnabled {
		t.Skip("the lockcheck runtime and the race detector allocate on their own")
	}
	clock := sim.NewVirtualClock(time.Unix(0, 0))
	seg := usocket.NewSegment()
	mgr := manager.New(host(t, seg, "cmd"), manager.Config{KeepAliveInterval: time.Hour, Endpoint: fastEp()})
	d := imd.New(host(t, seg, "imd0"), imd.Config{ManagerAddr: seg.Addr("cmd"), PoolSize: 1 << 20, Epoch: 1,
		StatusInterval: time.Hour, Endpoint: fastEp()})
	epCfg := fastEp()
	epCfg.Clock = clock
	cli := New(host(t, seg, "client"), Config{ManagerAddr: seg.Addr("cmd"), ClientID: 1, Clock: clock,
		Endpoint: epCfg, DisableRecovery: true})
	t.Cleanup(func() { cli.Close(); d.Close(); mgr.Close() })

	for i, tc := range []struct {
		name   string
		size   int
		allocs float64
	}{
		// Every frame crosses the segment: a control frame is one
		// allocation at its own size, a data frame a recycled one. The
		// imd encodes an inline reply from its pinned pool bytes, with
		// no snapshot of them on the heap.
		{"inline", 1 << 10, 17},
		{"eager", 8 << 10, 34},
	} {
		fd, err := cli.Mopen(int64(tc.size), NewMemBacking(uint64(64+i), 1<<20), 0)
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte{0x5a}, tc.size)
		if _, err := cli.Mwrite(fd, 0, data); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, tc.size)
		// The first read records the latency sample every later one is
		// hedged on.
		if _, err := cli.Mread(fd, 0, buf); err != nil {
			t.Fatal(err)
		}
		if _, hedge := cli.hedgeDelay(seg.Addr("imd0"), 1); !hedge {
			t.Fatalf("%s: reads are not hedged", tc.name)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if n, err := cli.Mread(fd, 0, buf); err != nil || n != tc.size {
				t.Fatalf("%s: Mread = %d, %v", tc.name, n, err)
			}
		})
		if !bytes.Equal(buf, data) {
			t.Fatalf("%s: read the wrong bytes", tc.name)
		}
		if st := cli.Stats(); st.HedgedReads != 0 {
			t.Fatalf("%s: %d disk legs launched with no hedge delay passed", tc.name, st.HedgedReads)
		}
		t.Logf("%s: %v allocations per hedged read", tc.name, allocs)
		if allocs != tc.allocs {
			t.Errorf("%s: a hedged read answered in time allocates %v times, want %v", tc.name, allocs, tc.allocs)
		}
	}
}

// TestHedgedReadSurvivesDeadHost: once the client has a latency sample,
// a read against a crashed imd is answered by the hedge's disk leg —
// the caller sees a successful, byte-correct read instead of ErrNoMem,
// while the drop still triggers background recovery.
func TestHedgedReadSurvivesDeadHost(t *testing.T) {
	s := hedgeStack(t, 1)
	back := NewMemBacking(62, 1<<20)
	fd, err := s.cli.Mopen(16<<10, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 16<<10)
	rand.New(rand.NewSource(99)).Read(data)
	if _, err := s.cli.Mwrite(fd, 0, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16<<10)
	if _, err := s.cli.Mread(fd, 0, buf); err != nil {
		t.Fatalf("warm-up read: %v", err)
	}

	// A crashed workstation is silent: frames to it vanish, nothing comes
	// back to say so. (The fabric alone would refuse a send to a closed
	// endpoint at once, and whether that error or the 1 ns hedge timer
	// reaches the read first is a scheduler race, not what is tested.)
	s.seg.Partition(s.seg.Addr("imd0"))
	s.imds[0].Crash()
	n, err := s.cli.Mread(fd, 0, buf)
	if err != nil || n != len(buf) {
		t.Fatalf("hedged read against dead host = %d, %v; want disk-leg success", n, err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("disk leg served wrong bytes")
	}
	st := s.cli.Stats()
	if st.HedgedReads == 0 || st.HedgeWins == 0 {
		t.Fatalf("disk leg never credited: %+v", st)
	}
	// The losing remote leg finishes in the background; its failure must
	// still drop the host so recovery kicks in.
	deadline := time.Now().Add(5 * time.Second)
	for s.cli.Stats().DropEvents == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("remote failure never dropped the host for recovery: %+v", s.cli.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCloseDuringHedgedReads: Close must be able to join in-flight
// hedged-read legs without tripping the WaitGroup reuse rule — the
// counter must never rise from zero while Close's Wait runs. Readers
// race Close from several goroutines; under the race detector (and
// often without it) an unguarded hedgeWG.Add panics here.
func TestCloseDuringHedgedReads(t *testing.T) {
	for round := 0; round < 3; round++ {
		s := hedgeStack(t, 1)
		back := NewMemBacking(uint64(70+round), 1<<20)
		fd, err := s.cli.Mopen(8192, back, 0)
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte{0x42}, 8192)
		if _, err := s.cli.Mwrite(fd, 0, payload); err != nil {
			t.Fatal(err)
		}
		// One warm read records a latency sample, so every read below
		// spawns hedge legs.
		buf := make([]byte, 8192)
		if _, err := s.cli.Mread(fd, 0, buf); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		for g := 0; g < 4; g++ {
			go func() {
				defer func() { done <- struct{}{} }()
				b := make([]byte, 8192)
				for {
					if _, err := s.cli.Mread(fd, 0, b); errors.Is(err, ErrClosed) {
						return
					}
				}
			}()
		}
		time.Sleep(time.Duration(10+10*round) * time.Millisecond)
		s.cli.Close()
		for g := 0; g < 4; g++ {
			<-done
		}
	}
}

// TestHedgeLegRefusedAfterClose pins the gate directly: once Close has
// flipped the flag, no code path may register new hedge legs (the
// WaitGroup counter must never rise from zero while Close waits).
func TestHedgeLegRefusedAfterClose(t *testing.T) {
	s := hedgeStack(t, 1)
	s.cli.Close()
	if s.cli.tryHedgeLeg() {
		t.Fatal("tryHedgeLeg succeeded on a closed client")
	}
}

// heldReplies lets an imd's frames through until armed. Armed, it lets
// early data frames go and holds every later one, and every inline
// DataResp, until release is closed: a read of that imd is then stuck
// mid-way through its bytes, or before its inline answer. It is no
// VecSender, so every frame the imd sends passes through Send.
type heldReplies struct {
	transport.Transport
	release chan struct{}

	mu    sync.Mutex
	armed bool
	early int
}

func (h *heldReplies) Send(to string, frame []byte) error {
	if h.holds(frame) {
		<-h.release
	}
	return h.Transport.Send(to, frame)
}

func (h *heldReplies) holds(frame []byte) bool {
	_, msg, err := wire.Decode(frame)
	h.mu.Lock()
	defer h.mu.Unlock()
	if err != nil || !h.armed {
		return false
	}
	switch m := msg.(type) {
	case *wire.BulkData:
		h.early--
		return h.early < 0
	case *wire.DataResp:
		return m.Flags&wire.DataFlagInline != 0
	}
	return false
}

func (h *heldReplies) arm(early int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.armed, h.early = true, early
}

// landing counts the data frames a client's receive loop takes from
// its transport once armed, and closes landed when early of them have
// been handled: the loop handles a frame before it asks for the next.
type landing struct {
	transport.Transport
	landed chan struct{}

	mu           sync.Mutex
	armed        bool
	taken, early int
}

func (l *landing) Recv(timeout time.Duration) ([]byte, string, error) {
	l.mu.Lock()
	l.closeIfLandedLocked()
	l.mu.Unlock()
	frame, from, err := l.Transport.Recv(timeout)
	if h, herr := wire.ParseHeader(frame); err == nil && herr == nil && h.Type == wire.TBulkData {
		l.mu.Lock()
		l.taken++
		l.mu.Unlock()
	}
	return frame, from, err
}

func (l *landing) arm(early int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.armed, l.taken, l.early = true, 0, early
	l.closeIfLandedLocked()
}

func (l *landing) closeIfLandedLocked() {
	if l.armed && l.taken == l.early {
		l.armed = false
		close(l.landed)
	}
}

// gatedDisk is a MemBacking whose reads, once armed, wait for open to
// close (for five seconds at most).
type gatedDisk struct {
	*MemBacking
	open  <-chan struct{}
	armed atomic.Bool
}

func (d *gatedDisk) ReadAt(p []byte, off int64) (int, error) {
	if d.armed.Load() {
		select {
		case <-d.open:
		case <-time.After(5 * time.Second):
		}
	}
	return d.MemBacking.ReadAt(p, off)
}

// diskWinRuns numbers the runs of testDiskWinsMidRead in this process.
var diskWinRuns atomic.Int64

// testDiskWinsMidRead runs one hedged read of size bytes from a region
// whose backing file holds other bytes than its remote copy, with the
// imd's reply held (heldReplies) so the disk leg wins while the remote
// leg is still running. The read returns the disk's bytes, nothing
// writes them over once the remote leg completes, and that leg — its
// bytes checked against the imd's checksum wherever they ended up —
// succeeds: no checksum failure, no host drop.
func testDiskWinsMidRead(t *testing.T, seg *usocket.Segment, size, early int) {
	held := &heldReplies{Transport: host(t, seg, "imd0"), release: make(chan struct{})}
	land := &landing{Transport: host(t, seg, "client"), landed: make(chan struct{})}
	s := hedgeStackOver(t, seg, land, held)
	back := &gatedDisk{MemBacking: NewMemBacking(63, 1<<20), open: land.landed}
	fd, err := s.cli.Mopen(int64(size), back, 0)
	if err != nil {
		t.Fatal(err)
	}
	remote, disk := make([]byte, size), make([]byte, size)
	// Fresh bytes on every run: a recycled private buffer must not
	// already hold them from the run before.
	seed := 2 * diskWinRuns.Add(1)
	rand.New(rand.NewSource(seed)).Read(remote)
	rand.New(rand.NewSource(seed + 1)).Read(disk)
	if _, err := s.cli.Mwrite(fd, 0, remote); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if _, err := s.cli.Mread(fd, 0, buf); err != nil || !bytes.Equal(buf, remote) {
		t.Fatalf("warm-up read: %v", err)
	}
	if _, err := back.WriteAt(disk, 0); err != nil {
		t.Fatal(err)
	}

	// The disk leg reads once the early frames have landed in buf.
	held.arm(early)
	land.arm(early)
	back.armed.Store(true)
	n1, err := s.cli.Mread(fd, 0, buf)
	close(held.release)
	if err != nil || n1 != size {
		t.Fatalf("hedged read = %d, %v", n1, err)
	}
	if !bytes.Equal(buf, disk) {
		t.Fatal("the read did not return the winning disk leg's bytes")
	}
	if st := s.cli.Stats(); st.HedgeWins != 1 {
		t.Fatalf("the disk leg did not win: %+v", st)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.cli.Stats().HedgeWasted == 0 {
		if st := s.cli.Stats(); st.DropEvents != 0 || st.ChecksumFailures != 0 || time.Now().After(deadline) {
			t.Fatalf("the remote leg did not complete cleanly: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if !bytes.Equal(buf, disk) {
		t.Fatal("the remote leg wrote into the caller's buffer after the read returned")
	}
	if st := s.cli.Stats(); st.DropEvents != 0 || st.ChecksumFailures != 0 {
		t.Fatalf("the completed remote leg dropped its host: %+v", st)
	}
}

// TestDiskWinsMidEagerRead: the remote leg has some of its 32 KB
// assembled, in the caller's buffer, when the disk leg wins; the rest
// arrives after Mread has returned.
func TestDiskWinsMidEagerRead(t *testing.T) {
	testDiskWinsMidRead(t, usocket.NewSegment(), 32<<10, 5)
}

// TestDiskWinsBeforeInlineReply: the same with a read small enough to
// come back inline, in one frame; its answer arrives after Mread has
// returned.
func TestDiskWinsBeforeInlineReply(t *testing.T) {
	testDiskWinsMidRead(t, usocket.NewSegment(), wire.InlineDataLimit(usocket.MTU), 0)
}

// slowRecv hands over each frame a millisecond after it arrives, so a
// hedged read's remote leg loses to a disk leg that reads memory.
type slowRecv struct{ transport.Transport }

func (s slowRecv) Recv(timeout time.Duration) ([]byte, string, error) {
	frame, from, err := s.Transport.Recv(timeout)
	time.Sleep(time.Millisecond)
	return frame, from, err
}

// TestLosingLegRecyclesItsFrame: when the disk leg wins, the remote leg
// finishes into a private frame from the pool, of the 64 KB class for a
// 2 KB read (none below 2 KB is pooled), and the background join gives
// it back. A won read allocates about 5.5 KB, and 71 KB with a join
// that keeps its frame. Under -race, where sync.Pool drops a quarter of
// what it is handed, it reads 19 to 28 KB, so the bound is three
// quarters of a frame, not the half the transport and bulk tests use.
func TestLosingLegRecyclesItsFrame(t *testing.T) {
	const size, reads = 2 << 10, 100
	seg := usocket.NewSegment()
	s := hedgeStackOver(t, seg, slowRecv{host(t, seg, "client")}, host(t, seg, "imd0"))
	fd, err := s.cli.Mopen(size, NewMemBacking(64, 1<<20), 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if _, err := s.cli.Mwrite(fd, 0, buf); err != nil {
		t.Fatal(err)
	}
	read := func() {
		if _, err := s.cli.Mread(fd, 0, buf); err != nil {
			t.Fatal(err)
		}
		s.cli.hedgeWG.Wait() // the losing leg has given its frame back
	}
	// The first read of a host is not hedged; the second fills the pool.
	read()
	read()
	wins := s.cli.Stats().HedgeWins
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	won := s.cli.Stats().HedgeWins - wins
	if won < reads/2 {
		t.Fatalf("the disk leg won %d of %d reads, want most", won, reads)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(won); per >= 48<<10 {
		t.Errorf("a read the disk leg won allocates %d bytes, want under three quarters of a 64 KB frame: its losing leg keeps its frame", per)
	}
}
