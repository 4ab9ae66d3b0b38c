package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"dodo/internal/imd"
	"dodo/internal/locks"
	"dodo/internal/manager"
	"dodo/internal/sim"
	"dodo/internal/usocket"
)

// TestHedgedReadsStayFresh: reads interleaved with writes always return
// the latest confirmed bytes.
func TestHedgedReadsStayFresh(t *testing.T) {
	s := newStack(t, 1, 1<<20)
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
			t.Fatalf("round %d: read returned bytes older than the confirmed write", round)
		}
	}
}

// TestRemoteReadAllocations: a remote read runs on the caller's
// goroutine and lands in the caller's buffer: no goroutine, no channel
// and no timer of its own. The client runs on a VirtualClock nobody
// advances, so no call deadline passes and no deadline timer is
// re-armed, and a read's allocations, the imd's included, are an exact
// count: a goroutine, a channel or a timer per read shows here.
func TestRemoteReadAllocations(t *testing.T) {
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
		{"inline", 1 << 10, 13},
		{"eager", 8 << 10, 30},
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
		allocs := testing.AllocsPerRun(200, func() {
			if n, err := cli.Mread(fd, 0, buf); err != nil || n != tc.size {
				t.Fatalf("%s: Mread = %d, %v", tc.name, n, err)
			}
		})
		if !bytes.Equal(buf, data) {
			t.Fatalf("%s: read the wrong bytes", tc.name)
		}
		t.Logf("%s: %v allocations per remote read", tc.name, allocs)
		if allocs != tc.allocs {
			t.Errorf("%s: a remote read allocates %v times, want %v", tc.name, allocs, tc.allocs)
		}
	}
}

// TestReadOfDeadHostIsNoMem: a read against a crashed imd fails with
// ErrNoMem within the call budget (§3.1), drops the host's descriptors
// and kicks background recovery; the backing file, which Mwrite writes
// through, then serves the confirmed bytes, as the paper's caller reads
// them.
func TestReadOfDeadHostIsNoMem(t *testing.T) {
	s := newStack(t, 1, 1<<20, shortCalls)
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
	// back to say so, and only the call budget ends the read.
	s.seg.Partition(s.seg.Addr("imd0"))
	s.imds[0].Crash()
	budget := time.Duration(shortCallEp().CallRetries+1) * shortCallEp().CallTimeout
	start := time.Now()
	n, err := s.cli.Mread(fd, 0, buf)
	if took := time.Since(start); !errors.Is(err, ErrNoMem) || took > budget+time.Second {
		t.Fatalf("read against dead host = %d, %v after %v; want ErrNoMem within the %v call budget", n, err, took, budget)
	}
	if st := s.cli.Stats(); st.DropEvents == 0 || s.cli.RegionValid(fd) {
		t.Fatalf("the failed read did not drop the host: %+v", st)
	}
	if _, err := s.cli.Mread(fd, 0, buf); !errors.Is(err, ErrNoMem) {
		t.Fatalf("read of the dropped descriptor = %v, want ErrNoMem", err)
	}
	// Recovery revalidates the dropped descriptor with the manager.
	deadline := time.Now().Add(5 * time.Second)
	for s.cli.Stats().Revalidations == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the drop never kicked recovery: %+v", s.cli.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	clear(buf)
	if n, err := back.ReadAt(buf, 0); err != nil || n != len(buf) || !bytes.Equal(buf, data) {
		t.Fatalf("backing file = %d, %v; want the confirmed bytes", n, err)
	}
}

// TestCloseDuringHedgedReads: Close races readers on several
// goroutines; every reader ends with ErrClosed and Close returns.
func TestCloseDuringHedgedReads(t *testing.T) {
	for round := 0; round < 3; round++ {
		s := newStack(t, 1, 1<<20)
		back := NewMemBacking(uint64(70+round), 1<<20)
		fd, err := s.cli.Mopen(8192, back, 0)
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte{0x42}, 8192)
		if _, err := s.cli.Mwrite(fd, 0, payload); err != nil {
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
