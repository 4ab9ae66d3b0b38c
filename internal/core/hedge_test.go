package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"dodo/internal/imd"
	"dodo/internal/manager"
	"dodo/internal/transport"
)

// hedgeStack builds a deployment whose client hedges aggressively: any
// host with one latency sample gets a near-zero hedge delay, so every
// subsequent remote read races a disk read.
func hedgeStack(t *testing.T, imdCount int) *stack {
	t.Helper()
	n := transport.NewNetwork(transport.WithMTU(1500))
	mgr := manager.New(n.Host("cmd"), manager.Config{
		KeepAliveInterval: 200 * time.Millisecond,
		KeepAliveMisses:   3,
		Endpoint:          fastEp(),
	})
	s := &stack{n: n, mgr: mgr}
	for i := 0; i < imdCount; i++ {
		d := imd.New(n.Host("imd"+string(rune('0'+i))), imd.Config{
			ManagerAddr:    "cmd",
			PoolSize:       1 << 20,
			Epoch:          1,
			StatusInterval: 100 * time.Millisecond,
			Endpoint:       fastEp(),
		})
		s.imds = append(s.imds, d)
	}
	s.cli = New(n.Host("client"), Config{
		ManagerAddr:      "cmd",
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
	c := s.cli

	if _, hedge := c.hedgeDelay("imd0", 1); hedge {
		t.Fatal("hedged with no samples at all")
	}
	c.recordLatency("imd0", 1, 10*time.Millisecond)
	d, hedge := c.hedgeDelay("imd0", 1)
	if !hedge {
		t.Fatal("not hedging with a sample on the books")
	}
	if want := 40 * time.Millisecond; d != want { // multiplier default 4
		t.Fatalf("hedge delay = %v, want %v", d, want)
	}
	// The host restarts under a new epoch: its history is void, the
	// first read of the new incarnation must go unhedged.
	if _, hedge := c.hedgeDelay("imd0", 2); hedge {
		t.Fatal("hedged the first read to a fresh incarnation")
	}
	c.recordLatency("imd0", 2, 100*time.Microsecond)
	d, hedge = c.hedgeDelay("imd0", 2)
	if !hedge {
		t.Fatal("new incarnation never warmed up")
	}
	if want := 2 * time.Millisecond; d != want { // floored (default 2ms)
		t.Fatalf("floored hedge delay = %v, want %v", d, want)
	}

	// DisableHedging wins over any history.
	off := New(s.n.Host("client2"), Config{
		ManagerAddr: "cmd", ClientID: 2, DisableHedging: true, Endpoint: fastEp(),
	})
	t.Cleanup(func() { off.Close() })
	off.recordLatency("imd0", 1, 10*time.Millisecond)
	if _, hedge := off.hedgeDelay("imd0", 1); hedge {
		t.Fatal("DisableHedging did not disable hedging")
	}
}

// TestHedgedReadsStayFresh: with hedging forced on, reads race the
// backing store — and must still always return the latest written
// bytes, because Mwrite writes through to the backing before
// confirming. The first read stays unhedged (cold start), later reads
// hedge and stay correct across interleaved writes.
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
	s.n.Partition("imd0")
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
