package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"dodo/internal/bulk"
	"dodo/internal/core"
	"dodo/internal/manager"
	"dodo/internal/monitor"
	"dodo/internal/trace"
)

var t0 = time.Date(1999, 8, 2, 10, 0, 0, 0, time.UTC)

// fastEp keeps protocol timers short. A call to a crashed host or a
// crashed manager waits its timeouts out, since the segment, as
// Ethernet, drops a frame to an unbound address without a word; the
// schedules crash hosts often enough that those waits set the tests'
// pace.
func fastEp() bulk.Config {
	return bulk.Config{
		CallTimeout:   100 * time.Millisecond,
		CallRetries:   3,
		WindowTimeout: 80 * time.Millisecond,
		NackDelay:     30 * time.Millisecond,
	}
}

func fastCluster(t *testing.T, hosts int) *Cluster {
	t.Helper()
	c := New(Config{
		PoolBytes: 1 << 20,
		Monitor:   monitor.Config{IdleAfter: 2 * time.Second},
		Endpoint:  fastEp(),
		Manager: manager.Config{
			KeepAliveInterval: 200 * time.Millisecond,
			KeepAliveMisses:   3,
		},
	})
	t.Cleanup(func() { c.Close() })
	return c
}

// driveIdle steps a workstation's monitor past the idle threshold.
func driveIdle(w *Workstation, seconds int) {
	for i := 0; i <= seconds; i++ {
		w.Step(t0.Add(time.Duration(i) * time.Second))
	}
}

func TestRecruitmentLifecycle(t *testing.T) {
	c := fastCluster(t, 1)
	w := c.AddWorkstation("ws1", AlwaysIdle())
	if w.IMD() != nil {
		t.Fatal("imd running before recruitment")
	}
	driveIdle(w, 3)
	if w.Monitor().State() != monitor.StateIdle {
		t.Fatal("workstation not idle after quiet period")
	}
	if w.IMD() == nil {
		t.Fatal("recruitment did not fork an imd")
	}
	// Manager learns about the host.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if c.Manager().Stats().IdleHosts == 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("manager never saw the recruited host")
}

func TestReclaimKillsIMDAndInformsManager(t *testing.T) {
	c := fastCluster(t, 1)
	active := map[int]bool{10: true}
	w := c.AddWorkstation("ws1", Scripted(t0, active))
	driveIdle(w, 9) // idle by t=2s+, recruited
	if w.IMD() == nil {
		t.Fatal("precondition: imd should be up")
	}
	w.Step(t0.Add(10 * time.Second)) // owner returns
	if w.IMD() != nil {
		t.Fatal("reclaim left the imd running")
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if c.Manager().Stats().IdleHosts == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("manager still lists the reclaimed host as idle")
}

func TestEpochAdvancesAcrossIncarnations(t *testing.T) {
	c := fastCluster(t, 1)
	active := map[int]bool{5: true}
	w := c.AddWorkstation("ws1", Scripted(t0, active))
	driveIdle(w, 4)
	first := w.IMD()
	if first == nil {
		t.Fatal("no imd after first idle period")
	}
	e1 := first.Epoch()
	w.Step(t0.Add(5 * time.Second)) // reclaim
	// Idle again: second incarnation.
	for i := 6; i <= 9; i++ {
		w.Step(t0.Add(time.Duration(i) * time.Second))
	}
	second := w.IMD()
	if second == nil {
		t.Fatal("no imd after second idle period")
	}
	if second.Epoch() <= e1 {
		t.Fatalf("epoch did not advance: %d then %d", e1, second.Epoch())
	}
}

func TestEndToEndApplicationOverLiveCluster(t *testing.T) {
	c := fastCluster(t, 3)
	for _, name := range []string{"ws1", "ws2", "ws3"} {
		w := c.AddWorkstation(name, AlwaysIdle())
		driveIdle(w, 3)
	}
	// Wait for the manager to see all three hosts.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && c.Manager().Stats().IdleHosts < 3 {
		time.Sleep(10 * time.Millisecond)
	}
	if got := c.Manager().Stats().IdleHosts; got != 3 {
		t.Fatalf("idle hosts = %d, want 3", got)
	}

	cli := c.NewClient("app", core.Config{ClientID: 1})
	back := core.NewMemBacking(42, 1<<20)
	data := bytes.Repeat([]byte("cluster"), 4096/7+1)[:4096]

	var fds []int
	for i := 0; i < 6; i++ {
		fd, err := cli.Mopen(4096, back, int64(i)*4096)
		if err != nil {
			t.Fatalf("Mopen %d: %v", i, err)
		}
		if _, err := cli.Mwrite(fd, 0, data); err != nil {
			t.Fatalf("Mwrite %d: %v", i, err)
		}
		fds = append(fds, fd)
	}
	for i, fd := range fds {
		got := make([]byte, 4096)
		n, err := cli.Mread(fd, 0, got)
		if err != nil || n != 4096 || !bytes.Equal(got, data) {
			t.Fatalf("Mread %d = %d, %v", i, n, err)
		}
	}
	// Regions actually spread across the hosts' imds.
	total := 0
	for _, w := range c.workstations {
		if d := w.IMD(); d != nil {
			total += d.Stats().Regions
		}
	}
	if total != 6 {
		t.Fatalf("regions across imds = %d, want 6", total)
	}
}

func TestReclaimInvalidatesClientRegions(t *testing.T) {
	c := fastCluster(t, 1)
	active := map[int]bool{60: true}
	w := c.AddWorkstation("ws1", Scripted(t0, active))
	driveIdle(w, 4)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && c.Manager().Stats().IdleHosts < 1 {
		time.Sleep(10 * time.Millisecond)
	}

	cli := c.NewClient("app", core.Config{ClientID: 1})
	back := core.NewMemBacking(7, 1<<20)
	fd, err := cli.Mopen(4096, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Mwrite(fd, 0, bytes.Repeat([]byte{1}, 4096)); err != nil {
		t.Fatal(err)
	}
	// Owner returns; the imd drains in the background. With no peer to
	// hand its pages to, the drain ends with the region gone: reads may
	// still be served during the grace window, but must then fail with
	// ErrNoMem so the app falls back to its backing file.
	w.Step(t0.Add(60 * time.Second))
	buf := make([]byte, 4096)
	deadline = time.Now().Add(5 * time.Second)
	for {
		_, err := cli.Mread(fd, 0, buf)
		if errors.Is(err, core.ErrNoMem) {
			break
		}
		if err != nil {
			t.Fatalf("Mread after reclaim = %v, want ErrNoMem", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("Mread kept succeeding long after the drain grace window")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if cli.RegionValid(fd) {
		t.Fatal("descriptor still valid after host reclaim")
	}
	// Data still intact on disk.
	if !bytes.Equal(back.Bytes()[:4096], bytes.Repeat([]byte{1}, 4096)) {
		t.Fatal("backing lost the written data")
	}
}

func TestClusterCloseIdempotent(t *testing.T) {
	c := fastCluster(t, 1)
	w := c.AddWorkstation("ws1", AlwaysIdle())
	driveIdle(w, 3)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTraceDrivenChurn drives workstations with the calibrated §2
// traces at simulated-minute granularity: hosts are recruited and
// reclaimed as their synthetic owners come and go, and the manager's
// view tracks the monitors'.
func TestTraceDrivenChurn(t *testing.T) {
	c := New(Config{
		PoolBytes: 1 << 20,
		// One trace minute per sample; 5 samples of quiet = recruit.
		Monitor:  monitor.Config{IdleAfter: 5 * time.Minute, SampleInterval: time.Minute},
		Endpoint: fastEp(),
		Manager:  manager.Config{KeepAliveInterval: time.Hour, Endpoint: fastEp()},
	})
	t.Cleanup(func() { c.Close() })

	// Busy-heavy profile so churn happens within a simulated day.
	profile := trace.ActivityProfile{MeanBusy: 30 * time.Minute, MeanIdle: 90 * time.Minute, WorkBias: 1}
	var stations []*Workstation
	for i := 0; i < 4; i++ {
		h := trace.NewHost(trace.Class128MB, profile, int64(i)*37+1)
		stations = append(stations, c.AddWorkstation(fmt.Sprintf("tw%d", i), trace.NewMonitorSource(h)))
	}
	start := time.Date(1999, 8, 2, 0, 0, 0, 0, time.UTC)
	transitions := 0
	for m := 0; m < 24*60; m++ { // one simulated day
		now := start.Add(time.Duration(m) * time.Minute)
		for _, w := range stations {
			w.Step(now)
		}
	}
	recruitedNow := 0
	for _, w := range stations {
		transitions += w.Monitor().Transitions()
		if w.IMD() != nil {
			recruitedNow++
			if w.Monitor().State() != monitor.StateIdle {
				t.Fatal("imd running on a busy host")
			}
		} else if w.Monitor().State() == monitor.StateIdle {
			t.Fatal("idle host without an imd")
		}
	}
	if transitions < 8 {
		t.Fatalf("only %d recruit/reclaim transitions in a simulated day; churn too low", transitions)
	}
	// Manager eventually agrees with the monitors' current view.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && c.Manager().Stats().IdleHosts != recruitedNow {
		time.Sleep(10 * time.Millisecond)
	}
	if got := c.Manager().Stats().IdleHosts; got != recruitedNow {
		t.Fatalf("manager sees %d idle hosts, monitors say %d", got, recruitedNow)
	}
}
