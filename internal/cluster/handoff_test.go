package cluster

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"dodo/internal/core"
	"dodo/internal/faults"
	"dodo/internal/imd"
	"dodo/internal/manager"
	"dodo/internal/monitor"
	"dodo/internal/sim"
)

// handoffCluster builds a deployment tuned for graceful-reclaim tests:
// generous grace windows so no grant is aborted by a deadline while the
// race detector slows everything down.
func handoffCluster(t *testing.T, hosts []string) (*Cluster, []*Workstation) {
	t.Helper()
	c := New(Config{
		PoolBytes: 1 << 20,
		Monitor:   monitor.Config{IdleAfter: 2 * time.Second},
		Endpoint:  fastEp(),
		Manager: manager.Config{
			KeepAliveInterval: 200 * time.Millisecond,
			KeepAliveMisses:   8,
			HandoffGrace:      10 * time.Second,
		},
		IMD: imd.Config{GraceWindow: 1500 * time.Millisecond},
	})
	t.Cleanup(func() { c.Close() })
	var stations []*Workstation
	for _, name := range hosts {
		w := c.AddWorkstation(name, AlwaysIdle())
		driveIdle(w, 3)
		stations = append(stations, w)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && c.Manager().Stats().IdleHosts < len(hosts) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := c.Manager().Stats().IdleHosts; got != len(hosts) {
		t.Fatalf("idle hosts = %d, want %d", got, len(hosts))
	}
	return c, stations
}

// openRegions opens n regions, writes distinct contents to each, and
// returns the descriptors with their expected bytes.
func openRegions(t *testing.T, cli *core.Client, back *core.MemBacking, n int) ([]int, [][]byte) {
	t.Helper()
	var fds []int
	var want [][]byte
	for i := 0; i < n; i++ {
		fd, err := cli.Mopen(4096, back, int64(i)*4096)
		if err != nil {
			t.Fatalf("Mopen %d: %v", i, err)
		}
		data := make([]byte, 4096)
		rand.New(rand.NewSource(int64(i) + 100)).Read(data)
		if _, err := cli.Mwrite(fd, 0, data); err != nil {
			t.Fatalf("Mwrite %d: %v", i, err)
		}
		fds = append(fds, fd)
		want = append(want, data)
	}
	return fds, want
}

// TestGracefulReclaimHandoff is the acceptance test of the tentpole: on
// an owner return, the draining imd hands its pages to peer imds and
// the manager repoints the region map, so the client's next touch of
// each region revalidates to the new host — served from remote memory,
// not repopulated from disk. At least 70% of the reclaimed host's
// resident pages must take the handoff path (here: all of them).
func TestGracefulReclaimHandoff(t *testing.T) {
	c, stations := handoffCluster(t, []string{"ws0", "ws1", "ws2"})
	cli := c.NewClient("app", core.Config{ClientID: 1, RefractionPeriod: 250 * time.Millisecond})
	back := core.NewMemBacking(55, 1<<20)
	fds, want := openRegions(t, cli, back, 12)

	// Find the workstation hosting the most regions and its residents.
	perHost := map[string][]int{}
	for _, fd := range fds {
		addr, ok := cli.RegionHost(fd)
		if !ok {
			t.Fatalf("region %d has no host before the reclaim", fd)
		}
		perHost[addr] = append(perHost[addr], fd)
	}
	var victim *Workstation
	for _, w := range stations {
		if victim == nil || len(perHost[w.IMDAddr()]) > len(perHost[victim.IMDAddr()]) {
			victim = w
		}
	}
	resident := perHost[victim.IMDAddr()]
	if len(resident) == 0 {
		t.Fatal("no regions landed on the victim host")
	}
	diskBefore := cli.Stats().RemoteReads // baseline not needed; keep reads counted below

	// Owner returns. The imd drains: pages stream to peers, the manager
	// repoints the region map, and the client — kept active so drops
	// trigger its recovery loop — must adopt the handoff copies.
	victim.Reclaim()
	need := (len(resident)*7 + 9) / 10 // ceil(0.7 * resident)
	deadline := time.Now().Add(20 * time.Second)
	buf := make([]byte, 4096)
	for cli.Stats().HandoffAdopts < int64(need) {
		if time.Now().After(deadline) {
			t.Fatalf("HandoffAdopts = %d after 20s, want >= %d (manager: %+v, client: %+v)",
				cli.Stats().HandoffAdopts, need, c.Manager().Stats(), cli.Stats())
		}
		for _, fd := range resident {
			if _, err := cli.Mread(fd, 0, buf); err != nil && !errors.Is(err, core.ErrNoMem) {
				t.Fatalf("Mread during drain = %v", err)
			}
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Every adopted region now lives on a peer and serves the confirmed
	// bytes from remote memory.
	moved := 0
	for i, fd := range fds {
		addr, ok := cli.RegionHost(fd)
		if ok && addr != victim.IMDAddr() {
			if containsFD(resident, fd) {
				moved++
			}
		}
		n, err := cli.Mread(fd, 0, buf)
		if err != nil || n != 4096 || !bytes.Equal(buf, want[i]) {
			t.Fatalf("Mread %d after handoff = %d, %v (match=%v)", fd, n, err, bytes.Equal(buf, want[i]))
		}
	}
	if moved < need {
		t.Fatalf("only %d/%d resident regions moved off the reclaimed host, want >= %d",
			moved, len(resident), need)
	}
	ms := c.Manager().Stats()
	if ms.HandoffOffers == 0 || ms.HandoffPagesMoved < int64(need) {
		t.Fatalf("manager handoff counters too low: %+v", ms)
	}
	if got := cli.Stats().RemoteReads; got <= diskBefore {
		t.Fatal("post-handoff reads were not served from remote memory")
	}
	if st := victim.IMD(); st != nil {
		t.Fatal("victim still recruited after reclaim")
	}
}

func containsFD(fds []int, fd int) bool {
	for _, f := range fds {
		if f == fd {
			return true
		}
	}
	return false
}

// TestHandoffScheduleDeterministic: two identical deployments given the
// same reclaim produce byte-identical handoff schedules — placement is
// a pure function of the directory state and the manager's seed, not of
// goroutine timing.
func TestHandoffScheduleDeterministic(t *testing.T) {
	run := func() ([]string, map[int]string) {
		c, _ := handoffCluster(t, []string{"ws0", "ws1", "ws2"})
		cli := c.NewClient("app", core.Config{ClientID: 1, RefractionPeriod: 250 * time.Millisecond})
		back := core.NewMemBacking(77, 1<<20)
		fds, _ := openRegions(t, cli, back, 10)

		placement := map[int]string{}
		victimAddr := ""
		var victim *Workstation
		for _, fd := range fds {
			addr, ok := cli.RegionHost(fd)
			if !ok {
				t.Fatalf("region %d unplaced", fd)
			}
			placement[fd] = addr
		}
		// Reclaim a fixed host; the client stays quiescent so the only
		// directory mutations are the drain's own.
		victim = c.workstation("ws1")
		victimAddr = victim.IMDAddr()
		onVictim := 0
		for _, addr := range placement {
			if addr == victimAddr {
				onVictim++
			}
		}
		victim.Reclaim()
		deadline := time.Now().Add(15 * time.Second)
		for {
			s := c.Manager().Stats()
			if int(s.HandoffPagesMoved) >= onVictim {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("handoff incomplete: moved %d of %d (aborts %d)",
					s.HandoffPagesMoved, onVictim, s.HandoffAborts)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if s := c.Manager().Stats(); s.HandoffAborts != 0 {
			t.Fatalf("unexpected handoff aborts: %+v", s)
		}
		return c.Manager().HandoffSchedule(), placement
	}

	sched1, place1 := run()
	sched2, place2 := run()
	if len(sched1) == 0 {
		t.Fatal("empty handoff schedule")
	}
	if len(place1) != len(place2) {
		t.Fatalf("placement counts differ: %d vs %d", len(place1), len(place2))
	}
	for fd, addr := range place1 {
		if place2[fd] != addr {
			t.Fatalf("same seed, different placement for fd %d: %s vs %s", fd, addr, place2[fd])
		}
	}
	if len(sched1) != len(sched2) {
		t.Fatalf("same seed, different schedule lengths: %d vs %d\n%v\n%v",
			len(sched1), len(sched2), sched1, sched2)
	}
	for i := range sched1 {
		if sched1[i] != sched2[i] {
			t.Fatalf("same seed, schedules diverge at %d:\n  run1: %s\n  run2: %s", i, sched1[i], sched2[i])
		}
	}
}

// TestReclaimDuringBulkRead drives a seeded reclaim/recruit churn plan
// against a host serving large bulk reads. Whatever instant the owner
// returns — including mid-blast — every read that reports success must
// deliver the complete, correct page (served by the draining imd inside
// its grace window, or by a handoff peer); a read may only otherwise
// fail with ErrNoMem, the fall-back-to-disk contract.
func TestReclaimDuringBulkRead(t *testing.T) {
	c, _ := handoffCluster(t, []string{"ws0", "ws1"})
	cli := c.NewClient("app", core.Config{ClientID: 1, RefractionPeriod: 250 * time.Millisecond})
	back := core.NewMemBacking(91, 1<<20)

	const regionLen = 256 << 10
	fd, err := cli.Mopen(regionLen, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, regionLen)
	rand.New(rand.NewSource(2026)).Read(data)
	if _, err := cli.Mwrite(fd, 0, data); err != nil {
		t.Fatal(err)
	}

	plan := faults.Plan{
		Seed:          1999,
		Duration:      2500 * time.Millisecond,
		Hosts:         []string{"ws0", "ws1"},
		ReclaimMean:   600 * time.Millisecond,
		ReclaimLength: 250 * time.Millisecond,
	}
	sched := faults.NewScheduler(plan, sim.WallClock{}, c.FaultTarget())
	sched.Start()
	done := make(chan struct{})
	go func() { sched.Wait(); close(done) }()

	buf := make([]byte, regionLen)
	reads, ok := 0, 0
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		n, err := cli.Mread(fd, 0, buf)
		reads++
		switch {
		case err == nil:
			if n != regionLen || !bytes.Equal(buf, data) {
				t.Fatalf("read %d: n=%d, correct=%v — a reclaim corrupted an in-flight page",
					reads, n, bytes.Equal(buf, data))
			}
			ok++
		case errors.Is(err, core.ErrNoMem):
			// Region inactive while recovery runs: the app would fall
			// back to the backing file, which Mwrite kept authoritative.
		default:
			t.Fatalf("read %d: unexpected error %v", reads, err)
		}
	}
	if sched.Counts().Reclaims == 0 {
		t.Fatal("plan applied no reclaims; the sweep tested nothing")
	}
	if ok == 0 {
		t.Fatalf("no read completed across %d attempts under reclaim churn", reads)
	}

	// Churn over (every reclaim heals inside the plan): remote service
	// resumes and the bytes are still exact.
	deadline := time.Now().Add(15 * time.Second)
	for {
		n, err := cli.Mread(fd, 0, buf)
		if err == nil && n == regionLen && cli.RegionValid(fd) {
			if !bytes.Equal(buf, data) {
				t.Fatal("post-churn read returned wrong bytes")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("remote service never resumed: n=%d err=%v", n, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Logf("reads=%d ok=%d counts=%v client=%+v manager=%+v",
		reads, ok, sched.Counts(), cli.Stats(), c.Manager().Stats())
}
