package cluster

import (
	"bytes"
	"fmt"
	"log"
	"sync"
	"testing"
	"time"

	"dodo/internal/core"
	"dodo/internal/faults"
	"dodo/internal/manager"
	"dodo/internal/monitor"
	"dodo/internal/region"
	"dodo/internal/sim"
	"dodo/internal/simnet"
	"dodo/internal/workload"
)

const (
	sweepReqSize = 8 << 10
	sweepBlocks  = 16
	sweepDataset = sweepBlocks * sweepReqSize
)

func sweepPlan(hosts []string) faults.Plan {
	return faults.Plan{
		Seed:           1999,
		Duration:       2500 * time.Millisecond,
		Hosts:          hosts,
		CrashMean:      700 * time.Millisecond,
		RestartDelay:   250 * time.Millisecond,
		BlackoutMean:   1100 * time.Millisecond,
		BlackoutLength: 300 * time.Millisecond,
		ReclaimMean:    900 * time.Millisecond,
		ReclaimLength:  300 * time.Millisecond,
		DegradeMean:    800 * time.Millisecond,
		DegradeLength:  250 * time.Millisecond,
		Link: simnet.Faults{
			LossRate:     0.15,
			DupRate:      0.05,
			ReorderRate:  0.10,
			ReorderDelay: 2 * time.Millisecond,
		},
	}
}

// sweepCluster builds a 3-workstation deployment with every host
// recruited and registered at the manager.
func sweepCluster(t *testing.T) (*Cluster, []*Workstation, []string) {
	t.Helper()
	c := New(Config{
		PoolBytes: 1 << 20,
		Monitor:   monitor.Config{IdleAfter: 2 * time.Second},
		Endpoint:  fastEp(),
		Manager: manager.Config{
			KeepAliveInterval: 200 * time.Millisecond,
			// Generous miss budget: a scheduled manager blackout must not
			// look like a dead client.
			KeepAliveMisses: 8,
		},
	})
	t.Cleanup(func() { c.Close() })
	names := []string{"ws0", "ws1", "ws2"}
	var stations []*Workstation
	for _, name := range names {
		w := c.AddWorkstation(name, AlwaysIdle())
		driveIdle(w, 3)
		stations = append(stations, w)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && c.Manager().Stats().IdleHosts < len(names) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := c.Manager().Stats().IdleHosts; got != len(names) {
		t.Fatalf("idle hosts = %d, want %d", got, len(names))
	}
	return c, stations, names
}

// TestFaultScheduleDeterministic: one plan replayed against two freshly
// built live clusters applies the identical event sequence and tallies
// identical final counts — the same-seed ⇒ same-faults contract — and
// leaves both deployments fully healed.
func TestFaultScheduleDeterministic(t *testing.T) {
	plan := sweepPlan([]string{"ws0", "ws1", "ws2"})
	plan.Duration = 1200 * time.Millisecond

	replay := func() (string, faults.Counts, []*Workstation) {
		c, stations, _ := sweepCluster(t)
		s := faults.NewScheduler(plan, sim.NewVirtualClock(t0), c.FaultTarget())
		for el := time.Duration(0); el <= plan.Duration; el += 25 * time.Millisecond {
			s.Step(el)
		}
		if s.Remaining() != 0 {
			t.Fatalf("%d events left unapplied", s.Remaining())
		}
		return faults.Timeline(s.Events()), s.Counts(), stations
	}
	tl1, c1, st1 := replay()
	tl2, c2, st2 := replay()
	if tl1 == "" {
		t.Fatal("empty schedule")
	}
	if tl1 != tl2 {
		t.Fatalf("same seed, different timelines:\n--- run 1\n%s--- run 2\n%s", tl1, tl2)
	}
	if c1 != c2 {
		t.Fatalf("same seed, different final counts: %v vs %v", c1, c2)
	}
	// Every down window heals inside the plan, so both deployments end
	// with all hosts recruited.
	for _, stations := range [][]*Workstation{st1, st2} {
		for _, w := range stations {
			if w.IMD() == nil {
				t.Fatalf("workstation %s not recruited after a completed schedule", w.Name)
			}
		}
	}
}

// sweepWorkload drives one access pattern through a region cache whose
// runtime descriptors live on the churning cluster, checking every read
// against a shadow copy.
type sweepWorkload struct {
	name   string
	pat    workload.Pattern
	back   *core.MemBacking
	cache  *region.Cache
	trace  *sweepTrace
	fds    []int
	shadow []byte
	ver    byte
}

func newSweepWorkload(t *testing.T, cli *core.Client, tr *sweepTrace, inode uint64, pat workload.Pattern) *sweepWorkload {
	t.Helper()
	w := &sweepWorkload{
		name:  pat.Name(),
		pat:   pat,
		back:  core.NewMemBacking(inode, 1<<20),
		trace: tr,
		cache: region.NewCache(newTraceDodo(pat.Name(), cli, tr), region.Config{
			Capacity:         4 * sweepReqSize, // force evictions into remote memory
			RefractionPeriod: 250 * time.Millisecond,
			PromoteOnAccess:  true,
		}),
		shadow: make([]byte, sweepDataset),
	}
	for b := 0; b < sweepBlocks; b++ {
		fd, err := w.cache.Copen(sweepReqSize, w.back, int64(b)*sweepReqSize)
		if err != nil {
			t.Fatalf("%s: Copen block %d: %v", w.name, b, err)
		}
		w.fds = append(w.fds, fd)
	}
	return w
}

// fill produces deterministic, version-stamped block contents.
func (w *sweepWorkload) fill(buf []byte, block int, ver byte) {
	for i := range buf {
		buf[i] = byte(block)*31 ^ byte(i) ^ ver
	}
}

// run loops the pattern until done closes (at least two iterations),
// issuing a write every third request. Cache operations must never fail
// under churn — the cache degrades to the backing file internally — and
// every read must match the shadow copy.
func (w *sweepWorkload) run(done <-chan struct{}) error {
	buf := make([]byte, sweepReqSize)
	for iter := 0; ; iter++ {
		if iter >= 2 {
			select {
			case <-done:
				return nil
			default:
			}
		}
		for qi, req := range w.pat.Iteration(iter) {
			block := int(req.Offset / sweepReqSize)
			n, err := w.cache.Cread(w.fds[block], 0, buf)
			if err != nil || n != sweepReqSize {
				return fmt.Errorf("%s iter %d: Cread block %d = %d, %v", w.name, iter, block, n, err)
			}
			if !bytes.Equal(buf, w.shadow[req.Offset:req.Offset+sweepReqSize]) {
				return fmt.Errorf("%s iter %d: stale read at block %d", w.name, iter, block)
			}
			if qi%3 == 0 {
				w.ver++
				w.fill(buf, block, w.ver)
				if n, err := w.cache.Cwrite(w.fds[block], 0, buf); err != nil || n != sweepReqSize {
					return fmt.Errorf("%s iter %d: Cwrite block %d = %d, %v", w.name, iter, block, n, err)
				}
				copy(w.shadow[req.Offset:], buf)
			}
		}
	}
}

// readPass reads every block once, verifying against the shadow, and
// reports how many bytes were served from remote memory during the pass.
func (w *sweepWorkload) readPass() (int64, error) {
	before := w.cache.Stats().RemoteReads
	buf := make([]byte, sweepReqSize)
	for b, fd := range w.fds {
		n, err := w.cache.Cread(fd, 0, buf)
		if err != nil || n != sweepReqSize {
			return 0, fmt.Errorf("%s: read pass block %d = %d, %v", w.name, b, n, err)
		}
		if !bytes.Equal(buf, w.shadow[int64(b)*sweepReqSize:int64(b+1)*sweepReqSize]) {
			// The fill is version-stamped (buf[i] = block*31 ^ i ^ ver), so
			// recover which version was served to aid diagnosis.
			st, _ := w.cache.State(fd)
			gotVer := buf[0] ^ byte(b)*31
			wantVer := w.shadow[int64(b)*sweepReqSize] ^ byte(b)*31
			var back [1]byte
			_, _ = w.back.ReadAt(back[:], int64(b)*sweepReqSize)
			hist := ""
			if w.trace != nil {
				hist = "\ntrace:\n" + w.trace.dump(fmt.Sprintf("%s blk%d ", w.name, b), "dodo:")
			}
			return 0, fmt.Errorf("%s: read pass stale block %d: served ver %d, want ver %d (backing ver %d, state %v)%s",
				w.name, b, gotVer, wantVer, back[0]^byte(b)*31, st, hist)
		}
	}
	return w.cache.Stats().RemoteReads - before, nil
}

// runSweepCore drives the three access patterns through region caches
// while the given fault plan churns the cluster, then verifies
// quiescent byte-correctness and waits for remote service to resume.
// It returns the client, the workloads and the settle poller so callers
// can stage further failure phases on top.
func runSweepCore(t *testing.T, c *Cluster, plan faults.Plan) (*core.Client, []*sweepWorkload, func(string)) {
	t.Helper()
	tr := newSweepTrace()
	cli := c.NewClient("app", core.Config{
		ClientID: 1, RefractionPeriod: 250 * time.Millisecond,
		Logger: log.New(tr, "", 0),
	})

	wls := []*sweepWorkload{
		newSweepWorkload(t, cli, tr, 101, workload.Sequential{DatasetBytes: sweepDataset, ReqSize: sweepReqSize}),
		newSweepWorkload(t, cli, tr, 102, workload.HotCold{DatasetBytes: sweepDataset, ReqSize: sweepReqSize, Seed: 2}),
		newSweepWorkload(t, cli, tr, 103, workload.Random{DatasetBytes: sweepDataset, ReqSize: sweepReqSize, Seed: 3}),
	}

	sched := faults.NewScheduler(plan, sim.WallClock{}, c.FaultTarget())
	done := make(chan struct{})
	sched.Start()
	go func() { sched.Wait(); close(done) }()

	var wg sync.WaitGroup
	errs := make(chan error, len(wls))
	for _, w := range wls {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- w.run(done)
		}()
	}
	wg.Wait()
	for range wls {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if sched.Remaining() != 0 {
		t.Fatalf("%d scheduled faults never fired", sched.Remaining())
	}
	t.Logf("sweep applied: %v", sched.Counts())
	t.Logf("client stats after churn: %+v", cli.Stats())

	// Byte-correctness at quiescence: flush write-back state and compare
	// the backing files to the shadows.
	for _, w := range wls {
		for b, fd := range w.fds {
			if err := w.cache.Csync(fd); err != nil {
				t.Fatalf("%s: Csync block %d: %v", w.name, b, err)
			}
		}
		if !bytes.Equal(w.back.Bytes()[:sweepDataset], w.shadow) {
			t.Fatalf("%s: backing file diverged from shadow after the sweep", w.name)
		}
	}

	// The schedule heals everything it breaks, so remote service must
	// come back: poll until a read pass serves bytes from remote memory.
	waitRemote := func(phase string) {
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			var remote int64
			for _, w := range wls {
				n, err := w.readPass()
				if err != nil {
					t.Fatalf("%s: %v", phase, err)
				}
				remote += n
			}
			if remote > 0 {
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatalf("%s: remote reads never resumed", phase)
	}
	waitRemote("post-churn settle")
	return cli, wls, waitRemote
}

// TestSeededFaultSweep is the acceptance sweep of the failure-path work:
// three access patterns run through region caches while a seeded
// schedule crashes, drains, restarts, partitions and degrades the
// cluster. Nothing may panic, no cache operation may fail, every read
// must be byte-correct against the shadow copy, and once churn subsides
// the client must transparently re-open its regions and serve from
// remote memory again. The hosts' receive rings are bounded, as on
// U-Net, and the sweep overflows them: blasts from several imds meet
// at the client's ring, so the bytes stay correct through ring drops
// as well as wire loss.
func TestSeededFaultSweep(t *testing.T) {
	c, stations, names := sweepCluster(t)
	cli, wls, waitRemote := runSweepCore(t, c, sweepPlan(names))
	if n := c.Segment().Overflow(); n == 0 {
		t.Fatal("no frame overflowed a receive ring: the sweep never filled one")
	} else {
		t.Logf("frames dropped at full receive rings: %d", n)
	}

	// Forced cluster-wide outage: crash every imd, then restart with
	// bumped epochs. The first touch of each healthy remote copy drops
	// the host; the background recovery must then revalidate, re-open
	// and repopulate without any application-level Mopen.
	for _, w := range stations {
		w.Crash()
	}
	for _, w := range wls {
		if _, err := w.readPass(); err != nil {
			t.Fatalf("read pass during total outage: %v", err)
		}
	}
	if st := cli.Stats(); st.DropEvents == 0 {
		t.Fatalf("DropEvents = 0 after a cluster-wide crash: %+v", st)
	}
	for _, w := range stations {
		w.Recruit()
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		st := cli.Stats()
		if st.Reopens > 0 && st.Revalidations > 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if st := cli.Stats(); st.Reopens == 0 || st.Revalidations == 0 {
		t.Fatalf("recovery never re-opened a region after restart: %+v", st)
	}
	waitRemote("post-restart recovery")

	// No descriptor leaks: failed clone attempts under churn must not
	// leave orphan fds behind for the recovery loop to grind on.
	if st := cli.Stats(); st.OpenRegions != len(wls)*sweepBlocks {
		t.Fatalf("client leaked region descriptors: OpenRegions = %d, want %d", st.OpenRegions, len(wls)*sweepBlocks)
	}

	// Cluster-wide counters made it to the manager via keep-alive acks.
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && c.Manager().Stats().Client["drops"] == 0 {
		time.Sleep(50 * time.Millisecond)
	}
	if s := c.Manager().Stats(); s.Client["drops"] == 0 {
		t.Fatalf("manager never aggregated client drop counters: %+v", s)
	}
	t.Logf("final client stats: %+v", cli.Stats())
}
