package region

import (
	"fmt"
	"strings"
	"testing"

	"dodo/internal/core"
	"dodo/internal/wire"
)

// The prefetch suite as data: each scenario is one of the prefetch
// tests of prefetch_test.go and concurrency_test.go reduced to its
// drive (open, access, Quiesce after every access so a worker pool is
// observed at the same points as the inline pipeline). The table below
// pins, per scenario and PrefetchWindow, what the pull (prefetch →
// fillRegion → Mread) leaves behind: the Stats a prefetch can move and
// every region's final state and local bytes. The pins were taken at
// d748fa1, against a Dodo with no batched read. TestPrefetchPins runs
// each row with 0 and 1 workers.

type prefetchScenario struct {
	name     string
	capacity int64 // local cache bytes
	remote   int64 // fake remote pool bytes
	firstIn  bool  // the first-in policy and explicit Prefetch only, no sequential detection
	drive    func(t *testing.T, c *Cache) []int
}

const eqRegion = 4096

// openRegions opens n contiguous regions of back, each filled with the
// byte i+1 on disk, and returns their descriptors.
func openRegions(t *testing.T, c *Cache, back core.Backing, n int) []int {
	t.Helper()
	var fds []int
	for i := 0; i < n; i++ {
		if _, err := back.WriteAt(patterned(i), int64(i)*eqRegion); err != nil {
			t.Fatal(err)
		}
		fd, err := c.Copen(eqRegion, back, int64(i)*eqRegion)
		if err != nil {
			t.Fatal(err)
		}
		fds = append(fds, fd)
	}
	return fds
}

func patterned(i int) []byte {
	p := make([]byte, eqRegion)
	for j := range p {
		p[j] = byte(i + 1)
	}
	return p
}

// readChecked reads region i whole, checks its pattern and lets the
// pipeline settle.
func readChecked(t *testing.T, c *Cache, fds []int, i int) {
	t.Helper()
	buf := make([]byte, eqRegion)
	if n, err := c.Cread(fds[i], 0, buf); err != nil || n != eqRegion {
		t.Fatalf("Cread region %d = %d, %v", i, n, err)
	}
	if want := patterned(i); string(buf) != string(want) {
		t.Fatalf("region %d reads byte %d, want %d", i, buf[0], want[0])
	}
	c.Quiesce()
}

var prefetchScenarios = []prefetchScenario{
	{ // TestSequentialAccessPrefetchesNextRegion
		name: "sequential", capacity: eqRegion, remote: 1 << 20,
		drive: func(t *testing.T, c *Cache) []int {
			fds := openRegions(t, c, core.NewMemBacking(1, 1<<20), 6)
			readChecked(t, c, fds, 0)
			readChecked(t, c, fds, 1)
			return fds
		},
	},
	{ // TestExplicitPrefetchAPI
		name: "explicit", capacity: 2 * eqRegion, remote: 1 << 20, firstIn: true,
		drive: func(t *testing.T, c *Cache) []int {
			fds := openRegions(t, c, core.NewMemBacking(1, 1<<20), 3)
			c.Prefetch(fds[2])
			c.Prefetch(fds[2])
			c.Prefetch(9999)
			return fds
		},
	},
	{ // TestPrefetchDataIntegrity
		name: "integrity", capacity: eqRegion, remote: 1 << 20,
		drive: func(t *testing.T, c *Cache) []int {
			fds := openRegions(t, c, core.NewMemBacking(1, 1<<20), 4)
			for i, fd := range fds {
				if _, err := c.Cwrite(fd, 0, patterned(i)); err != nil {
					t.Fatal(err)
				}
				c.Quiesce()
			}
			for i := range fds {
				readChecked(t, c, fds, i)
			}
			return fds
		},
	},
	{ // TestInterleavedSequentialStreams
		name: "interleaved", capacity: eqRegion, remote: 1 << 20,
		drive: func(t *testing.T, c *Cache) []int {
			a := openRegions(t, c, core.NewMemBacking(1, 1<<20), 4)
			b := openRegions(t, c, core.NewMemBacking(2, 1<<20), 4)
			for i := 0; i < 2; i++ {
				readChecked(t, c, a, i)
				readChecked(t, c, b, i)
			}
			return append(a, b...)
		},
	},
	{ // TestNoPrefetchAfterFailedRead
		name: "failed-read", capacity: eqRegion / 2, remote: 0,
		drive: func(t *testing.T, c *Cache) []int {
			back := &failingBacking{MemBacking: core.NewMemBacking(1, 1<<20)}
			fds := openRegions(t, c, back, 3)
			readChecked(t, c, fds, 0)
			back.fail.Store(true)
			if _, err := c.Cread(fds[1], 0, make([]byte, eqRegion)); err == nil {
				t.Fatal("read with failing disk and no remote copy succeeded")
			}
			c.Quiesce()
			return fds
		},
	},
	{ // TestPrefetchWorkerPool
		name: "after-close", capacity: eqRegion, remote: 1 << 20,
		drive: func(t *testing.T, c *Cache) []int {
			fds := openRegions(t, c, core.NewMemBacking(1, 1<<20), 8)
			readChecked(t, c, fds, 0)
			readChecked(t, c, fds, 1)
			c.Close()
			readChecked(t, c, fds, 3)
			return fds
		},
	},
	{ // A walk to the end of the file through a cache that holds a
		// whole window, as in the benchmark's sequential workloads.
		name: "walk", capacity: 6 * eqRegion, remote: 1 << 20,
		drive: func(t *testing.T, c *Cache) []int {
			fds := openRegions(t, c, core.NewMemBacking(1, 1<<20), 16)
			for i := range fds {
				readChecked(t, c, fds, i)
			}
			return fds
		},
	},
}

// runPrefetchScenario drives s and renders what it left behind: the five Stats a prefetch can move, then one token per
// region — state initial (D/L/R/B for disk-only, local, remote, both)
// and, when local, the CRC of the bytes held.
func runPrefetchScenario(t *testing.T, s prefetchScenario, window, workers int) string {
	t.Helper()
	var policy Policy = NewLRU()
	if s.firstIn {
		policy = NewFirstIn()
	}
	c := NewCache(newBenchDodo(s.remote, 0), Config{
		Capacity:           s.capacity,
		Policy:             policy,
		PromoteOnAccess:    true,
		SequentialPrefetch: !s.firstIn,
		PrefetchWindow:     window,
		PrefetchWorkers:    workers,
	})
	defer c.Close()
	fds := s.drive(t, c)
	c.Quiesce()
	st := c.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "pref=%d prom=%d rr=%d dr=%d ev=%d |", st.Prefetches, st.Promotions, st.RemoteReads, st.DiskReads, st.Evictions)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, fd := range fds {
		r := c.regions[fd]
		b.WriteString(" " + stateInitial[r.state()])
		if r.local != nil {
			fmt.Fprintf(&b, ":%08x", wire.Checksum(r.local))
		}
	}
	return b.String()
}

var stateInitial = map[State]string{StateDiskOnly: "D", StateLocal: "L", StateRemote: "R", StateLocalRemote: "B"}

func TestPrefetchPins(t *testing.T) {
	for _, s := range prefetchScenarios {
		for _, window := range []int{1, 2, 4} {
			for _, workers := range []int{0, 1} {
				t.Run(fmt.Sprintf("%s/window=%d/workers=%d", s.name, window, workers), func(t *testing.T) {
					if got, want := runPrefetchScenario(t, s, window, workers), prefetchPins[s.name][window]; got != want {
						t.Errorf("\n got %s\nwant %s", got, want)
					}
				})
			}
		}
	}
}

// prefetchPins is keyed by scenario, then window. Where the local cache
// (one region) is smaller than the window, each region of the list is
// filled in turn and evicts its predecessor: one more promotion,
// eviction and remote read per extra region, the last one left local.
var prefetchPins = map[string]map[int]string{
	"sequential": {
		1: "pref=1 prom=3 rr=12288 dr=24576 ev=8 | R R B:f2364862 R R R",
		2: "pref=2 prom=4 rr=16384 dr=24576 ev=9 | R R R B:fd497142 R R",
		4: "pref=4 prom=6 rr=24576 dr=24576 ev=11 | R R R R R B:4d67525f",
	},
	"explicit": {
		1: "pref=2 prom=0 rr=0 dr=12288 ev=0 | L:42186b7f L:28d76294 R",
		2: "pref=2 prom=0 rr=0 dr=12288 ev=0 | L:42186b7f L:28d76294 R",
		4: "pref=2 prom=0 rr=0 dr=12288 ev=0 | L:42186b7f L:28d76294 R",
	},
	"integrity": {
		1: "pref=2 prom=8 rr=32768 dr=16384 ev=11 | R R R B:fd497142",
		2: "pref=3 prom=10 rr=40960 dr=16384 ev=13 | R R R B:fd497142",
		4: "pref=3 prom=10 rr=40960 dr=16384 ev=13 | R R R B:fd497142",
	},
	"interleaved": {
		1: "pref=2 prom=6 rr=24576 dr=32768 ev=13 | R R R R R R B:f2364862 R",
		2: "pref=4 prom=8 rr=32768 dr=32768 ev=15 | R R R R R R R B:fd497142",
		4: "pref=4 prom=8 rr=32768 dr=32768 ev=15 | R R R R R R R B:fd497142",
	},
	"failed-read": {
		1: "pref=0 prom=0 rr=0 dr=4096 ev=0 | D D D",
		2: "pref=0 prom=0 rr=0 dr=4096 ev=0 | D D D",
		4: "pref=0 prom=0 rr=0 dr=4096 ev=0 | D D D",
	},
	"after-close": {
		1: "pref=1 prom=4 rr=16384 dr=32768 ev=11 | R R R B:fd497142 R R R R",
		2: "pref=2 prom=4 rr=16384 dr=32768 ev=11 | R R R B:fd497142 R R R R",
		4: "pref=4 prom=7 rr=28672 dr=32768 ev=14 | R R R B:fd497142 R R R R",
	},
	"walk": {
		1: "pref=14 prom=16 rr=65536 dr=65536 ev=26 | R R R R R R R R R R B:395629f4 B:362910d4 B:ecc83a22 B:860733c9 B:5ce6193f B:0bd5f454",
		2: "pref=14 prom=16 rr=65536 dr=65536 ev=26 | R R R R R R R R R R B:395629f4 B:362910d4 B:ecc83a22 B:860733c9 B:5ce6193f B:0bd5f454",
		4: "pref=14 prom=24 rr=98304 dr=65536 ev=34 | R R R R R R R R R R B:395629f4 B:362910d4 B:ecc83a22 B:860733c9 B:5ce6193f B:0bd5f454",
	},
}
