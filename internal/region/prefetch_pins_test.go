package region

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"dodo/internal/core"
	"dodo/internal/wire"
)

// Two prefetch drives no other test covers — a cache smaller than the
// window, and a walk to the end of a file through a cache that holds a
// whole window — with what each leaves behind pinned per
// PrefetchWindow: the Stats a prefetch can move and every region's
// final state and local bytes. TestPrefetchPins runs each row with 0
// and 1 workers (Quiesce after every access, so a worker pool is
// observed at the same points as the inline pipeline) and against a
// Dodo with and without the BatchReader tombstone, which must not be
// told apart.

type prefetchScenario struct {
	name     string
	capacity int64 // local cache bytes
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
	{ // One region of cache: a window's list is cut to what fits.
		name: "small-cache", capacity: eqRegion,
		drive: func(t *testing.T, c *Cache) []int {
			fds := openRegions(t, c, core.NewMemBacking(1, 1<<20), 6)
			readChecked(t, c, fds, 0)
			readChecked(t, c, fds, 1)
			return fds
		},
	},
	{ // As in the benchmark's sequential workloads.
		name: "walk", capacity: 6 * eqRegion,
		drive: func(t *testing.T, c *Cache) []int {
			fds := openRegions(t, c, core.NewMemBacking(1, 1<<20), 16)
			for i := range fds {
				readChecked(t, c, fds, i)
			}
			return fds
		},
	},
}

// batchingDodo adds the BatchReader tombstone to benchDodo, answering
// the way core.Client does.
type batchingDodo struct {
	*benchDodo
	calls atomic.Int64
}

func (d *batchingDodo) MreadBatch(reqs []core.BatchRead) []core.BatchResult {
	d.calls.Add(1)
	res := make([]core.BatchResult, len(reqs))
	for i, r := range reqs {
		res[i].N, res[i].Err = d.Mread(r.Fd, r.Offset, r.Buf)
	}
	return res
}

// runPrefetchScenario drives s and renders what it left behind: the
// five Stats a prefetch can move, then one token per region — state
// initial (D/L/R/B for disk-only, local, remote, both) and, when local,
// the CRC of the bytes held.
func runPrefetchScenario(t *testing.T, s prefetchScenario, dodo Dodo, window, workers int) string {
	t.Helper()
	c := NewCache(dodo, Config{
		Capacity:           s.capacity,
		Policy:             LRU,
		PromoteOnAccess:    true,
		SequentialPrefetch: true,
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
		r := c.lookup(fd)
		b.WriteString(" " + stateInitial[r.state()])
		if r.local != nil {
			fmt.Fprintf(&b, ":%08x", wire.Checksum(r.local.buf))
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
					want := prefetchPins[s.name][window]
					if got := runPrefetchScenario(t, s, newBenchDodo(1<<20, 0), window, workers); got != want {
						t.Errorf("\n got %s\nwant %s", got, want)
					}
					bd := &batchingDodo{benchDodo: newBenchDodo(1<<20, 0)}
					if got := runPrefetchScenario(t, s, bd, window, workers); got != want {
						t.Errorf("with a BatchReader\n got %s\nwant %s", got, want)
					}
					if bd.calls.Load() == 0 {
						t.Error("no prefetched fill asked the BatchReader")
					}
				})
			}
		}
	}
}

// prefetchPins is keyed by scenario, then window. small-cache reads the
// same at every window: the list is cut to the one region that fits.
var prefetchPins = map[string]map[int]string{
	"small-cache": {1: "pref=1 prom=3 rr=12288 dr=24576 ev=8 | R R B:f2364862 R R R", 2: "pref=1 prom=3 rr=12288 dr=24576 ev=8 | R R B:f2364862 R R R", 4: "pref=1 prom=3 rr=12288 dr=24576 ev=8 | R R B:f2364862 R R R"},
	// At window 4 LRU ages a prefetched region past the ones read since:
	// half the regions here are evicted unread and promoted again on access.
	"walk": {
		1: "pref=14 prom=16 rr=65536 dr=65536 ev=26 | R R R R R R R R R R B:395629f4 B:362910d4 B:ecc83a22 B:860733c9 B:5ce6193f B:0bd5f454",
		2: "pref=14 prom=16 rr=65536 dr=65536 ev=26 | R R R R R R R R R R B:395629f4 B:362910d4 B:ecc83a22 B:860733c9 B:5ce6193f B:0bd5f454",
		4: "pref=14 prom=24 rr=98304 dr=65536 ev=34 | R R R R R R R R R R B:395629f4 B:362910d4 B:ecc83a22 B:860733c9 B:5ce6193f B:0bd5f454",
	},
}
