package locks

import (
	"sync"
	"testing"
)

// TestHierarchyIsTotalOrder pins the declared ranks as a dense total
// order: every named rank is distinct, between the sentinels, and the
// outermost-to-innermost reading order of the const block matches the
// numeric order the runtime compares.
func TestHierarchyIsTotalOrder(t *testing.T) {
	ordered := []Rank{
		RankCluster, RankWorkstation, RankFaults, RankMonitor,
		RankManager, RankIMD, RankRegionCache, RankCoreClient,
		RankBacking, RankReadDst, RankBulkEndpoint, RankBulkTransfer,
		RankSegment, RankSocket, RankUDP,
	}
	if len(ordered) != int(rankSentinel)-1 {
		t.Fatalf("hierarchy lists %d ranks, const block declares %d", len(ordered), int(rankSentinel)-1)
	}
	for i := 1; i < len(ordered); i++ {
		if ordered[i-1] >= ordered[i] {
			t.Errorf("rank %v (%d) not below %v (%d)", ordered[i-1], ordered[i-1], ordered[i], ordered[i])
		}
	}
	seen := make(map[string]Rank)
	for _, r := range ordered {
		name := r.String()
		if name == "rank?" || name == "unset" {
			t.Errorf("rank %d has no name", r)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("ranks %d and %d share the name %q", prev, r, name)
		}
		seen[name] = r
	}
}

// TestMutexIsALocker proves the wrapper satisfies sync.Locker so
// sync.NewCond can be built over it (usocket and the in-memory
// transport both do).
func TestMutexIsALocker(t *testing.T) {
	var m Mutex
	m.SetRank(RankSocket)
	var _ sync.Locker = &m
	cond := sync.NewCond(&m)
	ready := false
	go func() {
		m.Lock()
		ready = true
		cond.Signal()
		m.Unlock()
	}()
	m.Lock()
	for !ready {
		cond.Wait()
	}
	m.Unlock()
}

// TestOrderedAcquisition exercises the happy path in both build modes:
// strictly increasing ranks must always be accepted.
func TestOrderedAcquisition(t *testing.T) {
	var outer, inner Mutex
	outer.SetRank(RankManager)
	inner.SetRank(RankBulkEndpoint)
	for i := 0; i < 3; i++ {
		outer.Lock()
		inner.Lock()
		inner.Unlock()
		outer.Unlock()
	}
}

// TestNonLIFOUnlock pins that hand-over-hand unlock order is legal:
// the held-stack must tolerate releasing the outer lock first.
func TestNonLIFOUnlock(t *testing.T) {
	var outer, inner Mutex
	outer.SetRank(RankCluster)
	inner.SetRank(RankWorkstation)
	outer.Lock()
	inner.Lock()
	outer.Unlock()
	inner.Unlock()
	// The goroutine must be back to a clean slate: re-acquiring the
	// outer rank would panic under lockcheck if the release leaked.
	outer.Lock()
	outer.Unlock()
}
