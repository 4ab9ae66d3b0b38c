//go:build lockcheck

package cluster

import (
	"bytes"
	"testing"
	"time"

	"dodo/internal/core"
	"dodo/internal/monitor"
)

// TestGuardedByCleanScheduleNoRankPanics is the dynamic half of the
// guarded-by contract (DESIGN.md §8.4): the static pass proves every
// annotated field access holds its declared mutex, and this test runs
// the same annotated components — manager, imd, client, monitor,
// cluster — through a recruit/write/read/reclaim schedule with the
// lockcheck runtime compiled in. A schedule the pass accepts must
// complete without a rank panic; any panic here means an acquisition
// the annotations describe violates the rank hierarchy at runtime.
func TestGuardedByCleanScheduleNoRankPanics(t *testing.T) {
	c := fastCluster(t, 2)
	ws1 := c.AddWorkstation("ws1", AlwaysIdle())
	driveIdle(ws1, 3)
	active := map[int]bool{8: true}
	ws2 := c.AddWorkstation("ws2", Scripted(t0, active))
	driveIdle(ws2, 3)

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && c.Manager().Stats().IdleHosts < 2 {
		time.Sleep(10 * time.Millisecond)
	}
	if got := c.Manager().Stats().IdleHosts; got != 2 {
		t.Fatalf("idle hosts = %d, want 2", got)
	}

	cli := c.NewClient("app", core.Config{ClientID: 1})
	back := core.NewMemBacking(42, 1<<20)
	data := bytes.Repeat([]byte("guarded"), 4096/7+1)[:4096]
	var fds []int
	for i := 0; i < 4; i++ {
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
		if n, err := cli.Mread(fd, 0, got); err != nil || n != 4096 {
			t.Fatalf("Mread %d = %d, %v", i, n, err)
		}
	}

	// Reclaim ws2 mid-life so the drain/handoff lock paths run too.
	for i := 4; i <= 8; i++ {
		ws2.Step(t0.Add(time.Duration(i) * time.Second))
	}
	if ws2.IMD() != nil {
		t.Fatal("reclaim left ws2's imd running")
	}
	if ws2.Monitor().State() != monitor.StateBusy {
		t.Fatal("ws2 not busy after owner return")
	}
	// Reads still answer after the reclaim (recovery paths take the
	// same annotated locks).
	got := make([]byte, 4096)
	if n, err := cli.Mread(fds[0], 0, got); err != nil || n != 4096 {
		t.Fatalf("post-reclaim Mread = %d, %v", n, err)
	}
}
