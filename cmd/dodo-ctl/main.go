// dodo-ctl inspects a running Dodo cluster: it queries the central
// manager for its idle-workstation directory and operation counters.
//
// The manager keeps no persistent state, so dodo-ctl may race a crash:
// when the query fails it retries under a capped-exponential backoff
// (long enough to ride out a restart and the directory rebuild) before
// giving up.
//
// Usage:
//
//	dodo-ctl -manager cmdhost:7000 [-watch 5s] [-retry 30s]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"

	"dodo"
	"dodo/internal/retry"
	"dodo/internal/sim"
)

func main() {
	managerAddr := flag.String("manager", "", "central manager address (required)")
	watch := flag.Duration("watch", 0, "refresh interval (0 = print once and exit)")
	retryFor := flag.Duration("retry", 30*time.Second, "keep retrying an unreachable manager this long (0 = fail fast)")
	flag.Parse()
	if *managerAddr == "" {
		log.Fatal("dodo-ctl: -manager is required")
	}
	for {
		stats, err := query(*managerAddr, *retryFor)
		if err != nil {
			log.Fatalf("dodo-ctl: %v", err)
		}
		print(os.Stdout, stats)
		if *watch <= 0 {
			return
		}
		sim.WallClock{}.Sleep(*watch)
		fmt.Fprintln(os.Stdout)
	}
}

// query polls the manager, riding out a crash/restart window with a
// capped-backoff retry budget instead of failing on the first timeout.
func query(addr string, retryFor time.Duration) (dodo.ClusterState, error) {
	clock := sim.WallClock{}
	budget := retry.New(retry.Policy{
		Deadline: retryFor,
		Base:     250 * time.Millisecond,
		Cap:      5 * time.Second,
		Factor:   2,
	}, clock, nil)
	for {
		stats, err := dodo.QueryCluster(addr)
		if err == nil {
			return stats, nil
		}
		delay, more := budget.Next()
		if !more {
			return dodo.ClusterState{}, err
		}
		fmt.Fprintf(os.Stderr, "dodo-ctl: %v; retrying in %v\n", err, delay.Round(time.Millisecond))
		clock.Sleep(delay)
	}
}

// print writes the manager's header line, one "name value" line per
// counter in name order, the per-host corruption breakdown and the
// idle-host table.
func print(w io.Writer, s dodo.ClusterState) {
	fmt.Fprintf(w, "manager: incarnation %d, %d idle hosts, %d regions, %d clients\n",
		s.Incarnation, len(s.Hosts), s.Regions, s.Clients)
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-32s %d\n", name, s.Counters[name])
	}
	for _, h := range s.CorruptHosts {
		fmt.Fprintf(w, "corrupt frames from %-24s %d\n", h.Addr, h.Count)
	}
	if len(s.Hosts) == 0 {
		return
	}
	fmt.Fprintf(w, "%-24s %8s %12s %12s\n", "host", "epoch", "avail", "largest")
	for _, h := range s.Hosts {
		fmt.Fprintf(w, "%-24s %8d %9d MB %9d MB\n", h.Addr, h.Epoch, h.AvailBytes>>20, h.LargestFree>>20)
	}
}
