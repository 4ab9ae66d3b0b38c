package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dodo"
	"dodo/internal/wire"
)

// TestPrintListsEveryCounterOnceInNameOrder: print shows whatever
// counters the manager reported, each on one "name value" line, in name
// order, zeros included, between the header line and the host table.
func TestPrintListsEveryCounterOnceInNameOrder(t *testing.T) {
	s := dodo.ClusterState{
		Hosts:       []wire.HostInfo{{Addr: "ws-1:7070", Epoch: 3, AvailBytes: 64 << 20, LargestFree: 32 << 20}},
		Regions:     4,
		Clients:     2,
		Incarnation: 7,
		Counters: map[string]uint64{
			"frees": 0, "allocs": 12, "client.drops": 5, "client.never_heard_of": 1 << 40, "alloc_failures": 0,
		},
		CorruptHosts: []wire.HostCount{{Addr: "ws-2:7070", Count: 3}},
	}
	var out bytes.Buffer
	print(&out, s)
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")

	if want := "manager: incarnation 7, 1 idle hosts, 4 regions, 2 clients"; lines[0] != want {
		t.Errorf("header = %q, want %q", lines[0], want)
	}
	want := []string{"alloc_failures", "allocs", "client.drops", "client.never_heard_of", "frees"}
	for i, name := range want {
		f := strings.Fields(lines[1+i])
		if len(f) != 2 || f[0] != name || f[1] != fmt.Sprint(s.Counters[name]) {
			t.Errorf("line %d = %q, want %s %d", 1+i, lines[1+i], name, s.Counters[name])
		}
	}
	for name := range s.Counters {
		if n := strings.Count(out.String(), name+" "); n != 1 {
			t.Errorf("counter %s printed %d times, want once", name, n)
		}
	}
	rest := strings.Join(lines[1+len(want):], "\n")
	for _, sub := range []string{"corrupt frames from ws-2:7070", "ws-1:7070", "64 MB", "32 MB"} {
		if !strings.Contains(rest, sub) {
			t.Errorf("output after the counters lacks %q:\n%s", sub, out.String())
		}
	}
}
