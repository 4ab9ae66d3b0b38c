package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckCounts: the count gate reads the last line, holds == to the
// fourth decimal and < strictly, and never passes a failed run or a
// metric the result does not carry.
func TestCheckCounts(t *testing.T) {
	const ok = `{"correct":true,"attempted":10,"failed":0,"metrics":{"a.frames_per_op":{"value":5.23751,"unit":"1/op"},"b.offers":{"value":0,"unit":"1/kop"}}}`
	for _, tc := range []struct {
		name, in, expect string
		misses           int
	}{
		{"met", "building...\n" + ok + "\n", "a.frames_per_op==5.2375,b.offers==0,a.frames_per_op<5.3", 0},
		{"fifth decimal off", ok, "a.frames_per_op==5.2376", 1},
		{"not strictly below", ok, "b.offers<0", 1},
		{"absent metric", ok, "c.gone==0", 1},
		{"failed operations", strings.Replace(ok, `"failed":0`, `"failed":2`, 1), "b.offers==0", 1},
		{"incorrect run", strings.Replace(ok, `"correct":true`, `"correct":false`, 1), "b.offers==0", 1},
	} {
		misses, err := checkCounts(strings.NewReader(tc.in), tc.expect)
		if err != nil || len(misses) != tc.misses {
			t.Errorf("%s: checkCounts = %q, %v; want %d misses", tc.name, misses, err, tc.misses)
		}
	}
	for _, bad := range []struct{ in, expect string }{{"", "b.offers==0"}, {"not json", "b.offers==0"}, {ok, "b.offers>=0"}} {
		if _, err := checkCounts(strings.NewReader(bad.in), bad.expect); err == nil {
			t.Errorf("checkCounts(%q, %q) succeeded, want an error", bad.in, bad.expect)
		}
	}
}

func TestRegresses(t *testing.T) {
	for _, tc := range []struct {
		unit   string
		ov, nv float64
		want   bool
	}{
		{"ns/op", 100, 110, false},
		{"ns/op", 100, 111, true},
		{"ns/op", 100, 50, false},
		// allocs/op must rise by more than 1 and by more than 2 %.
		{"allocs/op", 0, 1, false},
		{"allocs/op", 0, 2, true},
		{"allocs/op", 3, 5, true},
		{"allocs/op", 185, 187, false},
		{"allocs/op", 185, 189, true},
		{"allocs/op", 185, 100, false},
		// Nothing else gates.
		{"B/op", 64, 6400, false},
		{"MB/s", 2000, 20, false},
	} {
		if got := regresses(tc.unit, tc.ov, tc.nv); got != tc.want {
			t.Errorf("regresses(%q, %v, %v) = %v, want %v", tc.unit, tc.ov, tc.nv, got, tc.want)
		}
	}
}

// TestCompareReportsGatesSharedBenchmarksOnly: an allocs/op rise fails
// the comparison only for a benchmark both reports hold.
func TestCompareReportsGatesSharedBenchmarksOnly(t *testing.T) {
	write := func(name string, benches ...benchResult) string {
		path := filepath.Join(t.TempDir(), name)
		data, err := json.Marshal(benchReport{Benchmarks: benches})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := func(name string, ns, allocs float64) benchResult {
		return benchResult{Name: name, Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs}}
	}
	base := write("old.json", bench("BenchmarkA", 100, 1), bench("BenchmarkGone", 100, 1))
	for _, tc := range []struct {
		name string
		now  []benchResult
		want bool
	}{
		{"unchanged", []benchResult{bench("BenchmarkA", 100, 1)}, false},
		{"one more alloc", []benchResult{bench("BenchmarkA", 100, 2)}, false},
		{"two more allocs", []benchResult{bench("BenchmarkA", 100, 3)}, true},
		{"new benchmark", []benchResult{bench("BenchmarkA", 100, 1), bench("BenchmarkNew", 1e9, 1e6)}, false},
	} {
		got, err := compareReports(io.Discard, base, write("new.json", tc.now...))
		if err != nil || got != tc.want {
			t.Errorf("%s: compareReports = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
}
