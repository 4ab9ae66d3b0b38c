package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

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
