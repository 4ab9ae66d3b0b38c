// dodo-bench regenerates the paper's tables and figures from the
// reimplemented system (see DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured results).
//
// Usage:
//
//	dodo-bench -exp all            # everything at paper scale
//	dodo-bench -exp fig8 -scale 0.125
//	dodo-bench -exp table1,fig1,fig2,fig7,fig8,reclaim,ablations,transport
//	dodo-bench -gobench out.json          # one pass of go test -bench
//	dodo-bench -compare old.json new.json # per-metric deltas + gate
//	dodo-bench -counts 'name==v,name<v'   # gate a benchmark/run.sh result on stdin
//
// -gobench runs the repository benchmark suite once per benchmark
// (go test -bench . -benchtime 1x), parses the standard benchmark
// output — ns/op, B/op, allocs/op and custom units alike — and writes
// it as JSON to the named file. verify.sh uses it (with -pkgs and
// -benchtime 1s) to measure against the frozen BENCH_*_base.json.
//
// -compare diffs two such reports benchmark by benchmark, printing the
// percentage change of every shared metric, and exits non-zero when
// any shared benchmark's ns/op regressed by more than 10%, or its
// allocs/op by more than 1 and more than 2%. verify.sh runs it as the
// perf gate against those baselines.
//
// -counts reads the result line benchmark/run.sh prints (the last line
// on stdin) and exits non-zero unless the run was correct, no
// operation failed, and every listed metric meets its expectation:
// name==v holds to the fourth decimal, name<v strictly. verify.sh
// feeds it fixed-op traced passes (-seconds 0 -trace 1), whose frame
// and call counts are the same on every machine.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"dodo/internal/experiments"
	"dodo/internal/sim"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments: table1,fig1,fig2,fig7,fig8,reclaim,ablations,transport,all")
	scale := flag.Float64("scale", 1.0, "dataset/memory scale factor (1 = paper scale)")
	seed := flag.Int64("seed", 1999, "random seed")
	duration := flag.Duration("duration", 7*24*time.Hour, "monitoring-period length for the §2 study")
	csvDir := flag.String("csv", "", "also write plot-ready CSV files into this directory")
	gobench := flag.String("gobench", "", "run 'go test -bench . -benchtime 1x' once and write parsed results as JSON to this file, then exit")
	benchtime := flag.String("benchtime", "1x", "go test -benchtime for -gobench (e.g. 1x for a smoke pass, 1s for gating-quality numbers)")
	pkgs := flag.String("pkgs", "", "comma-separated package list for -gobench (default: the standard suite)")
	compare := flag.Bool("compare", false, "compare two -gobench JSON reports (old new); exit 1 on a >10% ns/op or a >1 and >2% allocs/op regression")
	counts := flag.String("counts", "", "check the benchmark/run.sh result on stdin against comma-separated expectations, name==value or name<value; exit 1 on a miss")
	flag.Parse()
	if *counts != "" {
		misses, err := checkCounts(os.Stdin, *counts)
		if err != nil {
			log.Fatalf("dodo-bench: %v", err)
		}
		for _, m := range misses {
			fmt.Println("COUNT GATE:", m)
		}
		if len(misses) > 0 {
			os.Exit(1)
		}
		return
	}
	if *gobench != "" {
		var pkgList []string
		if *pkgs != "" {
			pkgList = strings.Split(*pkgs, ",")
		}
		if err := runGoBench(*gobench, pkgList, *benchtime); err != nil {
			log.Fatalf("dodo-bench: %v", err)
		}
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			log.Fatalf("dodo-bench: -compare wants exactly two arguments: old.json new.json")
		}
		regressed, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			log.Fatalf("dodo-bench: %v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatalf("dodo-bench: %v", err)
		}
	}
	writeCSV := func(name string, fn func(f *os.File) error) {
		if *csvDir == "" {
			return
		}
		path := filepath.Join(*csvDir, name)
		f, err := os.Create(path)
		if err != nil {
			log.Fatalf("dodo-bench: %v", err)
		}
		if err := fn(f); err != nil {
			log.Fatalf("dodo-bench: writing %s: %v", path, err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("dodo-bench: %v", err)
		}
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	ran := false
	out := os.Stdout

	if all || want["table1"] {
		ran = true
		fmt.Fprintln(out, "=== Table 1 ===")
		experiments.FormatTable1(out, experiments.Table1(6, *duration, *seed))
		fmt.Fprintln(out)
	}
	if all || want["fig1"] {
		ran = true
		fmt.Fprintln(out, "=== Figure 1 ===")
		res := experiments.Figure1(*duration, *seed)
		experiments.FormatFigure1(out, res)
		for _, r := range res {
			experiments.FormatFigure1Series(out, r, 24)
			r := r
			writeCSV("fig1_"+r.Cluster+".csv", func(f *os.File) error {
				return experiments.WriteFigure1CSV(f, r)
			})
		}
		fmt.Fprintln(out)
	}
	if all || want["fig2"] {
		ran = true
		fmt.Fprintln(out, "=== Figure 2 ===")
		f2 := experiments.Figure2(*duration, *seed)
		experiments.FormatFigure2(out, f2)
		for _, r := range f2 {
			r := r
			writeCSV("fig2_"+r.Class+".csv", func(f *os.File) error {
				return experiments.WriteFigure2CSV(f, r)
			})
		}
		fmt.Fprintln(out)
	}
	if all || want["fig7"] {
		ran = true
		fmt.Fprintln(out, "=== Figure 7 ===")
		rows, err := experiments.Figure7(experiments.Figure7Config{Scale: *scale, Seed: *seed})
		if err != nil {
			log.Fatalf("dodo-bench: figure 7: %v", err)
		}
		experiments.FormatFigure7(out, rows)
		writeCSV("fig7.csv", func(f *os.File) error {
			return experiments.WriteFigure7CSV(f, rows)
		})
		fmt.Fprintln(out)
	}
	if all || want["fig8"] {
		ran = true
		fmt.Fprintln(out, "=== Figure 8 ===")
		rows, err := experiments.Figure8(experiments.Figure8Config{Scale: *scale, Seed: *seed})
		if err != nil {
			log.Fatalf("dodo-bench: figure 8: %v", err)
		}
		experiments.FormatFigure8(out, rows)
		writeCSV("fig8.csv", func(f *os.File) error {
			return experiments.WriteFigure8CSV(f, rows)
		})
		fmt.Fprintln(out)
	}
	if all || want["reclaim"] {
		ran = true
		fmt.Fprintln(out, "=== Reclamation (§5.3.1) ===")
		rows := experiments.Reclamation(experiments.ReclaimConfig{
			Hosts: 24, Duration: *duration, Seed: *seed,
		})
		experiments.FormatReclamation(out, rows)
		writeCSV("reclaim.csv", func(f *os.File) error {
			return experiments.WriteReclaimCSV(f, rows)
		})
		fmt.Fprintln(out)
	}
	if all || want["ablations"] {
		ran = true
		fmt.Fprintln(out, "=== Ablations ===")
		experiments.FormatAllocator(out, experiments.AllocatorAblation(64<<20, 20000, *seed))
		fmt.Fprintln(out)
		policyRows, err := experiments.PolicyAblation(minf(*scale, 0.0625), *seed)
		if err != nil {
			log.Fatalf("dodo-bench: policy ablation: %v", err)
		}
		experiments.FormatPolicy(out, policyRows)
		fmt.Fprintln(out)
		refRows, err := experiments.RefractionAblation(minf(*scale, 0.0625), *seed)
		if err != nil {
			log.Fatalf("dodo-bench: refraction ablation: %v", err)
		}
		experiments.FormatRefraction(out, refRows)
		fmt.Fprintln(out)
		preRows, err := experiments.PrefetchAblation(minf(*scale, 0.0625), *seed)
		if err != nil {
			log.Fatalf("dodo-bench: prefetch ablation: %v", err)
		}
		experiments.FormatPrefetch(out, preRows)
		fmt.Fprintln(out)
		experiments.FormatHeadroom(out, experiments.HeadroomAblation(16, 3*24*time.Hour, *seed))
		fmt.Fprintln(out)
		nackRows, err := experiments.NackAblation(sim.WallClock{}, 0.05, 8, 256<<10, *seed)
		if err != nil {
			log.Fatalf("dodo-bench: NACK ablation: %v", err)
		}
		experiments.FormatNack(out, nackRows)
		fmt.Fprintln(out)
	}
	if all || want["transport"] {
		ran = true
		fmt.Fprintln(out, "=== Transport microbenchmark ===")
		experiments.FormatTransport(out, experiments.TransportMicro())
		fmt.Fprintln(out)
	}
	if !ran {
		log.Fatalf("dodo-bench: unknown experiment selection %q", *exp)
	}
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// benchResult is one parsed `go test -bench` line: the benchmark name
// (GOMAXPROCS suffix stripped), its iteration count, and every reported
// metric keyed by unit ("ns/op", "B/op", custom units alike).
type benchResult struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// benchReport is the -gobench output file shape. The trajectory scripts
// compare Metrics across BENCH_*.json snapshots, so the shape is flat
// and self-describing.
type benchReport struct {
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	Benchtime  string        `json:"benchtime"`
	Command    string        `json:"command"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// runGoBench executes the repository benchmark suite and writes the
// parsed results to path as JSON. The default -benchtime 1x keeps it a
// smoke-speed perf seed, not a statistically settled measurement: the
// value is the committed trajectory, refined by later full runs. A
// caller that wants gating-quality numbers passes a real benchtime and
// (usually) a narrower package list.
func runGoBench(path string, pkgList []string, benchtime string) error {
	// The root package carries the end-to-end workload benchmarks;
	// internal/region carries the cache-level parallel benches
	// (BenchmarkCreadParallel, BenchmarkPrefetchPipeline) that track the
	// concurrent-cache trajectory; internal/bulk carries the data-plane
	// benches (offer-driven vs eager transfer, over the in-memory fabric
	// and over usocket framing); internal/core and internal/imd carry
	// the read exchange seen from either end (BenchmarkSmallRead, the
	// inline shape through a full stack; BenchmarkServeRead8KB, the
	// eager shape against one daemon); internal/wire and internal/pool
	// the codec and the allocator under them; internal/usocket,
	// internal/transport and internal/sim the per-frame costs under all
	// of them (one frame through a socket and through the transport
	// adapter, one datagram through the fabric and through loopback
	// UDP, the virtual clock's event queue). Benchmark names are
	// distinct across the ten, so the flat report stays collision-free.
	if len(pkgList) == 0 {
		pkgList = []string{".", "./internal/region", "./internal/bulk", "./internal/core",
			"./internal/imd", "./internal/wire", "./internal/pool",
			"./internal/usocket", "./internal/transport", "./internal/sim"}
	}
	if benchtime == "" {
		benchtime = "1x"
	}
	args := append([]string{"test", "-bench", ".", "-benchtime", benchtime, "-run", "^$"}, pkgList...)
	cmd := exec.Command("go", args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	report := benchReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Benchtime: benchtime,
		Command:   "go " + strings.Join(args, " "),
	}
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name N v1 unit1 v2 unit2 ... — anything shorter is a header
		// or a benchmark that reported nothing.
		if len(fields) < 2 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		res := benchResult{Name: name, Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			res.Metrics[fields[i+1]] = v
		}
		report.Benchmarks = append(report.Benchmarks, res)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(report.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines in go test output")
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkCounts reads a benchmark/run.sh result, the last line of r, and
// returns what it misses of expect: a run that is not correct or has
// failed operations, and every metric that is absent or does not meet
// its expectation.
func checkCounts(r io.Reader, expect string) (misses []string, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var res struct {
		Correct bool
		Failed  int
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("-counts: no benchmark result on stdin: %w", err)
	}
	if !res.Correct || res.Failed != 0 {
		misses = append(misses, fmt.Sprintf("run is correct=%v with %d failed operations", res.Correct, res.Failed))
	}
	for _, e := range strings.Split(expect, ",") {
		op := "=="
		name, num, ok := strings.Cut(e, op)
		if !ok {
			op = "<"
			name, num, ok = strings.Cut(e, op)
		}
		want, perr := strconv.ParseFloat(num, 64)
		if !ok || perr != nil {
			return nil, fmt.Errorf("-counts: %q is not name==value or name<value", e)
		}
		m, present := res.Metrics[name]
		switch {
		case !present:
			misses = append(misses, fmt.Sprintf("%s is not in the result", name))
		case op == "==" && math.Abs(m.Value-want) >= 0.00005, op == "<" && m.Value >= want:
			misses = append(misses, fmt.Sprintf("%s = %.4f, want %s %v", name, m.Value, op, want))
		}
	}
	return misses, nil
}

// loadReport reads one -gobench JSON snapshot.
func loadReport(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// regressionThreshold is the ns/op growth, old to new, past which
// -compare fails the comparison.
const regressionThreshold = 0.10

// regresses reports whether a metric's move from ov to nv fails the
// comparison: ns/op up by more than regressionThreshold, or allocs/op
// up by more than 1 and by more than 2 % — the first depends on the
// machine the baseline was taken on, the second does not. No other
// unit gates.
func regresses(unit string, ov, nv float64) bool {
	switch unit {
	case "ns/op":
		return ov > 0 && (nv-ov)/ov > regressionThreshold
	case "allocs/op":
		return nv-ov > 1 && nv-ov > 0.02*ov
	}
	return false
}

// compareReports prints per-benchmark metric deltas between two
// -gobench snapshots and reports whether any metric of a benchmark
// present in both regressed, as regresses defines it. Benchmarks or
// metrics present on only one side are listed but never gate: a new
// benchmark has no baseline, and a removed one has no measurement.
func compareReports(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return false, err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return false, err
	}
	oldBy := make(map[string]benchResult, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		oldBy[b.Name] = b
	}
	seen := make(map[string]bool)
	for _, nb := range newRep.Benchmarks {
		seen[nb.Name] = true
		ob, shared := oldBy[nb.Name]
		if !shared {
			fmt.Fprintf(w, "%-44s (new benchmark, no baseline)\n", nb.Name)
			continue
		}
		fmt.Fprintf(w, "%s\n", nb.Name)
		units := make([]string, 0, len(nb.Metrics))
		for unit := range nb.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			nv := nb.Metrics[unit]
			ov, ok := ob.Metrics[unit]
			if !ok {
				fmt.Fprintf(w, "  %-16s %14.4g  (no baseline)\n", unit, nv)
				continue
			}
			var pct float64
			if ov != 0 {
				pct = (nv - ov) / ov * 100
			}
			mark := ""
			if regresses(unit, ov, nv) {
				regressed = true
				mark = "  REGRESSION"
			}
			fmt.Fprintf(w, "  %-16s %14.4g -> %-14.4g %+7.1f%%%s\n", unit, ov, nv, pct, mark)
		}
	}
	for _, ob := range oldRep.Benchmarks {
		if !seen[ob.Name] {
			fmt.Fprintf(w, "%-44s (removed; present only in %s)\n", ob.Name, oldPath)
		}
	}
	return regressed, nil
}
