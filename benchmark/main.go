// Command benchmark is the real-stack benchmark of this repository: it
// boots a manager, four imds, a client runtime and a region cache in
// one process, over the usocket U-Net emulation or UDP loopback, drives
// five named workloads through them in a closed loop with verified
// bytes, and reports end-to-end and per-layer metrics. README.md in
// this directory defines every workload and metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// fixedTrials is the number of measured trials of a run whose trials
	// have a fixed op count (-seconds 0).
	fixedTrials = 12
	// trialLen is the length of a trial of a time-bounded run, which has
	// as many trials as it has seconds. A second holds at least one
	// garbage collection cycle of every allocating workload.
	trialLen = time.Second
	// setups is how many times a time-bounded run boots and populates
	// the stack; setup_s is the median.
	setups = 3
	// maxSetups bounds the extra set-ups a short set-up gets.
	maxSetups = 15
	// passCap bounds a pass that has a fixed op count: the measured
	// trials share it, the traced trial gets a third of it. It also
	// bounds a warm-up.
	passCap = 45 * time.Second
)

// procDelta is the process-wide cost of the measured trials.
type procDelta struct {
	cpu, gcPause        time.Duration
	mallocs, allocBytes uint64
	gcCycles            uint32
}

type procSnapshot struct {
	cpu time.Duration
	mem runtime.MemStats
}

func readProc() procSnapshot {
	var s procSnapshot
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

func (a procSnapshot) until(b procSnapshot) procDelta {
	return procDelta{
		cpu:        b.cpu - a.cpu,
		gcPause:    time.Duration(b.mem.PauseTotalNs - a.mem.PauseTotalNs),
		mallocs:    b.mem.Mallocs - a.mem.Mallocs,
		allocBytes: b.mem.TotalAlloc - a.mem.TotalAlloc,
		gcCycles:   b.mem.NumGC - a.mem.NumGC,
	}
}

// measuredPass is the pass the end-to-end metrics come from: no
// decorator is installed.
type measuredPass struct {
	w      *workload
	setups []setupTimes
	// warm is the warm-up: verified like a trial, never timed.
	warm      trialResult
	trials    []trialResult
	proc      procDelta
	memLiveMB float64
	// verifyBad counts regions of a file-backed workload that failed
	// the final Csync or differ from the shadow copy afterwards.
	verifyBad int64
	configs   map[string]map[string]any
}

func (p *measuredPass) attempted() (ops, failed int64) {
	ops, failed = p.warm.ops, p.warm.failed
	for i := range p.trials {
		ops += p.trials[i].ops
		failed += p.trials[i].failed
	}
	return ops, failed + p.verifyBad
}

// plan is the shape of a pass: how many trials, and what bounds each.
type plan struct {
	trials int
	per    budget
}

// warmUp runs the workload's fixed warm-up op count on a fresh stack, so
// that the trials start from the state the op stream itself produces
// and not from the populate pass's.
func warmUp(s *stack, ds *dataSet, streams []*opStream) trialResult {
	return runTrial(s, ds, streams, budget{ops: s.w.Warmup, dur: passCap}, nil)
}

// measure sets the stack up, warms it, reads mem_live_mb, runs the
// measured trials and then sets up nSetups-1 more times, so that
// setup_s is a median. mem_live_mb is read after the warm-up, which has
// a fixed op count, and not after the trials: every completed transfer
// stays in bulk's tables for 30 s, so after time-bounded trials a faster
// program would read as a larger one. The extra set-ups come last: a
// closed stack stays reachable from the same tombstone timers and would
// otherwise count in mem_live_mb and in the collector's pacing.
func measure(w *workload, ds *dataSet, seed int64, pl plan, nSetups int) (*measuredPass, error) {
	p := &measuredPass{w: w}
	s, t, err := setup(w, nil, ds.backing)
	if err != nil {
		return nil, err
	}
	p.setups = append(p.setups, t)
	p.configs = s.configs
	streams := newOpStreams(w, seed)
	p.warm = warmUp(s, ds, streams)
	s.cache.Quiesce()
	runtime.GC()
	runtime.GC() // the second cycle drops what sync.Pool kept through the first
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.memLiveMB = float64(ms.HeapAlloc) / (1 << 20)
	p.trials = make([]trialResult, 0, pl.trials)
	before := readProc()
	for t := 0; t < pl.trials; t++ {
		p.trials = append(p.trials, runTrial(s, ds, streams, pl.per, nil))
	}
	p.proc = before.until(readProc())
	if w.FileBacked {
		if p.verifyBad, err = verifyBacking(s, ds); err != nil {
			s.close()
			return nil, err
		}
	}
	s.close()
	// A set-up of a few milliseconds needs more than nSetups samples
	// for a steady median: keep going until they add up to a second.
	spent := t.total()
	for i := 1; i < nSetups || (nSetups > 1 && i < maxSetups && spent < time.Second); i++ {
		extra, t, err := setup(w, nil, ds.backing)
		if err != nil {
			return nil, err
		}
		extra.close()
		p.setups = append(p.setups, t)
		spent += t.total()
	}
	return p, nil
}

// tracedPass is one trial on a stack with every decorator installed.
type tracedPass struct {
	tracer        *tracer
	warm, trial   trialResult
	before, after stackStats
	verifyBad     int64
}

func traced(w *workload, ds *dataSet, seed int64, b budget) (*tracedPass, error) {
	tp := &tracedPass{tracer: newTracer()}
	s, _, err := setup(w, tp.tracer, ds.backing)
	if err != nil {
		return nil, err
	}
	defer s.close()
	streams := newOpStreams(w, seed+1)
	tp.warm = warmUp(s, ds, streams)
	s.cache.Quiesce()
	tp.tracer.startWindow()
	tp.before = s.stats()
	tp.trial = runTrial(s, ds, streams, b, tp.tracer)
	s.cache.Quiesce()
	tp.tracer.endWindow()
	tp.after = s.stats()
	if w.FileBacked {
		if tp.verifyBad, err = verifyBacking(s, ds); err != nil {
			return nil, err
		}
	}
	return tp, nil
}

// traceFile is the content of out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	// Approximate: more than one goroutine issued requests, so a span's
	// op and every self time are approximate.
	Approximate bool      `json:"approximate"`
	Ops         int64     `json:"ops"`
	Spans       []span    `json:"spans"`
	Aggregates  metricSet `json:"aggregates"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// result is one workload's outcome in the report.
type result struct {
	Workload  string                    `json:"workload"`
	Transport string                    `json:"transport"`
	Configs   map[string]map[string]any `json:"configs"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	EndToEnd  metricSet                 `json:"end_to_end"`
	PerLayer  metricSet                 `json:"per_layer,omitempty"`
}

// environment is recorded with every report.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Note       string `json:"note"`
}

func environmentOf(seed int64) environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Commit: commit, Seed: seed,
		Note: "closed loop, no think time; udp is 127.0.0.1 loopback, not a link; unet is the in-process usocket emulation",
	}
}

// runWorkload runs one workload: the measured pass with the run's
// set-ups, or — given the probes' metrics — the measured pass with one
// set-up, then the traced pass and the per-layer metrics. measured is
// the shape of the measured pass, tracedB bounds the traced trial.
func runWorkload(w *workload, seed int64, measured plan, tracedB budget, probes metricSet, outDir string) (*result, error) {
	ds, err := newDataSet(w, seed, outDir)
	if err != nil {
		return nil, fmt.Errorf("%s: data set: %w", w.Name, err)
	}
	defer ds.close()
	nSetups := setups
	if probes != nil {
		nSetups = 1
	}
	p, err := measure(w, ds, seed, measured, nSetups)
	if err != nil {
		return nil, fmt.Errorf("%s: measured pass: %w", w.Name, err)
	}
	r := &result{Workload: w.Name, Transport: w.Transport, Configs: p.configs, EndToEnd: endToEnd(p)}
	r.Attempted, r.Failed = p.attempted()
	if probes == nil {
		return r, nil
	}
	tp, err := traced(w, ds, seed, tracedB)
	if err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", w.Name, err)
	}
	r.PerLayer = perLayer(p, tp, probes)
	r.Attempted += tp.warm.ops + tp.trial.ops
	r.Failed += tp.warm.failed + tp.trial.failed + tp.verifyBad
	tf := traceFile{
		Workload:    w.Name,
		Approximate: w.Readers > 1 || w.PrefetchWorkers > 0,
		Ops:         tp.trial.ops,
		Spans:       tp.tracer.spans,
		Aggregates:  r.PerLayer,
	}
	if err := writeJSON(filepath.Join(outDir, "trace-"+w.Name+".json"), tf); err != nil {
		return nil, fmt.Errorf("%s: writing trace: %w", w.Name, err)
	}
	return r, nil
}

func printMetrics(workload string, m metricSet) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-14s %-38s %16.4f %s\n", workload, name, m[name].Value, m[name].Unit)
	}
}

// contractLine is the last line a -workload run prints: the driver
// contract's result object.
type contractLine struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// runOne measures one workload in this process. With seconds > 0 it
// runs that many trials of a second; with 0 every trial has the
// workload's fixed op count. With trace off it prints the end-to-end metrics; with trace
// on it also runs the probes and the traced pass and prints the
// per-layer metrics. The last line is the contract's result object.
func runOne(name string, seed int64, seconds int, trace bool, outDir string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	measured := plan{trials: fixedTrials, per: budget{ops: w.Ops / fixedTrials, dur: passCap / fixedTrials}}
	tracedB := budget{ops: w.Ops / 3, dur: passCap / 3}
	if seconds > 0 {
		measured, tracedB = plan{trials: seconds, per: budget{dur: trialLen}}, budget{}
		if trace {
			// The measured and the traced pass share the run's time;
			// set-ups and probes take the rest.
			share := time.Duration(seconds) * time.Second * 2 / 5
			measured.trials, tracedB = max(1, int(share/trialLen)), budget{dur: share}
		}
	}
	var probes metricSet
	if trace {
		var err error
		if probes, err = runProbes(); err != nil {
			return err
		}
	}
	// The probes ran on every core; the workload runs on as many as it
	// names.
	runtime.GOMAXPROCS(min(w.Procs, runtime.NumCPU()))
	r, err := runWorkload(w, seed, measured, tracedB, probes, outDir)
	if err != nil {
		return err
	}
	report := struct {
		Environment environment `json:"environment"`
		Result      *result     `json:"result"`
	}{environmentOf(seed), r}
	if err := writeJSON(filepath.Join(outDir, "result-"+w.Name+".json"), report); err != nil {
		return err
	}
	fmt.Printf("# %s over %s, seed %d: %d ops attempted, %d failed\n# %s\n", w.Name, w.Transport, seed, r.Attempted, r.Failed, report.Environment.Note)
	printMetrics(w.Name, r.EndToEnd)
	printMetrics(w.Name, r.PerLayer)
	line := contractLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.EndToEnd}
	if trace {
		line.Metrics = r.PerLayer
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if r.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", w.Name, r.Failed, r.Attempted)
	}
	return nil
}

// child runs one workload in a process of its own and returns what it
// printed. A closed stack stays reachable for 30 s (bulk's tombstone
// timers), so two workloads in one process would see each other in
// mem_live_mb and in the garbage collector's pacing.
func child(w *workload, seed int64, trace int, outDir string) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", "0", "-trace", fmt.Sprint(trace), "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return out, fmt.Errorf("%s: %w", w.Name, err)
	}
	return out, nil
}

// runAll is the one command that prints every metric by name and unit:
// every workload with its fixed op counts, measured then traced.
func runAll(seed int64, outDir string) error {
	start := time.Now()
	for i := range workloads {
		out, err := child(&workloads[i], seed, 1, outDir)
		os.Stdout.Write(out)
		if err != nil {
			return err
		}
	}
	fmt.Printf("# total wall %.0fs; reports and traces are in %s\n", time.Since(start).Seconds(), outDir)
	return nil
}

func main() {
	name := flag.String("workload", "", "measure this one workload and print the result object as the last line; default: every workload, each in a process of its own")
	seed := flag.Int64("seed", 1999, "seed of the data set and the op streams")
	seconds := flag.Int("seconds", 0, "with -workload: how long to measure; 0 runs the workload's fixed op counts")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 adds the traced pass and the probes and prints the per-layer metrics")
	agree := flag.Bool("agree", false, "measure every workload twice and fail if an end-to-end metric differs by more than its bound")
	outDir := flag.String("out", "out", "directory for trace-*.json, result-*.json and the temp data file")
	spec := flag.String("spec", filepath.Join("..", "BENCHMARK.json"), "BENCHMARK.json, for the bounds -agree checks")
	flag.Parse()

	var err error
	switch {
	case flag.NArg() > 0:
		err = errors.New("unexpected argument " + flag.Arg(0))
	case *agree:
		err = runAgree(*seed, *spec, *outDir)
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace != 0, *outDir)
	default:
		err = runAll(*seed, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
