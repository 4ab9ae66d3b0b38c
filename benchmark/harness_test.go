package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"dodo/internal/core"
	"dodo/internal/transport"
)

// countingHooks counts the calls a decorator must forward. It installs
// its counters beneath the hooks that come next, so the same counters
// see an undecorated run (next == nil) and a traced one.
type countingHooks struct {
	next                hooks
	sendVec, mreadBatch atomic.Int64
}

type countingTransport struct {
	transport.Transport
	vec transport.VecSender
	n   *atomic.Int64
}

func (c *countingTransport) SendVec(to string, prefix, payload []byte) error {
	c.n.Add(1)
	return c.vec.SendVec(to, prefix, payload)
}

type countingDodo struct {
	batchDodo
	n *atomic.Int64
}

func (c *countingDodo) MreadBatch(reqs []core.BatchRead) []core.BatchResult {
	c.n.Add(1)
	return c.batchDodo.MreadBatch(reqs)
}

func (h *countingHooks) wrapTransport(role string, t transport.Transport) transport.Transport {
	var out transport.Transport = &countingTransport{t, t.(transport.VecSender), &h.sendVec}
	if h.next != nil {
		out = h.next.wrapTransport(role, out)
	}
	return out
}

func (h *countingHooks) wrapDodo(d batchDodo) batchDodo {
	var out batchDodo = &countingDodo{d, &h.mreadBatch}
	if h.next != nil {
		out = h.next.wrapDodo(out)
	}
	return out
}

func (h *countingHooks) wrapBacking(b core.Backing) core.Backing {
	if h.next != nil {
		return h.next.wrapBacking(b)
	}
	return b
}

// TestDecoratorsForward: the transport decorator forwards SendVec and
// the Dodo decorator forwards MreadBatch, so a traced run takes the
// same path as an untraced one. The workload prefetches on the reader's
// own goroutine (no workers), which makes both counts repeat exactly.
func TestDecoratorsForward(t *testing.T) {
	w := workload{
		Name: "tiny-seq", Transport: "unet", Readers: 1, Pattern: patSequential,
		RegionSize: 32 << 10, DataBytes: 2 << 20, LocalBytes: 256 << 10, PoolBytes: 1 << 20,
		PrefetchWindow: 4,
	}
	run := func(tr *tracer) (sendVec, mreadBatch int64) {
		t.Helper()
		h := &countingHooks{}
		if tr != nil {
			h.next = tr
		}
		ds, err := newDataSet(&w, 5, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer ds.close()
		s, _, err := setup(&w, h, ds.backing)
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		res := runTrial(s, ds, newOpStreams(&w, 5), budget{ops: 300, dur: 10 * time.Second}, tr)
		if res.ops != 300 || res.failed != 0 {
			t.Fatalf("trial: %d ops, %d failed", res.ops, res.failed)
		}
		return h.sendVec.Load(), h.mreadBatch.Load()
	}
	plainVec, plainBatch := run(nil)
	tr := newTracer()
	tracedVec, tracedBatch := run(tr)
	if plainVec == 0 || plainBatch == 0 {
		t.Fatalf("the workload never took the paths under test: %d SendVec, %d MreadBatch", plainVec, plainBatch)
	}
	if tracedVec != plainVec || tracedBatch != plainBatch {
		t.Errorf("traced run issued %d SendVec and %d MreadBatch, untraced %d and %d", tracedVec, tracedBatch, plainVec, plainBatch)
	}
	if got := tr.seams.mreadBatch.n + tr.setupMopen.n; got == 0 {
		t.Error("the tracer saw no call at the S2 seam")
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var uniform, skewed histogram
	var skewedVals []float64
	for i := 1; i <= 1000000; i++ {
		uniform.add(time.Duration(i))
	}
	for i := 0; i < 200000; i++ {
		v := math.Exp(float64(i%20000)/20000*14) + 50 // 51 ns .. 1.2 ms, log-uniform
		skewed.add(time.Duration(v))
		skewedVals = append(skewedVals, math.Floor(v))
	}
	sort.Float64s(skewedVals)
	for _, q := range []float64{0.5, 0.95, 0.99, 0.999} {
		if got, want := uniform.quantile(q), q*1e6; math.Abs(got-want) > 0.01*want {
			t.Errorf("uniform p%g = %.0f, want %.0f within 1%%", 100*q, got, want)
		}
		want := skewedVals[int(q*float64(len(skewedVals)))-1]
		if got := skewed.quantile(q); math.Abs(got-want) > 0.01*want {
			t.Errorf("log-uniform p%g = %.0f, want %.0f within 1%%", 100*q, got, want)
		}
	}
	if got := uniform.meanUS(); math.Abs(got-500.0005) > 1e-6 {
		t.Errorf("mean = %v us, want 500.0005", got)
	}
	var merged histogram
	merged.merge(&uniform)
	merged.merge(&uniform)
	if merged.n != 2*uniform.n || merged.quantile(0.5) != uniform.quantile(0.5) {
		t.Error("merging a histogram into an empty one twice changed its median")
	}
}

func TestOpStreamSeeded(t *testing.T) {
	draw := func(w *workload, seed int64, reader int) []op {
		s := newOpStream(w, seed, reader)
		ops := make([]op, 1000)
		for i := range ops {
			ops[i] = s.Next()
		}
		return ops
	}
	equal := func(a, b []op) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for i := range workloads {
		w := &workloads[i]
		for r := 0; r < w.Readers; r++ {
			if !equal(draw(w, 1999, r), draw(w, 1999, r)) {
				t.Errorf("%s reader %d: the same seed gave two op streams", w.Name, r)
			}
			if w.Pattern != patSequential && equal(draw(w, 1999, r), draw(w, 2000, r)) {
				t.Errorf("%s reader %d: seeds 1999 and 2000 gave the same op stream", w.Name, r)
			}
		}
		if w.Pattern == patReadWrite {
			mine := map[int]bool{}
			for _, o := range draw(w, 1999, 0) {
				mine[o.region] = true
			}
			for _, o := range draw(w, 1999, 1) {
				if mine[o.region] {
					t.Fatalf("%s: readers 0 and 1 both touch region %d", w.Name, o.region)
				}
			}
		}
	}
}

// TestSmokeWorkloads runs every workload at 1/16 size — 2 016 measured
// ops, then a short traced pass — and checks that nothing fails, that the
// program reports exactly the metrics BENCHMARK.json lists, and the
// per-workload predictions that do not depend on timing.
func TestSmokeWorkloads(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json lists the workloads the driver gates on; the program
	// may have more (README.md says which and why).
	for _, sw := range spec.Workloads {
		if w := findWorkload(sw.Name); w == nil || w.Why != sw.Why {
			t.Errorf("BENCHMARK.json workload %q is not the program's, or their whys differ", sw.Name)
		}
	}
	probeDiv = 1000
	defer func() { probeDiv = 1 }()
	probes, err := runProbes()
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := workloads[i].scaled(16, 2016)
		// Side by side: most of a small run is spent waiting for daemons
		// to close, and nothing checked here depends on timing.
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			smokeWorkload(t, &w, spec, probes)
		})
	}
}

func smokeWorkload(t *testing.T, w *workload, spec *benchSpec, probes metricSet) {
	out := t.TempDir()
	measured := plan{trials: fixedTrials, per: budget{ops: w.Ops / fixedTrials, dur: time.Minute}}
	r, err := runWorkload(w, 1999, measured, budget{ops: w.Ops / 8, dur: time.Minute}, probes, out)
	if err != nil {
		t.Fatal(err)
	}
	// Both passes warm up, then the measured and the traced ops.
	if want := int64(2*w.Warmup + w.Ops + w.Ops/8); r.Failed != 0 || r.Attempted != want {
		t.Errorf("%s: %d of %d ops failed, want 0 of %d", w.Name, r.Failed, r.Attempted, want)
	}
	sameNames(t, w.Name+" end_to_end", spec.EndToEnd, r.EndToEnd)
	sameNames(t, w.Name+" per_layer", spec.PerLayer, r.PerLayer)
	for name, m := range r.EndToEnd {
		if m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, m.Value)
		}
	}

	pl := func(name string) float64 { return r.PerLayer[name].Value }
	if pl("driver.fail_frac") != 0 || pl("core.checksum_failures") != 0 || pl("core.drop_events") != 0 {
		t.Errorf("%s: failures in the per-layer metrics: %v %v %v", w.Name,
			pl("driver.fail_frac"), pl("core.checksum_failures"), pl("core.drop_events"))
	}
	switch w.Name {
	case "fit8k-unet":
		if pl("transport.client_tx_frames_per_op") != 0 || pl("transport.imd_tx_frames_per_op") != 0 || pl("region.local_hit_frac") != 1 {
			t.Errorf("fit8k-unet must bypass the network: %v client and %v imd frames per op, local hits %v",
				pl("transport.client_tx_frames_per_op"), pl("transport.imd_tx_frames_per_op"), pl("region.local_hit_frac"))
		}
	case "rand8k-unet":
		sum := pl("region.self_us_per_op") + pl("core.mread_us_per_op") + pl("backing.read_us_per_op")
		if mean := pl("region.cread_us_per_op"); math.Abs(sum-mean) > 0.05*mean {
			t.Errorf("rand8k-unet: region.self + core.mread + backing.read = %.2f us/op, traced mean op %.2f", sum, mean)
		}
		if pl("core.mread_calls_per_op") != pl("imd.reads_per_op") || pl("core.mread_calls_per_op") != pl("region.promotions_per_op") {
			t.Errorf("rand8k-unet: every miss is one promotion, one Mread and one imd read: %v %v %v",
				pl("region.promotions_per_op"), pl("core.mread_calls_per_op"), pl("imd.reads_per_op"))
		}
	case "seq128k-unet", "seq32k-udp":
		if pl("core.mreadbatch_calls_per_op") == 0 || pl("region.prefetches_per_op") == 0 {
			t.Errorf("%s: the prefetch pipeline never ran", w.Name)
		}
	case "rw32k-udp":
		if pl("core.mwrite_calls_per_op") == 0 || pl("backing.write_calls_per_op") == 0 || pl("imd.writes_per_op") == 0 {
			t.Errorf("rw32k-udp: no write reached core, the backing file or an imd")
		}
	}

	var tf traceFile
	data, err := os.ReadFile(filepath.Join(out, "trace-"+w.Name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: trace file: %v", w.Name, err)
	}
	layers := map[string]bool{}
	for _, s := range tf.Spans {
		layers[s.Layer] = true
		if s.End < s.Start || s.Op < 0 || s.Op >= spanOps {
			t.Fatalf("%s: bad span %+v", w.Name, s)
		}
	}
	if !layers["region"] || (w.Name != "fit8k-unet" && !(layers["core"] && layers["transport"] && layers["bulk"])) {
		t.Errorf("%s: trace file has spans of layers %v only", w.Name, layers)
	}
}

func sameNames(t *testing.T, what string, want []specMetric, got metricSet) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", what, len(want), len(got))
	}
	for _, m := range want {
		if g, ok := got[m.Name]; !ok {
			t.Errorf("%s: %s is in BENCHMARK.json, the program does not report it", what, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the program", what, m.Name, m.Unit, g.Unit)
		}
	}
}
