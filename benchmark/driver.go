package main

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"time"
)

// budget bounds one trial: a fixed op count from the seeded generator
// (0 means unbounded) or a duration, whichever comes first.
type budget struct {
	ops int
	dur time.Duration
}

// trialResult is one closed-loop trial on a warm stack.
type trialResult struct {
	ops, failed int64
	wall        time.Duration
	all         histogram // reads and writes pooled
	reads       histogram
	writes      histogram
	// capped: the trial had an op count and hit its duration first.
	capped bool
}

func (r *trialResult) opsPerSec() float64 { return float64(r.ops) / r.wall.Seconds() }

// runTrial drives the workload's readers against the stack, reader r
// drawing from streams[r]. Every reader is a closed loop with no think
// time: it issues its next request when the previous one has returned
// and been checked. tr, when non-nil, receives the S1 spans.
func runTrial(s *stack, ds *dataSet, streams []*opStream, b budget, tr *tracer) trialResult {
	w := s.w
	parts := make([]trialResult, w.Readers)
	start := time.Now()
	deadline := start.Add(b.dur)
	var wg sync.WaitGroup
	for r := 0; r < w.Readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			runReader(s, ds, streams[r], b.ops/w.Readers, deadline, tr, &parts[r])
		}(r)
	}
	wg.Wait()
	res := trialResult{wall: time.Since(start)}
	for i := range parts {
		res.ops += parts[i].ops
		res.failed += parts[i].failed
		res.capped = res.capped || parts[i].capped
		res.all.merge(&parts[i].reads)
		res.all.merge(&parts[i].writes)
		res.reads.merge(&parts[i].reads)
		res.writes.merge(&parts[i].writes)
	}
	return res
}

// runReader is one reader's loop. A read is checked byte for byte
// against the shadow copy; a write first puts fresh bytes into the
// shadow copy and then writes them through the cache.
func runReader(s *stack, ds *dataSet, st *opStream, maxOps int, deadline time.Time, tr *tracer, out *trialResult) {
	size := s.w.RegionSize
	buf := make([]byte, size)
	// now is the end of the previous op: the deadline is checked before
	// an op touches the shadow copy, without a clock read of its own.
	now := time.Now()
	for maxOps == 0 || out.ops < int64(maxOps) {
		if now.After(deadline) {
			out.capped = maxOps != 0
			return
		}
		o := st.Next()
		want := ds.shadow[o.region*size : (o.region+1)*size]
		if o.write {
			st.fill = fillBytes(want, st.fill)
		}
		t0 := time.Now()
		var opID int64
		if tr != nil {
			opID = tr.beginOp()
		}
		var n int
		var err error
		if o.write {
			n, err = s.cache.Cwrite(s.fds[o.region], 0, want)
		} else {
			n, err = s.cache.Cread(s.fds[o.region], 0, buf)
		}
		t1 := time.Now()
		now = t1
		if o.write {
			out.writes.add(t1.Sub(t0))
		} else {
			out.reads.add(t1.Sub(t0))
		}
		if tr != nil {
			name := "cread"
			if o.write {
				name = "cwrite"
			}
			tr.span("region", name, t0, t1, opID)
		}
		out.ops++
		if err != nil || n != size || (!o.write && !bytes.Equal(buf, want)) {
			out.failed++
		}
	}
}

// verifyBacking ends a file-backed workload: Csync on every region,
// then the backing file must equal the shadow copy. It returns the
// number of regions that failed to sync or differ.
func verifyBacking(s *stack, ds *dataSet) (int64, error) {
	var bad int64
	for _, fd := range s.fds {
		if err := s.cache.Csync(fd); err != nil {
			bad++
		}
	}
	size := s.w.RegionSize
	got := make([]byte, size)
	for i := range s.fds {
		if _, err := ds.file.ReadAt(got, int64(i*size)); err != nil {
			return bad, fmt.Errorf("reading back region %d: %w", i, err)
		}
		if !bytes.Equal(got, ds.shadow[i*size:(i+1)*size]) {
			bad++
		}
	}
	return bad, nil
}

// median returns the median of xs; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// spreadFrac is (max - min) / median of xs.
func spreadFrac(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return (hi - lo) / m
}
