package main

import (
	"dodo/internal/core"
	"dodo/internal/imd"
	"dodo/internal/manager"
	"dodo/internal/region"
	"dodo/internal/wire"
)

// metric is one reported number. The JSON form is the driver contract's.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// ratio is num ÷ den, and 0 when there is nothing to divide by: a
// window with no ops, a workload that moves no payload.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEnd assembles the metrics a user of the system would see. A
// timing is the median over the measured trials of the per-trial value.
// Better quartiles were tried when every workload ran on two cores and
// bursts hit single trials; with one core per serial workload (see
// workload.Procs) ten runs of twenty trials spread no wider by their
// medians. The whole-window values are reported under driver.pooled_*.
func endToEnd(p *measuredPass) metricSet {
	var ops, p50, p95 []float64
	for i := range p.trials {
		t := &p.trials[i]
		ops = append(ops, t.opsPerSec())
		p50 = append(p50, t.all.us(0.50))
		p95 = append(p95, t.all.us(0.95))
	}
	var setups []float64
	for _, s := range p.setups {
		setups = append(setups, s.total().Seconds())
	}
	m := metricSet{}
	m.set("ops_per_s", "ops/s", median(ops))
	m.set("lat_p50_us", "us", median(p50))
	m.set("lat_p95_us", "us", median(p95))
	m.set("setup_s", "s", median(setups))
	m.set("mem_live_mb", "MB", p.memLiveMB)
	return m
}

// stackStats is the S5 seam: Stats() of every component, summed over
// the imds.
type stackStats struct {
	core   core.Stats
	region region.Stats
	imd    imd.Stats
	mgr    manager.Snapshot
}

func (s *stack) stats() stackStats {
	st := stackStats{core: s.cli.Stats(), region: s.cache.Stats(), mgr: s.mgr.Stats()}
	for _, d := range s.imds {
		ds := d.Stats()
		st.imd.Reads += ds.Reads
		st.imd.Writes += ds.Writes
		st.imd.ReadBytes += ds.ReadBytes
		st.imd.WriteBytes += ds.WriteBytes
		st.imd.StaleRejects += ds.StaleRejects
		st.imd.ChecksumRejects += ds.ChecksumRejects
	}
	return st
}

// perLayer assembles the per-layer metrics of one workload from the
// measured pass (set-up, process and driver numbers) and the traced
// pass (everything seen at a seam). a and b are the S5 snapshots around
// the traced trial.
func perLayer(p *measuredPass, tp *tracedPass, probes metricSet) metricSet {
	m := metricSet{}
	tr := tp.tracer
	res := &tp.trial
	ops := res.ops
	fops := float64(ops)
	a, b := tp.before, tp.after
	se := &tr.seams

	// d is a counter's growth over the traced trial.
	d := func(after, before int64) float64 { return float64(after - before) }

	// region (S1, S5)
	promotions := d(b.region.Promotions, a.region.Promotions)
	m.set("region.cread_us_per_op", "us/op", res.all.meanUS())
	m.set("region.self_us_per_op", "us/op", ratio(float64(res.all.sum)/1e3-float64(se.union)/1e3, fops))
	m.set("region.local_hit_frac", "ratio", max(0, 1-ratio(promotions, fops)))
	m.set("region.promotions_per_op", "1/op", ratio(promotions, fops))
	m.set("region.evictions_per_op", "1/op", ratio(d(b.region.Evictions, a.region.Evictions), fops))
	m.set("region.remote_clones_per_op", "1/op", ratio(d(b.region.RemoteClones, a.region.RemoteClones), fops))
	m.set("region.writebacks_per_op", "1/op", ratio(d(b.region.WriteBacks, a.region.WriteBacks), fops))
	m.set("region.prefetches_per_op", "1/op", ratio(d(b.region.Prefetches, a.region.Prefetches), fops))
	m.set("region.disk_read_bytes_per_op", "B/op", ratio(d(b.region.DiskReads, a.region.DiskReads), fops))

	// core (S2, S5, and S4 for the turnaround)
	inline := d(b.core.InlineReads, a.core.InlineReads)
	eager := d(b.core.EagerReads, a.core.EagerReads)
	exchanges := inline + eager + d(b.core.BatchReads, a.core.BatchReads)
	client := tr.roleStats("client")
	m.set("core.mread_calls_per_op", "1/op", ratio(float64(se.mread.n), fops))
	m.set("core.mread_us_per_op", "us/op", se.mread.usPerOp(ops))
	m.set("core.mread_us_p50", "us", se.mread.hist.us(0.50))
	m.set("core.mreadbatch_calls_per_op", "1/op", ratio(float64(se.mreadBatch.n), fops))
	m.set("core.mreadbatch_us_per_op", "us/op", se.mreadBatch.usPerOp(ops))
	m.set("core.batch_items_per_call", "count", ratio(float64(se.mreadBatch.units), float64(se.mreadBatch.n)))
	m.set("core.mwrite_calls_per_op", "1/op", ratio(float64(se.mwrite.n), fops))
	m.set("core.mwrite_us_per_op", "us/op", se.mwrite.usPerOp(ops))
	m.set("core.mopen_us_p50", "us", tr.setupMopen.hist.us(0.50))
	m.set("core.inline_frac", "ratio", ratio(inline, exchanges))
	m.set("core.eager_frac", "ratio", ratio(eager, exchanges))
	m.set("core.hedged_per_kop", "1/kop", 1e3*ratio(d(b.core.HedgedReads, a.core.HedgedReads), fops))
	m.set("core.hedge_wins_per_kop", "1/kop", 1e3*ratio(d(b.core.HedgeWins, a.core.HedgeWins), fops))
	m.set("core.drop_events", "count", d(b.core.DropEvents, a.core.DropEvents))
	m.set("core.checksum_failures", "count", d(b.core.ChecksumFailures, a.core.ChecksumFailures))
	m.set("core.retry_exhausted", "count", d(b.core.RetryExhausted, a.core.RetryExhausted))
	m.set("core.turnaround_us_p50", "us", client.turnaround.us(0.50))

	// bulk and transport (S4)
	imds := tr.roleStats("imd")
	frames := func(t wire.Type) float64 { return float64(client.txByType[t] + imds.txByType[t]) }
	m.set("bulk.client_rx_handle_us_per_op", "us/op", ratio(float64(client.rxHandle)/1e3, fops))
	m.set("bulk.imd_rx_handle_us_per_op", "us/op", ratio(float64(imds.rxHandle)/1e3, fops))
	m.set("bulk.rx_handle_us_per_frame", "us", ratio(float64(client.rxHandle+imds.rxHandle)/1e3, float64(client.rxFrames+imds.rxFrames)))
	m.set("bulk.data_frames_per_op", "1/op", ratio(frames(wire.TBulkData), fops))
	m.set("bulk.nack_frames_per_kop", "1/kop", 1e3*ratio(frames(wire.TBulkNack), fops))
	m.set("bulk.offer_accept_frames_per_kop", "1/kop", 1e3*ratio(frames(wire.TBulkOffer)+frames(wire.TBulkAccept), fops))

	payload := d(b.imd.ReadBytes+b.imd.WriteBytes, a.imd.ReadBytes+a.imd.WriteBytes)
	m.set("transport.client_send_us_per_op", "us/op", ratio(float64(client.sendTime)/1e3, fops))
	m.set("transport.imd_send_us_per_op", "us/op", ratio(float64(imds.sendTime)/1e3, fops))
	m.set("transport.send_us_per_frame", "us", ratio(float64(client.sendTime+imds.sendTime)/1e3, float64(client.txFrames+imds.txFrames)))
	m.set("transport.client_tx_frames_per_op", "1/op", ratio(float64(client.txFrames), fops))
	m.set("transport.imd_tx_frames_per_op", "1/op", ratio(float64(imds.txFrames), fops))
	m.set("transport.client_tx_bytes_per_op", "B/op", ratio(float64(client.txBytes), fops))
	m.set("transport.imd_tx_bytes_per_op", "B/op", ratio(float64(imds.txBytes), fops))
	m.set("transport.wire_overhead_frac", "ratio", ratio(float64(client.txBytes+imds.txBytes)-payload, payload))

	// imd and pool (S4, S5)
	m.set("imd.first_reply_us_p50", "us", imds.firstReply.us(0.50))
	m.set("imd.serve_us_p50", "us", imds.serve.us(0.50))
	m.set("imd.reads_per_op", "1/op", ratio(d(b.imd.Reads, a.imd.Reads), fops))
	m.set("imd.read_bytes_per_op", "B/op", ratio(d(b.imd.ReadBytes, a.imd.ReadBytes), fops))
	m.set("imd.writes_per_op", "1/op", ratio(d(b.imd.Writes, a.imd.Writes), fops))
	m.set("imd.stale_rejects", "count", d(b.imd.StaleRejects, a.imd.StaleRejects))
	m.set("imd.checksum_rejects", "count", d(b.imd.ChecksumRejects, a.imd.ChecksumRejects))

	// manager (S4, S5)
	m.set("manager.rx_frames_per_kop", "1/kop", 1e3*ratio(float64(tr.roleStats("manager").rxFrames), fops))
	m.set("manager.allocs", "count", d(b.mgr.Allocs, a.mgr.Allocs))

	// backing (S3)
	m.set("backing.read_calls_per_op", "1/op", ratio(float64(se.bread.n), fops))
	m.set("backing.read_us_per_op", "us/op", se.bread.usPerOp(ops))
	m.set("backing.write_calls_per_op", "1/op", ratio(float64(se.bwrite.n), fops))
	m.set("backing.write_us_per_op", "us/op", se.bwrite.usPerOp(ops))
	m.set("backing.write_bytes_per_op", "B/op", ratio(float64(se.bwrite.units), fops))

	// setup: the set-up of the stack the measured trials ran on
	st := &p.setups[0]
	m.set("setup.boot_s", "s", st.boot.Seconds())
	m.set("setup.copen_us_p50", "us", st.copenHist.us(0.50))
	m.set("setup.populate_mb_s", "MB/s", ratio(float64(p.w.DataBytes)/(1<<20), st.populate.Seconds()))

	// process: the measured pass's trials
	var measuredOps, failed, capped int64
	var all, reads, writes histogram
	var rates []float64
	var wall float64
	for i := range p.trials {
		t := &p.trials[i]
		wall += t.wall.Seconds()
		measuredOps += t.ops
		failed += t.failed
		if t.capped {
			capped++
		}
		all.merge(&t.all)
		reads.merge(&t.reads)
		writes.merge(&t.writes)
		rates = append(rates, t.opsPerSec())
	}
	m.set("process.cpu_us_per_op", "us/op", ratio(float64(p.proc.cpu)/1e3, float64(measuredOps)))
	m.set("process.allocs_per_op", "1/op", ratio(float64(p.proc.mallocs), float64(measuredOps)))
	m.set("process.alloc_bytes_per_op", "B/op", ratio(float64(p.proc.allocBytes), float64(measuredOps)))
	m.set("process.gc_cycles", "count", float64(p.proc.gcCycles))
	m.set("process.gc_pause_ms", "ms", float64(p.proc.gcPause)/1e6)

	// driver
	pooled := ratio(float64(measuredOps), wall)
	m.set("driver.pooled_ops_per_s", "ops/s", pooled)
	m.set("driver.pooled_p50_us", "us", all.us(0.50))
	m.set("driver.pooled_p95_us", "us", all.us(0.95))
	m.set("driver.lat_p99_us", "us", all.us(0.99))
	m.set("driver.lat_p999_us", "us", all.us(0.999))
	m.set("driver.read_p50_us", "us", reads.us(0.50))
	m.set("driver.read_p95_us", "us", reads.us(0.95))
	m.set("driver.write_p50_us", "us", writes.us(0.50))
	m.set("driver.write_p95_us", "us", writes.us(0.95))
	m.set("driver.trial_spread_frac", "ratio", spreadFrac(rates))
	m.set("driver.capped_trials", "count", float64(capped))
	m.set("driver.trace_overhead_frac", "ratio", 1-ratio(res.opsPerSec(), pooled))
	m.set("driver.fail_frac", "ratio", ratio(float64(failed+res.failed+p.verifyBad+tp.verifyBad), float64(measuredOps+ops)))

	for name, v := range probes {
		m[name] = v
	}
	return m
}
