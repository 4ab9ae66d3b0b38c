package experiments

import (
	"math/rand"
	"time"

	"dodo/internal/pool"
	"dodo/internal/region"
	"dodo/internal/simdisk"
	"dodo/internal/simnet"
	"dodo/internal/workload"
)

// AllocatorRow compares pool allocators under region churn — the §4.2
// design choice (first-fit with periodic coalescing now, buddy "if this
// becomes a problem at a later date").
type AllocatorRow struct {
	Allocator string
	// Failures out of Attempts allocations.
	Attempts, Failures int64
	// FinalFreeBytes and FinalLargest after the churn.
	FinalFreeBytes, FinalLargest uint64
	// Fragmentation = 1 - largest/free at the end.
	Fragmentation float64
	// InternalWasteBytes counts buddy round-up waste (0 for first-fit).
	InternalWasteBytes uint64
}

// AllocatorAblation churns region-sized allocations through both
// allocators: ops random create/delete with sizes drawn from the
// region-size distribution the workloads produce.
func AllocatorAblation(poolSize uint64, ops int, seed int64) []AllocatorRow {
	if poolSize == 0 {
		poolSize = 64 << 20
	}
	if ops <= 0 {
		ops = 20000
	}
	sizes := []uint64{8 << 10, 32 << 10, 128 << 10, 512 << 10, 1 << 20}
	run := func(name string, alloc pool.Allocator) AllocatorRow {
		rng := rand.New(rand.NewSource(seed))
		row := AllocatorRow{Allocator: name}
		requested := map[uint64]uint64{}
		var live []uint64
		for i := 0; i < ops; i++ {
			if rng.Intn(3) != 0 || len(live) == 0 {
				size := sizes[rng.Intn(len(sizes))]
				// Regions are "usually multiples of the pagesize" but
				// arbitrary sizes occur (§4.2); jitter half of them.
				if rng.Intn(2) == 0 {
					size += uint64(rng.Intn(4096))
				}
				row.Attempts++
				if off, ok := alloc.Alloc(size); ok {
					live = append(live, off)
					requested[off] = size
				} else {
					row.Failures++
				}
			} else {
				idx := rng.Intn(len(live))
				off := live[idx]
				live[idx] = live[len(live)-1]
				live = live[:len(live)-1]
				_ = alloc.Free(off)
				delete(requested, off)
			}
		}
		row.FinalFreeBytes = alloc.FreeBytes()
		row.FinalLargest = alloc.LargestFree()
		if row.FinalFreeBytes > 0 {
			row.Fragmentation = 1 - float64(row.FinalLargest)/float64(row.FinalFreeBytes)
		}
		if b, ok := alloc.(*pool.Buddy); ok {
			row.InternalWasteBytes = b.InternalWaste(requested)
		}
		drainAllocs(alloc, live)
		return row
	}
	ff := pool.NewFirstFit(poolSize)
	buddy, err := pool.NewBuddy(poolSize, 4096)
	rows := []AllocatorRow{run("first-fit", ff)}
	if err == nil {
		rows = append(rows, run("buddy", buddy))
	}
	return rows
}

// drainAllocs frees every allocation still live at the end of an
// ablation run. The row's fragmentation stats are captured before the
// drain, so the measured numbers are unaffected; this just returns the
// pool to empty instead of abandoning the survivors.
//
// dodo:releases(palloc)
func drainAllocs(alloc pool.Allocator, live []uint64) {
	for _, off := range live {
		_ = alloc.Free(off)
	}
}

// PolicyRow is one cell of the replacement-policy ablation.
type PolicyRow struct {
	Pattern string
	Policy  string
	Speedup float64
	// LocalHitRate is the fraction of requests served by the local
	// region cache — where policies differ even when remote memory is
	// fast enough to mask the difference in total runtime.
	LocalHitRate float64
	// Evictions counts grimReaper migrations (promotion churn).
	Evictions int64
}

// PolicyAblation reruns the synthetic benchmarks under every
// region-replacement policy, quantifying §3.3's claim that policy choice
// should follow the access pattern (first-in for scans, LRU for skewed
// access).
func PolicyAblation(scale float64, seed int64) ([]PolicyRow, error) {
	if scale == 0 {
		scale = 0.0625
	}
	dataset := scaled(1<<30, scale)
	req := int64(8 << 10)
	net := simnet.UNetFastEthernet()
	patterns := []workload.Pattern{
		workload.Sequential{DatasetBytes: dataset, ReqSize: req},
		workload.HotCold{DatasetBytes: dataset, ReqSize: req, Seed: seed},
		workload.Random{DatasetBytes: dataset, ReqSize: req, Seed: seed + 1},
	}
	var rows []PolicyRow
	for _, p := range patterns {
		for _, policy := range []region.Policy{region.LRU, region.MRU, region.FirstIn, region.FIFO} {
			spec := workload.Spec{Pattern: p, Iterations: Iterations, Compute: ComputePerRequest}
			cfg := workload.DodoConfig{
				Net:             net,
				RemoteBytes:     scaled(RemoteMemoryBytes, scale),
				LocalCacheBytes: scaled(LocalCacheBytes, scale),
				RegionSize:      req,
				Policy:          policy,
				DiskCacheBytes:  scaled(DodoPageCache, scale),
			}
			baseline := &workload.DiskStorage{
				Disk: simdisk.NewDisk(simdisk.QuantumFireballST32(), scaled(BaselinePageCache, scale)),
				File: 1,
			}
			base, _, err := workload.Run(spec, baseline)
			if err != nil {
				return nil, err
			}
			st := workload.NewDodoStorage(cfg)
			dodo, _, err := workload.Run(spec, st)
			if err != nil {
				return nil, err
			}
			cstats, _ := st.Stats()
			requests := int64(spec.Iterations) * (p.Dataset() / p.RequestSize())
			row := PolicyRow{
				Pattern:   p.Name(),
				Policy:    policy.Name(),
				Speedup:   speedup(base, dodo),
				Evictions: cstats.Evictions,
			}
			if requests > 0 {
				// A promotion serves its own access "locally" after
				// fetching, so subtract promotions to count accesses
				// that needed no fetch at all.
				pure := cstats.LocalHits - cstats.Promotions
				if pure < 0 {
					pure = 0
				}
				row.LocalHitRate = float64(pure) / float64(requests)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RefractionRow quantifies what the refraction period saves when the
// remote cache is exhausted (§3.1, Figure 5).
type RefractionRow struct {
	RefractionPeriod time.Duration
	// AllocAttempts is the number of manager allocation RPCs issued.
	AllocAttempts int64
	// Skipped is how many attempts the refraction suppressed.
	Skipped int64
	RunTime time.Duration
}

// RefractionAblation runs a workload that overflows remote memory, with
// and without the refraction period, and counts wasted allocation RPCs.
func RefractionAblation(scale float64, seed int64) ([]RefractionRow, error) {
	if scale == 0 {
		scale = 0.0625
	}
	dataset := scaled(2<<30, scale) // overflows the scaled remote pool
	req := int64(8 << 10)
	var rows []RefractionRow
	for _, period := range []time.Duration{time.Nanosecond, 5 * time.Second} {
		spec := workload.Spec{
			Pattern:    workload.Random{DatasetBytes: dataset, ReqSize: req, Seed: seed},
			Iterations: Iterations,
			Compute:    ComputePerRequest,
		}
		st := workload.NewDodoStorage(workload.DodoConfig{
			Net:              simnet.UNetFastEthernet(),
			RemoteBytes:      scaled(RemoteMemoryBytes, scale),
			LocalCacheBytes:  scaled(LocalCacheBytes, scale),
			RegionSize:       req,
			Policy:           region.LRU,
			DiskCacheBytes:   scaled(DodoPageCache, scale),
			RefractionPeriod: period,
		})
		total, _, err := workload.Run(spec, st)
		if err != nil {
			return nil, err
		}
		cstats, nstats := st.Stats()
		rows = append(rows, RefractionRow{
			RefractionPeriod: period,
			AllocAttempts:    nstats.Allocs + nstats.AllocFailures,
			Skipped:          cstats.RefractSkips,
			RunTime:          total,
		})
	}
	return rows, nil
}

// HeadroomRow is one point of the harvest-headroom sensitivity sweep.
type HeadroomRow struct {
	HeadroomFraction float64
	HarvestedMB      float64
	MeanDelay        time.Duration
	OvershootFrac    float64
}

// HeadroomAblation sweeps the §3.1 file-cache headroom from 0 to 30%,
// trading harvested pool size against owner-perceived reclaim delay.
// The paper's 15% sits where delays have collapsed while most of the
// idle memory is still harvested.
func HeadroomAblation(hosts int, duration time.Duration, seed int64) []HeadroomRow {
	if hosts <= 0 {
		hosts = 16
	}
	if duration <= 0 {
		duration = 3 * 24 * time.Hour
	}
	var rows []HeadroomRow
	for _, frac := range []float64{0, 0.05, 0.10, 0.15, 0.20, 0.30} {
		row := headroomRun(frac, hosts, duration, seed)
		rows = append(rows, row)
	}
	return rows
}

func headroomRun(frac float64, hosts int, duration time.Duration, seed int64) HeadroomRow {
	cfg := ReclaimConfig{Hosts: hosts, Duration: duration, Seed: seed}
	row := runReclaimWithHeadroom(frac, cfg)
	return row
}

// PrefetchRow is one point of the sequential-prefetch sweep.
type PrefetchRow struct {
	// Window is the prefetch depth; 0 means prefetch disabled.
	Window int
	// Speedup over the disk-only baseline for a sequential scan.
	Speedup float64
	// Prefetches issued, and where the scan's bytes came from:
	// foreground/pull disk reads vs remote-memory reads.
	Prefetches, DiskReads, RemoteReads int64
}

// PrefetchAblation sweeps the sequential-prefetch window over a scan
// workload. The driver runs the pipeline with zero workers — pulls
// execute inline on the faulting call, so virtual time charges them to
// the foreground and the sweep cannot show latency hiding (that is
// BenchmarkPrefetchPipeline's job, in wall-clock time with a worker
// pool). What it does show, deterministically: arming the pipeline is
// cost-neutral on the scan (speedup stays ~1), while each window
// consolidates a region's per-request disk read-throughs into one bulk
// pull and shifts the remaining traffic to remote memory.
func PrefetchAblation(scale float64, seed int64) ([]PrefetchRow, error) {
	if scale == 0 {
		scale = 0.0625
	}
	dataset := scaled(1<<30, scale)
	req := int64(8 << 10)
	// Regions are 4 requests wide: partial-region reads cannot migrate a
	// region opportunistically (that path needs a full-region read), so
	// getting ahead of the stream is the only way a cold region's later
	// touches avoid the disk. With region == request size every read
	// would clone as a side effect and the sweep would show nothing.
	spec := workload.Spec{
		Pattern:    workload.Sequential{DatasetBytes: dataset, ReqSize: req},
		Iterations: Iterations,
		Compute:    ComputePerRequest,
	}
	baseline := &workload.DiskStorage{
		Disk: simdisk.NewDisk(simdisk.QuantumFireballST32(), scaled(BaselinePageCache, scale)),
		File: 1,
	}
	base, _, err := workload.Run(spec, baseline)
	if err != nil {
		return nil, err
	}
	var rows []PrefetchRow
	for _, window := range []int{0, 1, 2, 4} {
		st := workload.NewDodoStorage(workload.DodoConfig{
			Net:                simnet.UNetFastEthernet(),
			RemoteBytes:        scaled(RemoteMemoryBytes, scale),
			LocalCacheBytes:    scaled(LocalCacheBytes, scale),
			RegionSize:         4 * req,
			Policy:             region.FirstIn,
			DiskCacheBytes:     scaled(DodoPageCache, scale),
			SequentialPrefetch: window > 0,
			PrefetchWindow:     window,
		})
		dodo, _, err := workload.Run(spec, st)
		if err != nil {
			return nil, err
		}
		cstats, _ := st.Stats()
		rows = append(rows, PrefetchRow{
			Window:      window,
			Speedup:     speedup(base, dodo),
			Prefetches:  cstats.Prefetches,
			DiskReads:   cstats.DiskReads,
			RemoteReads: cstats.RemoteReads,
		})
	}
	return rows, nil
}
