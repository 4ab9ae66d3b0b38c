package experiments

import (
	"time"

	"dodo/internal/region"
	"dodo/internal/workload"
)

// Fig8Row is one bar of Figure 8: a synthetic benchmark at one request
// size, dataset size and transport.
type Fig8Row struct {
	Pattern   string
	ReqKB     int
	DatasetMB int
	Transport string

	BaselineTime time.Duration
	DodoTime     time.Duration
	// Speedup is total-runtime baseline/Dodo over all four iterations,
	// the paper's metric (regions are created during the first
	// iteration, §5.2.2).
	Speedup float64
	// SteadySpeedup excludes the first iteration of both runs: the
	// regime once the remote cache is populated.
	SteadySpeedup float64
}

// Figure8Config parameterizes the sweep.
type Figure8Config struct {
	// Scale shrinks all sizes proportionally (1 = paper scale:
	// 1 GB / 2 GB datasets against 1.2 GB of remote memory).
	Scale float64
	// Seed feeds the random patterns.
	Seed int64
	// Policy is the region-replacement policy (the zero value is LRU).
	Policy region.Policy
}

// Figure8 reruns the full sweep of §5.3 Figure 8: {sequential, hotcold,
// random} x {8 KB, 32 KB} x {1 GB, 2 GB} x {UDP, U-Net}.
func Figure8(cfg Figure8Config) ([]Fig8Row, error) {
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	datasets := []int64{scaled(1<<30, cfg.Scale), scaled(2<<30, cfg.Scale)}
	reqSizes := []int64{8 << 10, 32 << 10}
	var rows []Fig8Row
	for _, dataset := range datasets {
		for _, req := range reqSizes {
			patterns := []workload.Pattern{
				workload.Sequential{DatasetBytes: dataset, ReqSize: req},
				workload.HotCold{DatasetBytes: dataset, ReqSize: req, Seed: cfg.Seed},
				workload.Random{DatasetBytes: dataset, ReqSize: req, Seed: cfg.Seed + 1},
			}
			for _, p := range patterns {
				for _, net := range Transports() {
					spec := workload.Spec{Pattern: p, Iterations: Iterations, Compute: ComputePerRequest}
					dodoCfg := workload.DodoConfig{
						Net:             net,
						RemoteBytes:     scaled(RemoteMemoryBytes, cfg.Scale),
						LocalCacheBytes: scaled(LocalCacheBytes, cfg.Scale),
						RegionSize:      req,
						Policy:          cfg.Policy,
						DiskCacheBytes:  scaled(DodoPageCache, cfg.Scale),
					}
					base, dodo, pib, pid, err := runPair(spec, dodoCfg, cfg.Scale)
					if err != nil {
						return nil, err
					}
					row := Fig8Row{
						Pattern:      p.Name(),
						ReqKB:        int(req >> 10),
						DatasetMB:    int(dataset >> 20),
						Transport:    net.Name,
						BaselineTime: base,
						DodoTime:     dodo,
						Speedup:      speedup(base, dodo),
					}
					var sb, sd time.Duration
					for i := 1; i < len(pib); i++ {
						sb += pib[i]
						sd += pid[i]
					}
					row.SteadySpeedup = speedup(sb, sd)
					rows = append(rows, row)
				}
			}
		}
	}
	return rows, nil
}

// FindFig8 selects a row from the sweep.
func FindFig8(rows []Fig8Row, pattern string, reqKB, datasetMB int, transport string) (Fig8Row, bool) {
	for _, r := range rows {
		if r.Pattern == pattern && r.ReqKB == reqKB && r.DatasetMB == datasetMB && r.Transport == transport {
			return r, true
		}
	}
	return Fig8Row{}, false
}
