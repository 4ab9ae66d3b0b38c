package experiments

import (
	"time"

	"dodo/internal/apps/dmine"
	"dodo/internal/apps/lu"
	"dodo/internal/region"
	"dodo/internal/simdisk"
	"dodo/internal/workload"
)

// Fig7Row is one bar of Figure 7: an application at one transport.
type Fig7Row struct {
	App       string // "lu", "dmine-run1", "dmine-run2"
	Transport string

	BaselineTime time.Duration
	DodoTime     time.Duration
	Speedup      float64
}

// Figure7Config parameterizes the application experiments.
type Figure7Config struct {
	// Scale shrinks dataset and memory sizes proportionally (1 = paper
	// scale: dmine 1 GB, lu 512 MiB, remote 1.2 GB).
	Scale float64
	Seed  int64
}

// Figure7 reruns the application experiments of §5.3 Figure 7:
//
//   - lu: one out-of-core factorization; regions deleted at completion,
//     so the benefit comes from re-reading slabs within the run
//     (speedups ~1.2 U-Net / ~1.15 UDP — modest because lu is
//     compute-bound, yet hours of a >6 hour run).
//   - dmine: two consecutive runs against retained regions. Run 1 faults
//     the corpus in from disk (no speedup); run 2 runs entirely from
//     remote memory (~3.2 U-Net / ~2.6 UDP).
func Figure7(cfg Figure7Config) ([]Fig7Row, error) {
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	var rows []Fig7Row

	// lu. The paper's triangle-scan trace is cheap to simulate at full
	// scale; Scale shrinks it via the synthetic-scale knob only when
	// below 1 to keep tests fast.
	luSpec := luSpecScaled(cfg.Scale)
	for _, net := range Transports() {
		dodoCfg := workload.DodoConfig{
			Net:             net,
			RemoteBytes:     scaled(RemoteMemoryBytes, cfg.Scale),
			LocalCacheBytes: scaled(LocalCacheBytes, cfg.Scale),
			RegionSize:      luSpec.Pattern.RequestSize(),
			Policy:          region.FirstIn, // §5.2.1: triangle scan -> first-in
			DiskCacheBytes:  scaled(DodoPageCache, cfg.Scale),
		}
		base, dodo, _, _, err := runPair(luSpec, dodoCfg, cfg.Scale)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig7Row{
			App: "lu", Transport: net.Name,
			BaselineTime: base, DodoTime: dodo, Speedup: speedup(base, dodo),
		})
	}

	// dmine: two runs against the same Dodo state.
	spec := dmineSpecScaled(cfg.Scale, cfg.Seed)
	for _, net := range Transports() {
		baseline := &workload.DiskStorage{
			Disk: simdisk.NewDisk(simdisk.QuantumFireballST32(), scaled(BaselinePageCache, cfg.Scale)),
			File: 1,
		}
		base, _, err := workload.Run(spec, baseline)
		if err != nil {
			return nil, err
		}
		st := workload.NewDodoStorage(workload.DodoConfig{
			Net:             net,
			RemoteBytes:     scaled(RemoteMemoryBytes, cfg.Scale),
			LocalCacheBytes: scaled(LocalCacheBytes, cfg.Scale),
			RegionSize:      spec.Pattern.RequestSize(),
			Policy:          region.FirstIn, // §5.2.1: multi-scan -> first-in
			DiskCacheBytes:  scaled(DodoPageCache, cfg.Scale),
		})
		run1, _, err := workload.Run(spec, st)
		if err != nil {
			return nil, err
		}
		run2, _, err := workload.Run(spec, st) // regions retained
		if err != nil {
			return nil, err
		}
		rows = append(rows,
			Fig7Row{App: "dmine-run1", Transport: net.Name, BaselineTime: base, DodoTime: run1, Speedup: speedup(base, run1)},
			Fig7Row{App: "dmine-run2", Transport: net.Name, BaselineTime: base, DodoTime: run2, Speedup: speedup(base, run2)},
		)
	}
	return rows, nil
}

// luSpecScaled returns the lu benchmark spec, shrunk below paper scale
// by substituting a proportionally smaller synthetic triangle scan.
func luSpecScaled(scale float64) workload.Spec {
	if scale >= 1 {
		return lu.FigureSpec()
	}
	// Shrink the matrix so the dataset scales with `scale` (dataset
	// grows with n^2).
	full := lu.FigureSpec()
	fullTrace := full.Pattern.(workload.TracePattern)
	factor := scale // dataset fraction
	var reqs []workload.Request
	limit := int64(float64(fullTrace.DatasetSize) * factor)
	for _, r := range fullTrace.Trace {
		if r.Offset+r.Size <= limit {
			reqs = append(reqs, r)
		}
	}
	return workload.Spec{
		Pattern: workload.TracePattern{
			PatternName: "lu",
			DatasetSize: limit,
			ReqSize:     fullTrace.ReqSize,
			Trace:       reqs,
		},
		Iterations: 1,
		Compute:    full.Compute,
	}
}

// dmineSpecScaled returns the dmine run spec at the given scale.
func dmineSpecScaled(scale float64, seed int64) workload.Spec {
	if scale >= 1 {
		return dmine.FigureSpec(seed)
	}
	full := dmine.FigureSpec(seed)
	tr := full.Pattern.(workload.TracePattern)
	limit := int64(float64(tr.DatasetSize) * scale)
	var perIter [][]workload.Request
	for _, pass := range tr.PerIter {
		var reqs []workload.Request
		for _, r := range pass {
			if r.Offset+r.Size <= limit {
				reqs = append(reqs, r)
			}
		}
		perIter = append(perIter, reqs)
	}
	return workload.Spec{
		Pattern: workload.TracePattern{
			PatternName: "dmine",
			DatasetSize: limit,
			ReqSize:     tr.ReqSize,
			PerIter:     perIter,
		},
		Iterations: 1,
		Compute:    full.Compute,
	}
}
