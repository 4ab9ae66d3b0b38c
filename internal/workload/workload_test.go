package workload

import (
	"testing"
	"time"

	"dodo/internal/region"
	"dodo/internal/simdisk"
	"dodo/internal/simnet"
)

const (
	MB = 1 << 20
	KB = 1 << 10
)

func TestSequentialPatternCoversDataset(t *testing.T) {
	p := Sequential{DatasetBytes: 1 * MB, ReqSize: 8 * KB}
	reqs := p.Iteration(0)
	if len(reqs) != 128 {
		t.Fatalf("requests = %d, want 128", len(reqs))
	}
	for i, r := range reqs {
		if r.Offset != int64(i)*8*KB || r.Size != 8*KB {
			t.Fatalf("request %d = %+v", i, r)
		}
	}
}

func TestRandomPatternBoundsAndDeterminism(t *testing.T) {
	p := Random{DatasetBytes: 1 * MB, ReqSize: 8 * KB, Seed: 5}
	a := p.Iteration(0)
	b := p.Iteration(0)
	if len(a) != 128 {
		t.Fatalf("requests = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random pattern not deterministic")
		}
		if a[i].Offset < 0 || a[i].Offset+a[i].Size > 1*MB || a[i].Offset%(8*KB) != 0 {
			t.Fatalf("request %d out of bounds: %+v", i, a[i])
		}
	}
	// Different iterations differ.
	c := p.Iteration(1)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("iterations 0 and 1 identical")
	}
}

func TestHotColdSkew(t *testing.T) {
	p := HotCold{DatasetBytes: 10 * MB, ReqSize: 8 * KB, Seed: 9}
	reqs := p.Iteration(0)
	hotLimit := int64(2 * MB) // 20% of 10 MB
	hot := 0
	for _, r := range reqs {
		if r.Offset < hotLimit {
			hot++
		}
	}
	frac := float64(hot) / float64(len(reqs))
	if frac < 0.74 || frac > 0.86 {
		t.Fatalf("hot fraction = %.2f, want ~0.80", frac)
	}
}

func TestTracePatternPerIter(t *testing.T) {
	tp := TracePattern{
		PatternName: "tri",
		DatasetSize: 1 * MB,
		ReqSize:     8 * KB,
		PerIter: [][]Request{
			{{Offset: 0, Size: 8 * KB}},
			{{Offset: 8 * KB, Size: 8 * KB}},
		},
	}
	if tp.Iteration(0)[0].Offset != 0 || tp.Iteration(1)[0].Offset != 8*KB {
		t.Fatal("per-iteration traces not honored")
	}
	if tp.Iteration(2)[0].Offset != 0 {
		t.Fatal("per-iteration traces should wrap")
	}
}

func baselineStorage(cacheBytes int64) *DiskStorage {
	return &DiskStorage{Disk: simdisk.NewDisk(simdisk.QuantumFireballST32(), cacheBytes), File: 1}
}

func smallDodoCfg(net simnet.CostModel, regionSize int64) DodoConfig {
	return DodoConfig{
		Net:              net,
		RemoteBytes:      64 * MB,
		LocalCacheBytes:  8 * MB,
		RegionSize:       regionSize,
		Policy:           region.LRU,
		DiskCacheBytes:   2 * MB,
		RefractionPeriod: time.Second,
	}
}

func TestRunAccountsComputeTime(t *testing.T) {
	spec := Spec{
		Pattern:    Sequential{DatasetBytes: 1 * MB, ReqSize: 8 * KB},
		Iterations: 2,
		Compute:    10 * time.Millisecond,
	}
	st := baselineStorage(256 * KB)
	total, perIter, err := Run(spec, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(perIter) != 2 {
		t.Fatalf("iterations = %d", len(perIter))
	}
	computeOnly := time.Duration(2*128) * 10 * time.Millisecond
	if total <= computeOnly {
		t.Fatalf("total %v <= compute-only %v; I/O time missing", total, computeOnly)
	}
	if total > computeOnly+2*time.Second {
		t.Fatalf("total %v implausibly large", total)
	}
}

// Directional check at small scale: random I/O over a dataset larger
// than the local cache must be much faster with Dodo (remote memory)
// than against the disk, and U-Net must beat UDP.
func TestDodoBeatsDiskOnRandomReads(t *testing.T) {
	spec := Spec{
		Pattern:    Random{DatasetBytes: 32 * MB, ReqSize: 8 * KB, Seed: 3},
		Iterations: 4,
		Compute:    time.Millisecond,
	}
	base, _, err := Run(spec, baselineStorage(2*MB))
	if err != nil {
		t.Fatal(err)
	}
	udp, _, err := Run(spec, NewDodoStorage(smallDodoCfg(simnet.UDPFastEthernet(), 8*KB)))
	if err != nil {
		t.Fatal(err)
	}
	unet, _, err := Run(spec, NewDodoStorage(smallDodoCfg(simnet.UNetFastEthernet(), 8*KB)))
	if err != nil {
		t.Fatal(err)
	}
	if float64(base)/float64(udp) < 1.5 {
		t.Fatalf("UDP speedup = %.2f, want > 1.5 (base %v, dodo %v)", float64(base)/float64(udp), base, udp)
	}
	if unet >= udp {
		t.Fatalf("U-Net run (%v) not faster than UDP (%v)", unet, udp)
	}
}

// Sequential scans see no benefit: the filesystem already runs at wire
// speed (§5.3, "virtually no speedup for the sequential benchmark").
func TestSequentialSpeedupNearOne(t *testing.T) {
	spec := Spec{
		Pattern:    Sequential{DatasetBytes: 32 * MB, ReqSize: 8 * KB},
		Iterations: 4,
		Compute:    10 * time.Millisecond,
	}
	base, _, err := Run(spec, baselineStorage(2*MB))
	if err != nil {
		t.Fatal(err)
	}
	dodo, _, err := Run(spec, NewDodoStorage(smallDodoCfg(simnet.UNetFastEthernet(), 8*KB)))
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(base) / float64(dodo)
	if speedup < 0.85 || speedup > 1.15 {
		t.Fatalf("sequential speedup = %.2f, want ~1.0", speedup)
	}
}

// When the dataset fits in remote memory, steady-state iterations avoid
// the disk entirely (the dmine effect).
func TestSteadyStateAvoidsDisk(t *testing.T) {
	spec := Spec{
		Pattern:    Random{DatasetBytes: 16 * MB, ReqSize: 8 * KB, Seed: 1},
		Iterations: 4,
		Compute:    time.Millisecond,
	}
	st := NewDodoStorage(smallDodoCfg(simnet.UNetFastEthernet(), 8*KB))
	_, perIter, err := Run(spec, st)
	if err != nil {
		t.Fatal(err)
	}
	// Later iterations must be much faster than the first (which pays
	// the disk faults).
	if perIter[3] >= perIter[0]*3/4 {
		t.Fatalf("iteration 4 (%v) not much faster than iteration 1 (%v)", perIter[3], perIter[0])
	}
	stats, net := st.Stats()
	if net.RemoteReads == 0 || stats.DiskReads == 0 {
		t.Fatalf("expected both disk faults and remote reads: %+v %+v", stats, net)
	}
}

// Dataset exceeding remote memory: some reads keep hitting the disk, so
// the benefit shrinks (the paper's 2 GB random result).
func TestOverflowingRemoteMemoryShrinksBenefit(t *testing.T) {
	mkSpec := func(dataset int64) Spec {
		return Spec{
			Pattern:    Random{DatasetBytes: dataset, ReqSize: 8 * KB, Seed: 2},
			Iterations: 4,
			Compute:    time.Millisecond,
		}
	}
	cfg := smallDodoCfg(simnet.UNetFastEthernet(), 8*KB) // 64 MB remote
	fitTotal, _, err := Run(mkSpec(32*MB), NewDodoStorage(cfg))
	if err != nil {
		t.Fatal(err)
	}
	fitBase, _, err := Run(mkSpec(32*MB), baselineStorage(2*MB))
	if err != nil {
		t.Fatal(err)
	}
	overTotal, _, err := Run(mkSpec(128*MB), NewDodoStorage(cfg))
	if err != nil {
		t.Fatal(err)
	}
	overBase, _, err := Run(mkSpec(128*MB), baselineStorage(2*MB))
	if err != nil {
		t.Fatal(err)
	}
	fitSpeedup := float64(fitBase) / float64(fitTotal)
	overSpeedup := float64(overBase) / float64(overTotal)
	if overSpeedup >= fitSpeedup {
		t.Fatalf("speedup with overflowing dataset (%.2f) >= fitting dataset (%.2f)", overSpeedup, fitSpeedup)
	}
}

func TestVirtualTimeClock(t *testing.T) {
	vt := NewVirtualTime()
	t0 := vt.Now()
	vt.Add(time.Hour)
	vt.Sleep(time.Minute)
	if vt.Total() != time.Hour+time.Minute {
		t.Fatalf("Total = %v", vt.Total())
	}
	if got := vt.Now().Sub(t0); got != time.Hour+time.Minute {
		t.Fatalf("Now advanced %v", got)
	}
}

func TestSpecString(t *testing.T) {
	s := Spec{Pattern: Sequential{DatasetBytes: 1024 * MB, ReqSize: 8 * KB}}
	if s.String() != "sequential/8KB/1024MB" {
		t.Fatalf("String = %q", s.String())
	}
}

func BenchmarkDodoStorageRandomRead(b *testing.B) {
	st := NewDodoStorage(smallDodoCfg(simnet.UNetFastEthernet(), 8*KB))
	p := Random{DatasetBytes: 32 * MB, ReqSize: 8 * KB, Seed: 4}
	reqs := p.Iteration(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := reqs[i%len(reqs)]
		if _, err := st.Read(r.Offset, r.Size); err != nil {
			b.Fatal(err)
		}
	}
}
