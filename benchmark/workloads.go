package main

import (
	"encoding/binary"
	"math/rand"
)

// pattern is the access pattern of a workload's op stream.
type pattern int

const (
	// patRandom reads a uniformly random region; every reader draws
	// from the whole data set.
	patRandom pattern = iota
	// patSequential scans the regions in file order, wrapping around.
	patSequential
	// patReadWrite reads or rewrites a uniformly random region of the
	// reader's own share of the data set, so each reader's shadow copy
	// of its regions is exact.
	patReadWrite
)

// workload is one named set of inputs. Sizes are for the 2-core box the
// baseline was recorded on; the names are fixed because later
// performance claims cite them.
type workload struct {
	Name      string
	Why       string
	Transport string // "unet" or "udp"
	Readers   int
	Pattern   pattern
	// WriteFrac is the share of ops that are Cwrite (patReadWrite only).
	WriteFrac float64
	// RegionSize is both the region length and the request length, as
	// in the paper's Fig. 8.
	RegionSize int
	// DataBytes is the data set, LocalBytes the region cache capacity,
	// PoolBytes the pool of each of the four imds.
	DataBytes, LocalBytes, PoolBytes int64
	// PrefetchWindow > 0 turns SequentialPrefetch on with that window
	// and PrefetchWorkers background workers.
	PrefetchWindow, PrefetchWorkers int
	// FileBacked puts the data set in a real temp file.
	FileBacked bool
	// Ops is the fixed op count of the measured pass, split evenly over
	// its trials, when the run is not bounded by -seconds.
	Ops int
	// Warmup is the fixed op count every pass runs, untimed, between the
	// set-up and its first trial.
	Warmup int
	// Procs is the GOMAXPROCS the workload runs under. It is 1 where an
	// op is a serial chain through the stack (reader, imd, receive loop,
	// reader), so the whole stack shares one core and a hand-off is a
	// goroutine switch. With 2 every hand-off parks one thread and wakes
	// another, and on a shared host that measures how fast the
	// hypervisor wakes a halted vCPU: the same binary spread twice as
	// wide. Only the workload whose point is two readers contending for
	// a mutex gets both cores.
	Procs int
}

const numIMDs = 4

var workloads = []workload{
	{
		Name: "rand8k-unet", Transport: "unet", Readers: 1, Pattern: patRandom,
		RegionSize: 8 << 10, DataBytes: 64 << 20, LocalBytes: 8 << 20, PoolBytes: 32 << 20,
		Ops: 240000, Warmup: 20000, Procs: 1,
		Why: "miss path at U-Net framing: 87.5 % of reads are eager 6-frame remote reads, so per-frame cost in wire, bulk, usocket and imd sets the result; one reader, exact attribution",
	},
	{
		Name: "fit8k-unet", Transport: "unet", Readers: 2, Pattern: patRandom,
		RegionSize: 8 << 10, DataBytes: 12 << 20, LocalBytes: 16 << 20, PoolBytes: 32 << 20,
		Ops: 24000000, Warmup: 1500000, Procs: 2,
		Why: "working set fits the local cache: zero frames on the network, only region works, 2 readers contend on the cache mutex; every network-path change predicts no change here",
	},
	{
		Name: "seq128k-unet", Transport: "unet", Readers: 1, Pattern: patSequential,
		RegionSize: 128 << 10, DataBytes: 128 << 20, LocalBytes: 16 << 20, PoolBytes: 64 << 20,
		PrefetchWindow: 4, PrefetchWorkers: 1, Ops: 45000, Warmup: 3000, Procs: 1,
		Why: "bandwidth path: about 90 frames per region, CRC, copies and the prefetch pipeline with MreadBatch; dmine reads 128 KB",
	},
	{
		Name: "seq32k-udp", Transport: "udp", Readers: 1, Pattern: patSequential,
		RegionSize: 32 << 10, DataBytes: 128 << 20, LocalBytes: 16 << 20, PoolBytes: 64 << 20,
		PrefetchWindow: 4, PrefetchWorkers: 1, Ops: 180000, Warmup: 15000, Procs: 1,
		Why: "same layers over kernel sockets with 64 KB datagrams, a read is one inline datagram: transport and UDP-buffer gains show here, framing gains do not",
	},
	{
		Name: "rw32k-udp", Transport: "udp", Readers: 2, Pattern: patReadWrite, WriteFrac: 0.3,
		RegionSize: 32 << 10, DataBytes: 128 << 20, LocalBytes: 16 << 20, PoolBytes: 64 << 20,
		FileBacked: true, Ops: 120000, Warmup: 10000, Procs: 1,
		Why: "30 % Cwrite beside reads: write-through, dirty flush and Mwrite with WriteSeq to a real file, two readers on one cache; a read gain that costs writes shows here",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scaled returns the workload shrunk by div in every byte size, for the
// smoke tests; region size and pattern are unchanged.
func (w workload) scaled(div int64, ops int) workload {
	w.DataBytes /= div
	w.LocalBytes /= div
	w.PoolBytes /= div
	w.Ops, w.Warmup = ops, ops/8
	return w
}

func (w *workload) regions() int { return int(w.DataBytes / int64(w.RegionSize)) }

// op is one request of the stream: a full-region read or rewrite.
type op struct {
	region int
	write  bool
}

// opStream is the seeded generator of one reader's requests. The same
// (workload, seed, reader) gives the same stream. A pass makes one per
// reader and draws every trial's ops from it, so a sequential scan
// carries on where the previous trial stopped.
type opStream struct {
	w    *workload
	rng  *rand.Rand
	lo   int    // first region this reader may touch
	n    int    // number of regions it may touch
	next int    // patSequential cursor
	fill uint64 // xorshift state of the bytes this reader writes
}

func newOpStream(w *workload, seed int64, reader int) *opStream {
	s := &opStream{w: w, rng: rand.New(rand.NewSource(seed*131 + int64(reader))), n: w.regions(), fill: uint64(seed)<<8 | uint64(reader+1)}
	if w.Pattern == patReadWrite {
		share := s.n / w.Readers
		s.lo, s.n = reader*share, share
	}
	return s
}

// newOpStreams makes the stream of every reader of the workload.
func newOpStreams(w *workload, seed int64) []*opStream {
	streams := make([]*opStream, w.Readers)
	for r := range streams {
		streams[r] = newOpStream(w, seed, r)
	}
	return streams
}

func (s *opStream) Next() op {
	switch s.w.Pattern {
	case patSequential:
		r := s.next
		s.next = (s.next + 1) % s.n
		return op{region: r}
	case patReadWrite:
		return op{region: s.lo + s.rng.Intn(s.n), write: s.rng.Float64() < s.w.WriteFrac}
	}
	return op{region: s.lo + s.rng.Intn(s.n)}
}

// fillBytes overwrites b (a multiple of 8 long) with the xorshift64
// stream seeded by x and returns the advanced state. It makes the data
// set and the bytes of every Cwrite.
func fillBytes(b []byte, x uint64) uint64 {
	if x == 0 {
		x = 0x9E3779B97F4A7C15
	}
	for i := 0; i+8 <= len(b); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(b[i:], x)
	}
	return x
}
