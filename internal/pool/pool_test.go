package pool

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"dodo/internal/wire"
)

func TestFirstFitBasicAllocFree(t *testing.T) {
	f := NewFirstFit(1000)
	off1, ok := f.Alloc(300)
	if !ok || off1 != 0 {
		t.Fatalf("first Alloc = %d, %v; want 0, true", off1, ok)
	}
	off2, ok := f.Alloc(300)
	if !ok || off2 != 300 {
		t.Fatalf("second Alloc = %d, %v; want 300, true", off2, ok)
	}
	if got := f.FreeBytes(); got != 400 {
		t.Fatalf("FreeBytes = %d, want 400", got)
	}
	if err := f.Free(off1); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if got := f.FreeBytes(); got != 700 {
		t.Fatalf("FreeBytes after free = %d, want 700", got)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFirstFitPrefersLowestFit(t *testing.T) {
	f := NewFirstFit(1000)
	a, _ := f.Alloc(100) // [0,100)
	f.Alloc(100)         // [100,200)
	if err := f.Free(a); err != nil {
		t.Fatal(err)
	}
	// First fit must reuse the hole at 0, not extend at 200.
	got, ok := f.Alloc(50)
	if !ok || got != 0 {
		t.Fatalf("Alloc(50) = %d, %v; want 0 (first fit)", got, ok)
	}
}

func TestFirstFitExactFitDoesNotSplit(t *testing.T) {
	f := NewFirstFit(256)
	off, ok := f.Alloc(256)
	if !ok || off != 0 {
		t.Fatalf("Alloc(256) = %d, %v", off, ok)
	}
	if _, ok := f.Alloc(1); ok {
		t.Fatal("Alloc(1) on a full pool succeeded")
	}
	if f.LargestFree() != 0 || f.FreeBytes() != 0 {
		t.Fatalf("full pool reports free %d/largest %d", f.FreeBytes(), f.LargestFree())
	}
}

func TestFirstFitRejectsBadSizes(t *testing.T) {
	f := NewFirstFit(100)
	if _, ok := f.Alloc(0); ok {
		t.Fatal("Alloc(0) succeeded")
	}
	if _, ok := f.Alloc(101); ok {
		t.Fatal("Alloc beyond pool succeeded")
	}
	if f.Failures() != 2 {
		t.Fatalf("Failures = %d, want 2", f.Failures())
	}
}

func TestFirstFitDoubleFree(t *testing.T) {
	f := NewFirstFit(100)
	off, _ := f.Alloc(10)
	if err := f.Free(off); err != nil {
		t.Fatal(err)
	}
	if err := f.Free(off); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double Free = %v, want ErrBadFree", err)
	}
	if err := f.Free(9999); !errors.Is(err, ErrBadFree) {
		t.Fatalf("Free of garbage = %v, want ErrBadFree", err)
	}
}

func TestFirstFitCoalesceRecoversLargeBlock(t *testing.T) {
	f := NewFirstFit(1000)
	f.SetCoalescePeriod(0) // disable periodic pass; rely on last-resort
	offs := make([]uint64, 0, 10)
	for i := 0; i < 10; i++ {
		off, ok := f.Alloc(100)
		if !ok {
			t.Fatalf("Alloc %d failed", i)
		}
		offs = append(offs, off)
	}
	for _, off := range offs {
		if err := f.Free(off); err != nil {
			t.Fatal(err)
		}
	}
	// Without coalescing the largest block is 100; the hint reflects that.
	if got := f.LargestFree(); got != 100 {
		t.Fatalf("LargestFree before coalesce = %d, want 100", got)
	}
	// A big allocation triggers the last-resort coalesce and succeeds.
	off, ok := f.Alloc(1000)
	if !ok || off != 0 {
		t.Fatalf("Alloc(1000) after frees = %d, %v; want last-resort coalesce to succeed", off, ok)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFirstFitPeriodicCoalesce(t *testing.T) {
	f := NewFirstFit(1000)
	f.SetCoalescePeriod(4)
	var offs []uint64
	for i := 0; i < 8; i++ {
		off, _ := f.Alloc(100)
		offs = append(offs, off)
	}
	for _, off := range offs[:4] {
		if err := f.Free(off); err != nil {
			t.Fatal(err)
		}
	}
	if f.Coalesces() == 0 {
		t.Fatal("periodic coalesce did not run after 4 frees")
	}
	if got := f.LargestFree(); got != 400 {
		t.Fatalf("LargestFree after periodic coalesce = %d, want 400", got)
	}
}

// Property: after any sequence of allocs and frees, invariants hold and
// accounting is exact.
func TestPropertyFirstFitInvariants(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 1 << 16
		ff := NewFirstFit(size)
		live := map[uint64]uint64{} // off -> size
		var liveBytes uint64
		for i := 0; i < int(ops); i++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				n := uint64(rng.Intn(size/4) + 1)
				if off, ok := ff.Alloc(n); ok {
					live[off] = n
					liveBytes += n
				}
			} else {
				for off, n := range live {
					if err := ff.Free(off); err != nil {
						return false
					}
					liveBytes -= n
					delete(live, off)
					break
				}
			}
			if ff.FreeBytes() != size-liveBytes {
				return false
			}
			if ff.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: allocations never overlap.
func TestPropertyFirstFitNoOverlap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ff := NewFirstFit(1 << 14)
		type ext struct{ off, size uint64 }
		var live []ext
		for i := 0; i < 50; i++ {
			n := uint64(rng.Intn(1000) + 1)
			off, ok := ff.Alloc(n)
			if !ok {
				continue
			}
			for _, e := range live {
				if off < e.off+e.size && e.off < off+n {
					return false // overlap
				}
			}
			live = append(live, ext{off, n})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBuddyBasic(t *testing.T) {
	b, err := NewBuddy(1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	off1, ok := b.Alloc(100) // rounds to 128
	if !ok {
		t.Fatal("Alloc(100) failed")
	}
	off2, ok := b.Alloc(100)
	if !ok {
		t.Fatal("second Alloc(100) failed")
	}
	if off1 == off2 {
		t.Fatal("buddy handed out the same block twice")
	}
	if got := b.FreeBytes(); got != 1024-256 {
		t.Fatalf("FreeBytes = %d, want %d", got, 1024-256)
	}
	if err := b.Free(off1); err != nil {
		t.Fatal(err)
	}
	if err := b.Free(off2); err != nil {
		t.Fatal(err)
	}
	// After freeing both, merging must restore the full block.
	if got := b.LargestFree(); got != 1024 {
		t.Fatalf("LargestFree after merge = %d, want 1024", got)
	}
}

func TestBuddyRejectsNonPowerOfTwoSize(t *testing.T) {
	if _, err := NewBuddy(1000, 64); err == nil {
		t.Fatal("NewBuddy(1000) succeeded, want error")
	}
	if _, err := NewBuddy(0, 64); err == nil {
		t.Fatal("NewBuddy(0) succeeded, want error")
	}
}

func TestBuddyDoubleFree(t *testing.T) {
	b, _ := NewBuddy(1024, 64)
	off, _ := b.Alloc(64)
	if err := b.Free(off); err != nil {
		t.Fatal(err)
	}
	if err := b.Free(off); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double Free = %v, want ErrBadFree", err)
	}
}

func TestBuddyExhaustion(t *testing.T) {
	b, _ := NewBuddy(1024, 64)
	count := 0
	for {
		if _, ok := b.Alloc(64); !ok {
			break
		}
		count++
	}
	if count != 16 {
		t.Fatalf("allocated %d 64-byte blocks from 1024, want 16", count)
	}
}

// Property: buddy never hands out overlapping blocks and merges fully on
// complete free.
func TestPropertyBuddyNoOverlapAndFullMerge(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b, err := NewBuddy(1<<14, 64)
		if err != nil {
			return false
		}
		type ext struct{ off, size uint64 }
		live := map[uint64]ext{}
		for i := 0; i < 60; i++ {
			if rng.Intn(2) == 0 {
				n := uint64(rng.Intn(2000) + 1)
				if off, ok := b.Alloc(n); ok {
					// round up to the block size actually reserved
					blk := uint64(64)
					for blk < n {
						blk <<= 1
					}
					for _, e := range live {
						if off < e.off+e.size && e.off < off+blk {
							return false
						}
					}
					live[off] = ext{off, blk}
				}
			} else {
				for off := range live {
					if b.Free(off) != nil {
						return false
					}
					delete(live, off)
					break
				}
			}
		}
		for off := range live {
			if b.Free(off) != nil {
				return false
			}
		}
		return b.LargestFree() == 1<<14
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolCreateReadWriteDelete(t *testing.T) {
	p := NewFirstFitPool(1 << 16)
	if _, err := p.Create(1, 1000); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("dodo"), 250)
	n, err := p.Write(1, 0, data)
	if err != nil || n != 1000 {
		t.Fatalf("Write = %d, %v", n, err)
	}
	got, err := p.Read(1, 0, 1000)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Read mismatch: %v", err)
	}
	// Offset read.
	got, err = p.Read(1, 4, 4)
	if err != nil || string(got) != "dodo" {
		t.Fatalf("offset Read = %q, %v", got, err)
	}
	if err := p.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(1, 0, 1); !errors.Is(err, ErrNoRegion) {
		t.Fatalf("Read after delete = %v, want ErrNoRegion", err)
	}
}

func TestPoolShortReadsAndWritesAtTail(t *testing.T) {
	p := NewFirstFitPool(1 << 12)
	if _, err := p.Create(7, 100); err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(7, 90, 50)
	if err != nil || len(got) != 10 {
		t.Fatalf("tail Read = %d bytes, %v; want 10 (short read)", len(got), err)
	}
	n, err := p.Write(7, 95, bytes.Repeat([]byte{1}, 50))
	if err != nil || n != 5 {
		t.Fatalf("tail Write = %d, %v; want 5 (short write)", n, err)
	}
	if _, err := p.Read(7, 101, 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Read past end = %v, want ErrOutOfRange", err)
	}
	if _, err := p.Write(7, 101, []byte{1}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Write past end = %v, want ErrOutOfRange", err)
	}
}

func TestPoolDuplicateRegionID(t *testing.T) {
	p := NewFirstFitPool(1 << 12)
	if _, err := p.Create(1, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Create(1, 100); !errors.Is(err, ErrDupRegion) {
		t.Fatalf("duplicate Create = %v, want ErrDupRegion", err)
	}
}

func TestPoolExhaustionReportsNoSpace(t *testing.T) {
	p := NewFirstFitPool(1000)
	if _, err := p.Create(1, 900); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Create(2, 200); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("over-allocation = %v, want ErrNoSpace", err)
	}
	// Freed memory is reused, not returned to the OS (§4.2).
	if err := p.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Create(2, 900); err != nil {
		t.Fatalf("Create after Delete = %v, want reuse of freed space", err)
	}
}

func TestPoolRegionAccounting(t *testing.T) {
	p := NewFirstFitPool(1 << 12)
	p.Create(1, 100)
	p.Create(2, 200)
	if p.Regions() != 2 {
		t.Fatalf("Regions = %d, want 2", p.Regions())
	}
	size, ok := p.RegionSize(2)
	if !ok || size != 200 {
		t.Fatalf("RegionSize(2) = %d, %v", size, ok)
	}
	if !p.Has(1) || p.Has(3) {
		t.Fatal("Has() wrong")
	}
	if p.Size() != 1<<12 {
		t.Fatalf("Size = %d", p.Size())
	}
}

// Property: pool data integrity — what you write is what you read, for
// arbitrary interleaved regions.
func TestPropertyPoolDataIntegrity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewFirstFitPool(1 << 16)
		contents := map[uint64][]byte{}
		for id := uint64(1); id <= 12; id++ {
			size := uint64(rng.Intn(4000) + 1)
			if _, err := p.Create(id, size); err != nil {
				continue
			}
			data := make([]byte, size)
			rng.Read(data)
			if _, err := p.Write(id, 0, data); err != nil {
				return false
			}
			contents[id] = data
		}
		// Delete a few to force reuse, then rewrite.
		for id := range contents {
			if rng.Intn(3) == 0 {
				if p.Delete(id) != nil {
					return false
				}
				delete(contents, id)
			}
		}
		for id, want := range contents {
			got, err := p.Read(id, 0, uint64(len(want)))
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFreshRegionReadsZeros: a region created on a span another region
// freed reads as zeros, never as the previous tenant's bytes.
func TestFreshRegionReadsZeros(t *testing.T) {
	p := NewFirstFitPool(1 << 12)
	secret := []byte("secret of tenant one")
	off1, err := p.Create(1, uint64(len(secret)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(1, 0, secret); err != nil {
		t.Fatal(err)
	}
	if err := p.Delete(1); err != nil {
		t.Fatal(err)
	}
	off2, err := p.Create(2, uint64(len(secret)))
	if err != nil {
		t.Fatal(err)
	}
	if off2 != off1 {
		t.Fatalf("Create reused no span (offset %d, freed %d); the test needs the reuse", off2, off1)
	}
	got, err := p.Read(2, 0, uint64(len(secret)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, len(secret))) {
		t.Fatalf("fresh region reads %q, want zeros", got)
	}
}

// TestCachedSumTracksBytes drives a seeded mix of Create, Write, Delete
// and Read, whole and partial, using the cache the way the imd does: a
// write over the whole region records the sum it verified, a whole read
// with nothing cached computes the sum and records it. After every step
// every cached sum is the checksum of its region's bytes.
func TestCachedSumTracksBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	p := NewFirstFitPool(1 << 16)
	const ids = 8
	for step := 0; step < 20000; step++ {
		id := uint64(rng.Intn(ids) + 1)
		size, live := p.RegionSize(id)
		op := "create"
		switch {
		case !live:
			if _, err := p.Create(id, uint64(rng.Intn(4096)+1)); err != nil && !errors.Is(err, ErrNoSpace) {
				t.Fatal(err)
			}
		case rng.Intn(10) == 0:
			op = "delete"
			if err := p.Delete(id); err != nil {
				t.Fatal(err)
			}
		default:
			off, n := uint64(0), size
			if rng.Intn(2) == 0 {
				off = uint64(rng.Int63n(int64(size)))
				n = uint64(rng.Int63n(int64(size-off)) + 1)
			}
			whole := off == 0 && n == size
			if rng.Intn(2) == 0 {
				op = "write"
				data := make([]byte, n)
				rng.Read(data)
				if _, err := p.Write(id, off, data); err != nil {
					t.Fatal(err)
				}
				if whole {
					p.SetSum(id, wire.Checksum(data))
				}
			} else {
				op = "read"
				data, err := p.Read(id, off, n)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := p.Sum(id); whole && !ok {
					p.SetSum(id, wire.Checksum(data))
				}
			}
		}
		for id := uint64(1); id <= ids; id++ {
			sum, ok := p.Sum(id)
			if !ok {
				continue
			}
			size, _ := p.RegionSize(id)
			data, err := p.Read(id, 0, size)
			if err != nil {
				t.Fatal(err)
			}
			if want := wire.Checksum(data); sum != want {
				t.Fatalf("step %d (%s): region %d caches sum %#x, its bytes sum to %#x", step, op, id, sum, want)
			}
		}
	}
}

func BenchmarkFirstFitAllocFree(b *testing.B) {
	f := NewFirstFit(1 << 30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off, ok := f.Alloc(128 << 10)
		if !ok {
			b.Fatal("alloc failed")
		}
		if err := f.Free(off); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuddyAllocFree(b *testing.B) {
	bd, err := NewBuddy(1<<30, 4096)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off, ok := bd.Alloc(128 << 10)
		if !ok {
			b.Fatal("alloc failed")
		}
		if err := bd.Free(off); err != nil {
			b.Fatal(err)
		}
	}
}
