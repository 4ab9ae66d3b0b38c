// Package pool implements the idle memory daemon's memory pool (§4.2):
// a fixed slab of bytes allocated at daemon startup, carved into
// arbitrary-size regions. Freed space is never returned to the operating
// system — it is marked free and reused, exactly as the paper specifies.
//
// Two allocation policies are provided. FirstFit is the paper's choice: a
// first-fit scan with a periodically run coalescing pass to curb
// fragmentation. Buddy is the buddy-based scheme the paper names as its
// fallback "if this becomes a problem at a later date"; it exists here so
// the fragmentation trade-off can be measured (see the allocator ablation
// bench).
package pool

import (
	"errors"
	"fmt"
	"sort"
)

// Allocator carves regions from a fixed address range [0, Size).
type Allocator interface {
	// Alloc reserves size bytes, returning the block offset.
	// ok is false when no sufficiently large free block exists.
	Alloc(size uint64) (offset uint64, ok bool)
	// Free releases the block at offset (as returned by Alloc).
	Free(offset uint64) error
	// FreeBytes returns the total free space.
	FreeBytes() uint64
	// LargestFree returns the largest single allocatable block — the
	// hint the imd piggybacks to the central manager's IWD (§4.3).
	LargestFree() uint64
	// Size returns the pool size.
	Size() uint64
}

// Errors returned by allocators.
var (
	ErrBadFree  = errors.New("pool: free of unallocated offset")
	ErrBadSize  = errors.New("pool: allocation size must be positive")
	ErrTooLarge = errors.New("pool: size exceeds pool")
)

// block is a contiguous span of the pool.
type block struct {
	off  uint64
	size uint64
	free bool
}

// FirstFit is the paper's allocator: first-fit placement over an
// offset-ordered block list, with coalescing run periodically (every
// CoalescePeriod frees) rather than on every free.
type FirstFit struct {
	size   uint64
	blocks []block // ordered by offset, covers the whole pool
	allocd map[uint64]int

	// CoalescePeriod is the number of Frees between automatic
	// coalescing passes. Zero selects the default (16). Alloc also
	// coalesces as a last resort before reporting failure.
	coalescePeriod int
	freesSince     int

	// stats
	coalesces int64
	failures  int64
}

var _ Allocator = (*FirstFit)(nil)

// NewFirstFit builds a first-fit allocator over size bytes.
func NewFirstFit(size uint64) *FirstFit {
	return &FirstFit{
		size:           size,
		blocks:         []block{{off: 0, size: size, free: true}},
		allocd:         make(map[uint64]int),
		coalescePeriod: 16,
	}
}

// SetCoalescePeriod tunes how many frees pass between coalescing runs.
// period <= 0 disables periodic coalescing (Alloc's last-resort pass
// still runs); this is the knob the fragmentation ablation turns.
func (f *FirstFit) SetCoalescePeriod(period int) { f.coalescePeriod = period }

// Size returns the pool size.
func (f *FirstFit) Size() uint64 { return f.size }

// Alloc reserves size bytes at the first free block large enough,
// splitting the block when it is bigger than needed.
func (f *FirstFit) Alloc(size uint64) (uint64, bool) {
	if size == 0 || size > f.size {
		f.failures++
		return 0, false
	}
	if off, ok := f.tryAlloc(size); ok {
		return off, true
	}
	// Last resort before failing: run the coalescing pass (§4.2's
	// periodic algorithm) and retry once.
	f.Coalesce()
	if off, ok := f.tryAlloc(size); ok {
		return off, true
	}
	f.failures++
	return 0, false
}

func (f *FirstFit) tryAlloc(size uint64) (uint64, bool) {
	for i := range f.blocks {
		b := &f.blocks[i]
		if !b.free || b.size < size {
			continue
		}
		off := b.off
		if b.size == size {
			b.free = false
		} else {
			rest := block{off: b.off + size, size: b.size - size, free: true}
			b.size = size
			b.free = false
			f.blocks = append(f.blocks, block{})
			copy(f.blocks[i+2:], f.blocks[i+1:])
			f.blocks[i+1] = rest
		}
		f.allocd[off] = 1
		return off, true
	}
	return 0, false
}

// Free releases an allocated block. Adjacent free blocks are merged only
// by the periodic coalescing pass, mirroring the paper's design.
func (f *FirstFit) Free(off uint64) error {
	if _, ok := f.allocd[off]; !ok {
		return fmt.Errorf("%w: %d", ErrBadFree, off)
	}
	delete(f.allocd, off)
	i := f.findBlock(off)
	if i < 0 {
		return fmt.Errorf("%w: %d (directory out of sync)", ErrBadFree, off)
	}
	f.blocks[i].free = true
	f.freesSince++
	if f.coalescePeriod > 0 && f.freesSince >= f.coalescePeriod {
		f.Coalesce()
	}
	return nil
}

func (f *FirstFit) findBlock(off uint64) int {
	i := sort.Search(len(f.blocks), func(i int) bool { return f.blocks[i].off >= off })
	if i < len(f.blocks) && f.blocks[i].off == off {
		return i
	}
	return -1
}

// Coalesce merges every run of adjacent free blocks. It is idempotent.
func (f *FirstFit) Coalesce() {
	f.coalesces++
	f.freesSince = 0
	out := f.blocks[:0]
	for _, b := range f.blocks {
		if len(out) > 0 {
			last := &out[len(out)-1]
			if last.free && b.free && last.off+last.size == b.off {
				last.size += b.size
				continue
			}
		}
		out = append(out, b)
	}
	f.blocks = out
}

// FreeBytes returns total free space.
func (f *FirstFit) FreeBytes() uint64 {
	var total uint64
	for _, b := range f.blocks {
		if b.free {
			total += b.size
		}
	}
	return total
}

// LargestFree returns the largest allocatable block as the pool stands
// now (without coalescing — the hint must reflect what an allocation
// this instant would see; Alloc's fallback pass may still do better).
func (f *FirstFit) LargestFree() uint64 {
	var max uint64
	for _, b := range f.blocks {
		if b.free && b.size > max {
			max = b.size
		}
	}
	return max
}

// FragStats describes external fragmentation: 1 - largest/free.
// A value near 0 means free space is contiguous; near 1, shattered.
func (f *FirstFit) FragStats() (freeBytes, largest uint64, frag float64) {
	freeBytes = f.FreeBytes()
	largest = f.LargestFree()
	if freeBytes == 0 {
		return freeBytes, largest, 0
	}
	return freeBytes, largest, 1 - float64(largest)/float64(freeBytes)
}

// Coalesces returns how many coalescing passes have run.
func (f *FirstFit) Coalesces() int64 { return f.coalesces }

// Failures returns how many allocations have failed.
func (f *FirstFit) Failures() int64 { return f.failures }

// checkInvariants verifies the block list tiles [0, size) exactly and
// the allocation directory matches. Tests call this through Validate.
func (f *FirstFit) checkInvariants() error {
	var at uint64
	for i, b := range f.blocks {
		if b.off != at {
			return fmt.Errorf("pool: block %d at %d, expected %d (gap or overlap)", i, b.off, at)
		}
		if b.size == 0 {
			return fmt.Errorf("pool: zero-size block at %d", b.off)
		}
		if !b.free {
			if _, ok := f.allocd[b.off]; !ok {
				return fmt.Errorf("pool: allocated block %d missing from directory", b.off)
			}
		}
		at += b.size
	}
	if at != f.size {
		return fmt.Errorf("pool: blocks cover %d bytes, pool is %d", at, f.size)
	}
	for off := range f.allocd {
		i := f.findBlock(off)
		if i < 0 || f.blocks[i].free {
			return fmt.Errorf("pool: directory entry %d has no allocated block", off)
		}
	}
	return nil
}

// Validate checks internal invariants, returning the first violation.
func (f *FirstFit) Validate() error { return f.checkInvariants() }
