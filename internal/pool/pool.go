package pool

import (
	"errors"
	"fmt"
	"sort"
)

// Pool couples an Allocator with the actual byte storage and a region
// directory, providing the store the idle memory daemon serves remote
// memory regions from. Its methods are not safe for concurrent use; the
// imd calls them under its lock. The bytes Read returns are the slab
// itself, not a copy: the imd sends a pinned region's bytes from them
// outside its lock, and keeps every Write and Delete of that region
// waiting until the pin is released.
type Pool struct {
	buf   []byte
	alloc Allocator
	// regions maps region id -> live extent.
	regions map[uint64]span
}

type span struct {
	off  uint64
	size uint64
	// sum is the checksum of the region's bytes when summed is set:
	// SetSum records it, a Write drops it.
	sum    uint32
	summed bool
}

// Errors returned by Pool operations.
var (
	ErrNoSpace    = errors.New("pool: insufficient free space")
	ErrNoRegion   = errors.New("pool: no such region")
	ErrDupRegion  = errors.New("pool: region id already exists")
	ErrOutOfRange = errors.New("pool: access beyond region bounds")
)

// New builds a pool of size bytes using the given allocator (whose Size
// must match). The backing slab is allocated eagerly, as the imd does on
// startup (§4.2).
func New(alloc Allocator) *Pool {
	return &Pool{
		buf:     make([]byte, alloc.Size()),
		alloc:   alloc,
		regions: make(map[uint64]span),
	}
}

// NewFirstFitPool is shorthand for the paper's default configuration.
func NewFirstFitPool(size uint64) *Pool { return New(NewFirstFit(size)) }

// Create carves a region of size bytes under id. The allocated block
// moves into p.regions; Delete frees it back to the allocator. A new
// region reads as zeros: the slab starts zeroed and Delete clears what
// it frees.
func (p *Pool) Create(id uint64, size uint64) (offset uint64, err error) {
	if _, dup := p.regions[id]; dup {
		return 0, fmt.Errorf("%w: %d", ErrDupRegion, id)
	}
	if size == 0 {
		return 0, ErrBadSize
	}
	off, ok := p.alloc.Alloc(size)
	if !ok {
		return 0, fmt.Errorf("%w: want %d, largest free %d", ErrNoSpace, size, p.alloc.LargestFree())
	}
	p.regions[id] = span{off: off, size: size}
	return off, nil
}

// Delete releases a region. Its bytes are cleared, so the next tenant of
// the span never reads them, and the memory is marked free and reused,
// never returned to the OS.
func (p *Pool) Delete(id uint64) error {
	s, ok := p.regions[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoRegion, id)
	}
	delete(p.regions, id)
	clear(p.buf[s.off : s.off+s.size])
	return p.alloc.Free(s.off)
}

// Has reports whether a region exists.
func (p *Pool) Has(id uint64) bool {
	_, ok := p.regions[id]
	return ok
}

// RegionSize returns a region's length.
func (p *Pool) RegionSize(id uint64) (uint64, bool) {
	s, ok := p.regions[id]
	return s.size, ok
}

// Read returns up to length bytes at offset within region id, in place
// in the slab, returning the bytes actually available (short reads at
// the region tail mirror the mread contract of §3.2).
func (p *Pool) Read(id uint64, offset uint64, length uint64) ([]byte, error) {
	s, ok := p.regions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoRegion, id)
	}
	if offset > s.size {
		return nil, fmt.Errorf("%w: offset %d in %d-byte region", ErrOutOfRange, offset, s.size)
	}
	if offset+length > s.size {
		length = s.size - offset
	}
	lo := s.off + offset
	return p.buf[lo : lo+length : lo+length], nil
}

// Write copies data into region id at offset, returning the bytes
// actually written (short writes at the tail mirror mwrite, §3.2). It
// drops the region's cached checksum.
func (p *Pool) Write(id uint64, offset uint64, data []byte) (int, error) {
	s, ok := p.regions[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoRegion, id)
	}
	if offset > s.size {
		return 0, fmt.Errorf("%w: offset %d in %d-byte region", ErrOutOfRange, offset, s.size)
	}
	if s.summed {
		s.summed = false
		p.regions[id] = s
	}
	n := copy(p.buf[s.off+offset:s.off+s.size], data)
	return n, nil
}

// Sum returns the checksum cached for region id's bytes, if one is.
func (p *Pool) Sum(id uint64) (uint32, bool) {
	s := p.regions[id]
	return s.sum, s.summed
}

// SetSum caches crc as the checksum of region id's bytes as they are
// now; the next Write or the Delete drops it. The caller computed crc
// over the whole region, or verified it against bytes it has just
// written over the whole region.
func (p *Pool) SetSum(id uint64, crc uint32) {
	if s, ok := p.regions[id]; ok {
		s.sum, s.summed = crc, true
		p.regions[id] = s
	}
}

// FreeBytes returns the allocator's free space.
func (p *Pool) FreeBytes() uint64 { return p.alloc.FreeBytes() }

// LargestFree returns the allocator's largest free block.
func (p *Pool) LargestFree() uint64 { return p.alloc.LargestFree() }

// Size returns the pool capacity.
func (p *Pool) Size() uint64 { return p.alloc.Size() }

// Regions returns the number of live regions.
func (p *Pool) Regions() int { return len(p.regions) }

// RegionIDs returns the ids of all live regions in ascending order.
func (p *Pool) RegionIDs() []uint64 {
	ids := make([]uint64, 0, len(p.regions))
	for id := range p.regions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Allocator exposes the underlying allocator (for stats and ablations).
func (p *Pool) Allocator() Allocator { return p.alloc }
