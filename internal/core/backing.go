// Package core implements libdodo, the Dodo runtime library linked into
// every application (§3.2, §4.4).
//
// The library gives applications explicit control over the remote memory
// cache through an API modeled on stdio: Mopen allocates a remote region
// backed by a file range, Mread fetches from remote memory, Mwrite
// propagates to the backing file and the remote region in parallel,
// Mclose frees the region, Msync barriers on disk. A region table tracks
// every region the application created; a refraction period suppresses
// allocation attempts after a failure; and any access failure against a
// host drops all descriptors served by that host (§3.1).
package core

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"syscall"

	"dodo/internal/locks"
)

// Backing is the disk store behind a remote region: every Dodo region is
// a read-only cache of a byte range of some backing file (§3.2 mopen).
// *os.File satisfies the I/O surface; FileBacking adds the inode. Tests
// and simulations use MemBacking.
type Backing interface {
	// ReadAt and WriteAt use absolute backing offsets. WriteAt keeps no
	// reference to p once it has returned: the region cache reuses an
	// evicted region's buffer as soon as its flush is back.
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	// Sync blocks until written data is durable (msync's contract).
	Sync() error
	// Inode identifies the backing object for the region-directory key.
	Inode() uint64
	// Writable reports whether the backing was opened for writing;
	// mopen requires it (§3.2).
	Writable() bool
}

// FileBacking adapts an *os.File opened read-write.
type FileBacking struct {
	F *os.File

	// inode is resolved once: an open descriptor's inode cannot change,
	// and the region cache asks for it under its mutex on every access.
	// dodo:unguarded — sync.Once is internally synchronized
	inodeOnce sync.Once
	// dodo:unguarded — written once inside inodeOnce, read after it
	inode uint64
}

var _ Backing = (*FileBacking)(nil)

// NewFileBacking wraps an open file, verifying it is writable and
// resolving its inode.
func NewFileBacking(f *os.File) (*FileBacking, error) {
	if f == nil {
		return nil, errors.New("core: nil file")
	}
	// The backing file must be open in write mode (mopen's EINVAL
	// contract, §3.2). Check the open-file flags.
	if !fdWritable(f) {
		return nil, fmt.Errorf("core: backing file %s not open for writing (EINVAL)", f.Name())
	}
	b := &FileBacking{F: f}
	b.Inode()
	return b, nil
}

// fdWritable reports whether the file was opened with write access.
func fdWritable(f *os.File) bool {
	flags, _, errno := syscall.Syscall(syscall.SYS_FCNTL, f.Fd(), syscall.F_GETFL, 0)
	if errno != 0 {
		// Cannot interrogate (non-Unix?): assume writable and let the
		// first write fail loudly instead.
		return true
	}
	acc := flags & syscall.O_ACCMODE
	return acc == syscall.O_WRONLY || acc == syscall.O_RDWR
}

// ReadAt reads from the file.
func (b *FileBacking) ReadAt(p []byte, off int64) (int, error) { return b.F.ReadAt(p, off) }

// WriteAt writes to the file.
func (b *FileBacking) WriteAt(p []byte, off int64) (int, error) { return b.F.WriteAt(p, off) }

// Sync flushes the file.
func (b *FileBacking) Sync() error { return b.F.Sync() }

// Inode returns the file's inode number. The fstat behind it runs once
// per backing — in NewFileBacking, or on the first call for a value
// built as &FileBacking{F: f}.
func (b *FileBacking) Inode() uint64 {
	b.inodeOnce.Do(func() { b.inode = statInode(b.F) })
	return b.inode
}

func statInode(f *os.File) uint64 {
	fi, err := f.Stat()
	if err != nil {
		return 0
	}
	if st, ok := fi.Sys().(*syscall.Stat_t); ok {
		return st.Ino
	}
	// Non-Unix platform: hash the name for a stable identifier.
	var h uint64 = 14695981039346656037
	for _, c := range f.Name() {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Writable reports whether the file was opened for writing.
func (b *FileBacking) Writable() bool { return fdWritable(b.F) }

// MemBacking is an in-memory backing store for tests and virtual-time
// simulations. It grows on demand and is safe for concurrent use.
type MemBacking struct {
	mu locks.Mutex
	// dodo:guardedby mu
	data []byte
	// dodo:unguarded — immutable after construction
	inode uint64
	// dodo:guardedby mu
	readOnly bool

	// Counters let experiments account simulated disk traffic.
	// dodo:guardedby mu
	reads, writes, readBytes, writeBytes int64
}

var _ Backing = (*MemBacking)(nil)

// NewMemBacking creates an in-memory backing with the given inode.
func NewMemBacking(inode uint64, size int) *MemBacking {
	b := &MemBacking{data: make([]byte, size), inode: inode}
	b.mu.SetRank(locks.RankBacking)
	return b
}

// SetReadOnly makes subsequent writes fail (for mopen validation tests).
func (b *MemBacking) SetReadOnly() {
	b.mu.Lock()
	b.readOnly = true
	b.mu.Unlock()
}

// ReadAt reads from the store.
func (b *MemBacking) ReadAt(p []byte, off int64) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if off < 0 {
		return 0, errors.New("core: negative offset")
	}
	if off >= int64(len(b.data)) {
		return 0, fmt.Errorf("core: read at %d beyond backing of %d bytes", off, len(b.data))
	}
	n := copy(p, b.data[off:])
	b.reads++
	b.readBytes += int64(n)
	if n < len(p) {
		return n, fmt.Errorf("core: short read at backing tail")
	}
	return n, nil
}

// WriteAt writes to the store, growing it as needed.
func (b *MemBacking) WriteAt(p []byte, off int64) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.readOnly {
		return 0, errors.New("core: backing is read-only")
	}
	if off < 0 {
		return 0, errors.New("core: negative offset")
	}
	if need := off + int64(len(p)); need > int64(len(b.data)) {
		grown := make([]byte, need)
		copy(grown, b.data)
		b.data = grown
	}
	n := copy(b.data[off:], p)
	b.writes++
	b.writeBytes += int64(n)
	return n, nil
}

// Sync is a no-op for memory.
func (b *MemBacking) Sync() error { return nil }

// Inode returns the configured identifier.
func (b *MemBacking) Inode() uint64 { return b.inode }

// Writable reports the read-only flag.
func (b *MemBacking) Writable() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.readOnly
}

// Traffic reports cumulative I/O counters.
func (b *MemBacking) Traffic() (reads, writes, readBytes, writeBytes int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.reads, b.writes, b.readBytes, b.writeBytes
}

// Bytes returns a copy of the store contents (test helper).
func (b *MemBacking) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.data...)
}
