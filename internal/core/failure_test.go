package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dodo/internal/imd"
	"dodo/internal/manager"
	"dodo/internal/usocket"
)

// TestManagerUnreachableDegradesGracefully: with the central manager
// gone, no new regions can be allocated — but data-path operations to
// live imds keep working (control and data planes are separate, §4).
func TestManagerUnreachableDegradesGracefully(t *testing.T) {
	s := newStack(t, 1, 1<<20)
	back := NewMemBacking(21, 1<<20)
	fd, err := s.cli.Mopen(8192, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x11}, 8192)
	if _, err := s.cli.Mwrite(fd, 0, payload); err != nil {
		t.Fatal(err)
	}

	// The manager's machine dies.
	s.seg.Partition(s.seg.Addr("cmd"))

	// Reads and writes go directly to the imd: still fine.
	buf := make([]byte, 8192)
	if n, err := s.cli.Mread(fd, 0, buf); err != nil || n != 8192 {
		t.Fatalf("Mread with dead manager = %d, %v", n, err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("data corrupted")
	}
	if _, err := s.cli.Mwrite(fd, 4096, payload[:1024]); err != nil {
		t.Fatalf("Mwrite with dead manager: %v", err)
	}
	// New allocations fail with ENOMEM semantics.
	if _, err := s.cli.Mopen(4096, back, 8192); !errors.Is(err, ErrNoMem) {
		t.Fatalf("Mopen with dead manager = %v, want ErrNoMem", err)
	}
	// Mclose cannot reach the manager; it reports the failure.
	if err := s.cli.Mclose(fd); err == nil {
		t.Fatal("Mclose with dead manager succeeded")
	}
}

// TestNetworkFlapRecoversViaCheckAlloc: a transient partition drops the
// client's descriptors, but the region is still alive at the imd and in
// the manager's directory; checkAlloc revalidates it after the heal
// (§4.3's purpose).
func TestNetworkFlapRecoversViaCheckAlloc(t *testing.T) {
	s := newStack(t, 1, 1<<20)
	back := NewMemBacking(22, 1<<20)
	fd, err := s.cli.Mopen(8192, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x22}, 8192)
	if _, err := s.cli.Mwrite(fd, 0, payload); err != nil {
		t.Fatal(err)
	}

	// Flap: the imd's switch port goes dark, one read fails, the
	// descriptor drops.
	s.seg.Partition(s.seg.Addr("imd0"))
	buf := make([]byte, 8192)
	if _, err := s.cli.Mread(fd, 0, buf); !errors.Is(err, ErrNoMem) {
		t.Fatalf("Mread during flap = %v, want ErrNoMem", err)
	}
	if s.cli.RegionValid(fd) {
		t.Fatal("descriptor still valid during flap")
	}
	s.seg.Heal(s.seg.Addr("imd0"))

	// checkAlloc revalidates: the epoch still matches, the region is
	// intact, the descriptor comes back.
	ok, err := s.cli.CheckAlloc(fd)
	if err != nil || !ok {
		t.Fatalf("CheckAlloc after heal = %v, %v; want true", ok, err)
	}
	if !s.cli.RegionValid(fd) {
		t.Fatal("descriptor not restored after CheckAlloc")
	}
	n, err := s.cli.Mread(fd, 0, buf)
	if err != nil || n != 8192 || !bytes.Equal(buf, payload) {
		t.Fatalf("Mread after recovery = %d, %v", n, err)
	}
}

// TestTwoClientsAreIsolated: the multi-client extension of footnote 4 —
// region keys include the client id, so two applications caching the
// same (inode, offset) range get independent regions.
func TestTwoClientsAreIsolated(t *testing.T) {
	seg := usocket.NewSegment()
	mgr := manager.New(host(t, seg, "cmd"), manager.Config{
		KeepAliveInterval: time.Hour,
		Endpoint:          fastEp(),
	})
	d := imd.New(host(t, seg, "imd0"), imd.Config{
		ManagerAddr: seg.Addr("cmd"), PoolSize: 1 << 20, Epoch: 1,
		StatusInterval: 100 * time.Millisecond, Endpoint: fastEp(),
	})
	t.Cleanup(func() { d.Close(); mgr.Close() })

	cliA := New(host(t, seg, "appA"), Config{ManagerAddr: seg.Addr("cmd"), ClientID: 1, Endpoint: fastEp()})
	cliB := New(host(t, seg, "appB"), Config{ManagerAddr: seg.Addr("cmd"), ClientID: 2, Endpoint: fastEp()})
	t.Cleanup(func() { cliA.Close(); cliB.Close() })

	// Same backing identity, same offset — different clients.
	backA := NewMemBacking(50, 1<<20)
	backB := NewMemBacking(50, 1<<20)
	fdA, err := cliA.Mopen(4096, backA, 0)
	if err != nil {
		t.Fatal(err)
	}
	fdB, err := cliB.Mopen(4096, backB, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Two distinct regions must exist.
	if got := mgr.Stats().Regions; got != 2 {
		t.Fatalf("manager regions = %d, want 2 (per-client isolation)", got)
	}
	// Writes do not bleed across clients.
	if _, err := cliA.Mwrite(fdA, 0, bytes.Repeat([]byte{0xAA}, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, err := cliB.Mwrite(fdB, 0, bytes.Repeat([]byte{0xBB}, 4096)); err != nil {
		t.Fatal(err)
	}
	bufA := make([]byte, 4096)
	bufB := make([]byte, 4096)
	if _, err := cliA.Mread(fdA, 0, bufA); err != nil {
		t.Fatal(err)
	}
	if _, err := cliB.Mread(fdB, 0, bufB); err != nil {
		t.Fatal(err)
	}
	if bufA[0] != 0xAA || bufB[0] != 0xBB {
		t.Fatalf("cross-client bleed: A sees %x, B sees %x", bufA[0], bufB[0])
	}
	// A's Mclose must not disturb B.
	if err := cliA.Mclose(fdA); err != nil {
		t.Fatal(err)
	}
	if _, err := cliB.Mread(fdB, 0, bufB); err != nil || bufB[0] != 0xBB {
		t.Fatalf("B's region damaged by A's close: %v", err)
	}
}

// TestSameClientIDSharesRegions: two processes presenting the same
// client id share the region namespace — the paper's single-client
// semantics, which is also how dmine's re-run finds its data.
func TestSameClientIDSharesRegions(t *testing.T) {
	seg := usocket.NewSegment()
	mgr := manager.New(host(t, seg, "cmd"), manager.Config{
		KeepAliveInterval: time.Hour,
		Endpoint:          fastEp(),
	})
	d := imd.New(host(t, seg, "imd0"), imd.Config{
		ManagerAddr: seg.Addr("cmd"), PoolSize: 1 << 20, Epoch: 1,
		StatusInterval: 100 * time.Millisecond, Endpoint: fastEp(),
	})
	t.Cleanup(func() { d.Close(); mgr.Close() })

	back := NewMemBacking(60, 1<<20)
	first := New(host(t, seg, "p1"), Config{ManagerAddr: seg.Addr("cmd"), ClientID: 9, Endpoint: fastEp()})
	fd1, err := first.Mopen(4096, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x77}, 4096)
	if _, err := first.Mwrite(fd1, 0, want); err != nil {
		t.Fatal(err)
	}
	first.Close()

	second := New(host(t, seg, "p2"), Config{ManagerAddr: seg.Addr("cmd"), ClientID: 9, Endpoint: fastEp()})
	defer second.Close()
	fd2, err := second.Mopen(4096, back, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if _, err := second.Mread(fd2, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("second process with the same client id did not see the cached data")
	}
	if mgr.Stats().Regions != 1 {
		t.Fatalf("regions = %d, want 1 shared", mgr.Stats().Regions)
	}
}

// TestConcurrentReadersAndWritersOneClient: the runtime library is safe
// for concurrent use by application goroutines.
func TestConcurrentReadersAndWritersOneClient(t *testing.T) {
	s := newStack(t, 2, 1<<20)
	back := NewMemBacking(70, 1<<20)
	const regions = 8
	fds := make([]int, regions)
	for i := range fds {
		fd, err := s.cli.Mopen(16<<10, back, int64(i)*16<<10)
		if err != nil {
			t.Fatal(err)
		}
		fds[i] = fd
	}
	errCh := make(chan error, regions*2)
	for i := range fds {
		i := i
		go func() {
			payload := bytes.Repeat([]byte{byte(i + 1)}, 16<<10)
			_, err := s.cli.Mwrite(fds[i], 0, payload)
			errCh <- err
		}()
	}
	for i := 0; i < regions; i++ {
		if err := <-errCh; err != nil {
			t.Fatalf("concurrent write: %v", err)
		}
	}
	for i := range fds {
		i := i
		go func() {
			buf := make([]byte, 16<<10)
			n, err := s.cli.Mread(fds[i], 0, buf)
			if err == nil && (n != 16<<10 || buf[0] != byte(i+1)) {
				err = errors.New("corrupt read")
			}
			errCh <- err
		}()
	}
	for i := 0; i < regions; i++ {
		if err := <-errCh; err != nil {
			t.Fatalf("concurrent read: %v", err)
		}
	}
}
