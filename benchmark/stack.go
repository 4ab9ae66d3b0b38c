package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"dodo/internal/core"
	"dodo/internal/imd"
	"dodo/internal/manager"
	"dodo/internal/region"
	"dodo/internal/transport"
	"dodo/internal/usocket"
)

// hooks lets a pass install decorators at the stack's public seams.
// The measured pass boots with nil hooks, so nothing is installed.
type hooks interface {
	// wrapTransport decorates the transport of one endpoint; role is
	// "client", "imd" or "manager".
	wrapTransport(role string, t transport.Transport) transport.Transport
	wrapDodo(d batchDodo) batchDodo
	wrapBacking(b core.Backing) core.Backing
}

// batchDodo is what the region cache sees of *core.Client: the Dodo
// calls and the batched read it finds by type assertion.
type batchDodo interface {
	region.Dodo
	region.BatchReader
}

// stack is the system under test: a manager, four imds, a client
// runtime and a region cache in one process over one transport.
type stack struct {
	w     *workload
	mgr   *manager.Manager
	imds  []*imd.Daemon
	cli   *core.Client
	cache *region.Cache
	fds   []int // cache descriptor of every region, in file order

	// configs holds every non-zero Config field, for the report.
	configs map[string]map[string]any
}

// setupTimes splits the timed set-up phase.
type setupTimes struct {
	boot, copen, populate time.Duration
	copenHist             histogram
}

func (t setupTimes) total() time.Duration { return t.boot + t.copen + t.populate }

// nodeFactory opens the i-th endpoint of one network.
type nodeFactory func(i int) (transport.Transport, error)

func unetFactory() nodeFactory {
	seg := usocket.NewSegment()
	return func(i int) (transport.Transport, error) {
		sock, err := seg.Socket(256, 256)
		if err != nil {
			return nil, err
		}
		addr, err := usocket.Aton(fmt.Sprintf("00:00:00:00:00:%02x", i+1))
		if err != nil {
			return nil, err
		}
		if err := sock.Bind(addr); err != nil {
			return nil, err
		}
		return usocket.NewTransport(sock)
	}
}

func udpFactory() nodeFactory {
	return func(int) (transport.Transport, error) { return transport.ListenUDP("127.0.0.1:0") }
}

// boot starts the daemons, the client and the cache. Each config is the
// zero value plus the fields named here, so shipped defaults are what
// is measured.
func boot(w *workload, h hooks) (*stack, error) {
	var node nodeFactory
	switch w.Transport {
	case "unet":
		node = unetFactory()
	case "udp":
		node = udpFactory()
	default:
		return nil, fmt.Errorf("unknown transport %q", w.Transport)
	}
	endpoint := func(i int, role string) (transport.Transport, error) {
		t, err := node(i)
		if err != nil {
			return nil, fmt.Errorf("opening %s endpoint: %w", role, err)
		}
		if h != nil {
			t = h.wrapTransport(role, t)
		}
		return t, nil
	}
	s := &stack{w: w, configs: make(map[string]map[string]any)}
	tr, err := endpoint(0, "manager")
	if err != nil {
		return nil, err
	}
	mcfg := manager.Config{}
	s.mgr = manager.New(tr, mcfg)
	s.configs["manager"] = nonZeroFields(mcfg)
	for i := 0; i < numIMDs; i++ {
		tr, err := endpoint(1+i, "imd")
		if err != nil {
			s.close()
			return nil, err
		}
		icfg := imd.Config{ManagerAddr: s.mgr.Addr(), PoolSize: uint64(w.PoolBytes), Epoch: 1}
		s.imds = append(s.imds, imd.New(tr, icfg))
		s.configs["imd"] = nonZeroFields(icfg)
	}
	tr, err = endpoint(1+numIMDs, "client")
	if err != nil {
		s.close()
		return nil, err
	}
	ccfg := core.Config{ManagerAddr: s.mgr.Addr(), ClientID: 1}
	s.cli = core.New(tr, ccfg)
	s.configs["client"] = nonZeroFields(ccfg)
	deadline := time.Now().Add(5 * time.Second)
	for s.mgr.Stats().IdleHosts < numIMDs {
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("manager sees %d of %d imds", s.mgr.Stats().IdleHosts, numIMDs)
		}
		time.Sleep(time.Millisecond)
	}
	rcfg := region.Config{Capacity: w.LocalBytes, PromoteOnAccess: true}
	if w.PrefetchWindow > 0 {
		rcfg.SequentialPrefetch, rcfg.PrefetchWindow, rcfg.PrefetchWorkers = true, w.PrefetchWindow, w.PrefetchWorkers
	}
	var dodo batchDodo = s.cli
	if h != nil {
		dodo = h.wrapDodo(s.cli)
	}
	s.cache = region.NewCache(dodo, rcfg)
	s.configs["region"] = nonZeroFields(rcfg)
	return s, nil
}

// populate opens every region and reads the data set once in file
// order, which pushes it through disk, the local cache and — once the
// local cache is full — remote memory.
func (s *stack) populate(backing core.Backing, t *setupTimes) error {
	size := int64(s.w.RegionSize)
	n := s.w.regions()
	s.fds = make([]int, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fd, err := s.cache.Copen(size, backing, int64(i)*size)
		t.copenHist.add(time.Since(t0))
		if err != nil {
			return fmt.Errorf("Copen region %d: %w", i, err)
		}
		s.fds[i] = fd
	}
	t.copen = time.Since(start)
	start = time.Now()
	buf := make([]byte, size)
	for i, fd := range s.fds {
		if got, err := s.cache.Cread(fd, 0, buf); err != nil || got != len(buf) {
			return fmt.Errorf("populating region %d: read %d bytes: %v", i, got, err)
		}
	}
	s.cache.Quiesce()
	t.populate = time.Since(start)
	return nil
}

// setup is the timed set-up phase: boot, Copen of every region and the
// populate pass.
func setup(w *workload, h hooks, backing core.Backing) (*stack, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	s, err := boot(w, h)
	if err != nil {
		return nil, t, err
	}
	t.boot = time.Since(start)
	if h != nil {
		backing = h.wrapBacking(backing)
	}
	if err := s.populate(backing, &t); err != nil {
		s.close()
		return nil, t, err
	}
	return s, t, nil
}

func (s *stack) close() {
	if s.cache != nil {
		s.cache.Close()
	}
	if s.cli != nil {
		_ = s.cli.Close() // tearing down; a transport close error changes nothing
	}
	// Each daemon's Close waits out its receive loop's 200 ms poll; the
	// five of them do so side by side.
	var wg sync.WaitGroup
	for _, d := range s.imds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = d.Close()
		}()
	}
	if s.mgr != nil {
		_ = s.mgr.Close()
	}
	wg.Wait()
}

// dataSet is the generated input of a run: the driver's shadow copy and
// the backing store holding the same bytes.
type dataSet struct {
	shadow  []byte
	backing core.Backing
	file    *os.File // non-nil for a file-backed workload
}

// newDataSet generates the data set from the seed and stores it in the
// workload's backing: memory, or a temp file under dir.
func newDataSet(w *workload, seed int64, dir string) (*dataSet, error) {
	ds := &dataSet{shadow: make([]byte, w.DataBytes)}
	fillBytes(ds.shadow, uint64(seed)*0x9E3779B97F4A7C15+1)
	if !w.FileBacked {
		mb := core.NewMemBacking(1, int(w.DataBytes))
		if _, err := mb.WriteAt(ds.shadow, 0); err != nil {
			return nil, err
		}
		ds.backing = mb
		return ds, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, w.Name+"-*.dat")
	if err != nil {
		return nil, err
	}
	ds.file = f
	if _, err := f.WriteAt(ds.shadow, 0); err != nil {
		ds.close()
		return nil, err
	}
	fb, err := core.NewFileBacking(f)
	if err != nil {
		ds.close()
		return nil, err
	}
	ds.backing = fb
	return ds, nil
}

func (ds *dataSet) close() {
	if ds.file != nil {
		_ = ds.file.Close() // read back already; the file is removed next
		_ = os.Remove(filepath.Clean(ds.file.Name()))
	}
}

// nonZeroFields lists the exported non-zero fields of a config struct,
// nested structs flattened with a dot.
func nonZeroFields(cfg any) map[string]any {
	out := make(map[string]any)
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() || v.Field(i).IsZero() {
				continue
			}
			if f.Type.Kind() == reflect.Struct {
				walk(prefix+f.Name+".", v.Field(i))
				continue
			}
			out[prefix+f.Name] = v.Field(i).Interface()
		}
	}
	walk("", reflect.ValueOf(cfg))
	return out
}
