package region

import "runtime"

// Sequential prefetching is this reproduction's implementation of the
// direction the paper points at via Voelker et al.'s cooperative
// prefetching: when the application walks regions of one backing file
// in order, the cache pulls the next regions toward local memory before
// they are asked for.
//
// Enable it with Config.SequentialPrefetch. Detection is per backing
// file (c.streams keys on the inode, so interleaved scans over
// different files each keep their own detector): an access to the
// region starting exactly where the previously accessed region of that
// file ended arms the prefetcher, which then runs Config.PrefetchWindow
// contiguous regions ahead, or as many as the cache holds. With
// Config.PrefetchWorkers > 0 the pulls run on a bounded background
// pool, overlapping the foreground accesses; with 0 workers they run
// synchronously on the accessing goroutine, which keeps virtual-time
// experiments deterministic. Each
// region of a window is pulled by Prefetch, through the fillRegion →
// Mread path a foreground miss takes; callers can also invoke Prefetch
// directly for application-directed prefetching (the explicit analogue
// of the paper's explicit-control philosophy).

// prefKey identifies a region by its backing location.
type prefKey struct {
	inode uint64
	off   int64
}

// maybePrefetchLocked records an access to r for sequential detection
// and returns the fds the prefetch pipeline should pull, accounting
// them in prefetchPend. Caller holds c.mu; the caller must pass the
// returned jobs to dispatchPrefetch after unlocking (the dispatch
// sends on a channel, which must never happen under the lock).
func (c *Cache) maybePrefetchLocked(r *cregion) []int {
	if !c.cfg.SequentialPrefetch {
		return nil
	}
	inode := r.backing.Inode()
	next, armed := c.streams[inode]
	c.streams[inode] = r.backOff + r.length
	if !armed || next != r.backOff {
		return nil
	}
	// Sequential stream confirmed: collect up to PrefetchWindow
	// contiguous successor regions that are neither local nor already
	// in flight — and no more of them than the cache holds at once, or
	// each fill of the list would evict the one before it.
	var jobs []int
	var bytes int64
	off := r.backOff + r.length
	for i := 0; i < c.cfg.PrefetchWindow; i++ {
		nfd, ok := c.byLocation[prefKey{inode: inode, off: off}]
		if !ok {
			break // hole in the file coverage ends the window
		}
		nr := c.lookup(nfd)
		if nr == nil {
			break
		}
		if nr.local == nil && nr.pend == nil {
			if bytes += nr.length; bytes > c.cfg.Capacity && len(jobs) > 0 {
				break
			}
			jobs = append(jobs, nfd)
		}
		off += nr.length
	}
	if len(jobs) == 0 || c.closed {
		return nil
	}
	c.prefetchPend += len(jobs)
	return jobs
}

// dispatchPrefetch hands jobs from maybePrefetchLocked to the pipeline.
// Must be called without c.mu. With no worker pool the pulls run
// inline; with a pool the window is queued whole and dropped
// (prefetches are hints) when the queue is saturated. Every accounted
// job is retired exactly once — run, dropped on saturation, or drained
// by Close.
func (c *Cache) dispatchPrefetch(jobs []int) {
	if len(jobs) == 0 {
		return
	}
	if c.prefetchQ == nil {
		c.prefetchAll(jobs)
		return
	}
	select {
	case c.prefetchQ <- jobs:
	default:
		for range jobs {
			c.finishPrefetchJob() // queue full: drop the hints
		}
	}
}

// finishPrefetchJob retires one accounted prefetch job and wakes
// Quiesce waiters.
func (c *Cache) finishPrefetchJob() {
	c.mu.Lock()
	c.prefetchPend--
	c.quiesce.Broadcast()
	c.mu.Unlock()
}

// prefetchAll pulls each region of one window through prefetch, the
// path a foreground miss takes, and retires its job.
func (c *Cache) prefetchAll(fds []int) {
	for _, fd := range fds {
		c.prefetch(fd)
		c.finishPrefetchJob()
	}
}

// prefetchWorker drains the prefetch queue until Close.
func (c *Cache) prefetchWorker() {
	defer c.prefetchWG.Done()
	for {
		select {
		case <-c.prefetchStop:
			return
		case fds := <-c.prefetchQ:
			c.prefetchAll(fds)
		}
	}
}

// Quiesce blocks until every queued or running prefetch has finished;
// tests and experiment sweeps call it to make asynchronous prefetch
// observable at a deterministic point.
func (c *Cache) Quiesce() {
	c.mu.Lock()
	for c.prefetchPend > 0 {
		c.quiesce.Wait()
	}
	c.mu.Unlock()
}

// Close stops the prefetch pipeline and waits for in-flight pulls to
// retire. Regions stay usable; Close only shuts down the background
// machinery.
func (c *Cache) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	if c.prefetchQ == nil {
		return
	}
	close(c.prefetchStop)
	c.prefetchWG.Wait()
	// The workers are gone; retire anything still sitting in the queue
	// so prefetchPend drains and Quiesce callers wake.
	for {
		select {
		case fds := <-c.prefetchQ:
			for range fds {
				c.finishPrefetchJob()
			}
			continue
		default:
		}
		c.mu.Lock()
		pend := c.prefetchPend
		c.mu.Unlock()
		if pend == 0 {
			return
		}
		// A dispatcher accounted a job but has not enqueued it yet;
		// yield until it lands in the queue or gives up.
		runtime.Gosched()
	}
}

// Prefetch pulls the region toward the application: a local promotion
// when the policy can make space, otherwise a remote clone so at least
// the disk is out of the next access's path. It is a hint — failures
// are not errors.
func (c *Cache) Prefetch(fd int) {
	c.prefetch(fd)
}

// prefetch does the pull. Runs without c.mu held.
func (c *Cache) prefetch(fd int) {
	c.mu.Lock()
	r := c.lookup(fd)
	if r == nil || r.local != nil || r.pend != nil {
		c.mu.Unlock()
		return
	}
	fits := r.length <= c.cfg.Capacity
	c.stats.Prefetches++
	c.mu.Unlock()
	if fits {
		c.fillRegion(fd, true, nil)
	}
	c.mu.Lock()
	stillRemoteless := false
	if c.lookup(fd) == r {
		stillRemoteless = r.local == nil && r.pend == nil && r.remoteFD < 0
	}
	c.mu.Unlock()
	if stillRemoteless {
		// Could not go local (policy refused); stage it in remote
		// memory instead, contents read from disk.
		// gen 0 is a placeholder: with nil data cloneRemote dates the
		// contents itself, at the claim that precedes its disk read.
		c.cloneRemote(fd, nil, 0, false)
	}
}

// registerLocationLocked indexes a region for prefetch lookup. Caller
// holds c.mu.
func (c *Cache) registerLocationLocked(r *cregion) {
	c.byLocation[prefKey{inode: r.backing.Inode(), off: r.backOff}] = r.fd
}

// unregisterLocationLocked removes a region from the prefetch index.
// Caller holds c.mu.
func (c *Cache) unregisterLocationLocked(r *cregion) {
	key := prefKey{inode: r.backing.Inode(), off: r.backOff}
	if c.byLocation[key] == r.fd {
		delete(c.byLocation, key)
	}
}
