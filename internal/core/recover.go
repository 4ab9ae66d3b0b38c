package core

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"dodo/internal/retry"
	"dodo/internal/sim"
	"dodo/internal/wire"
)

// Background region recovery: the paper's client drops every descriptor
// on a failed host and never looks back (§3.1) — a workload that
// outlives a crash runs disk-only forever. The recovery loop closes
// that gap with a drop → backoff → revalidate → re-open state machine:
//
//	dropHost kicks the loop, and so does a revalidate that drops a
//	descriptor and cannot re-open it at once; after an exponential
//	backoff (initial Config.RecoveryBackoff, doubling per failed
//	pass, capped at the refraction period so recovery probes are
//	never more aggressive than fresh allocations), each invalid
//	descriptor is revalidated with checkAlloc (§4.3) in revalidate.
//	If the manager still maps the key, the region is repopulated in
//	place; if the mapping is gone, it is re-allocated under its
//	original key and then repopulated. Either way the descriptor
//	flips back to valid only after the full region contents — read
//	from the backing file, which Mwrite's write-through contract
//	keeps authoritative — have been pushed to the hosting imd
//	end-to-end.
//
// CheckAlloc is the same revalidate step run on demand, so the app's
// probe and the loop cannot disagree about what a manager answer means.
// A descriptor turns valid only by adopting a handoff copy behind
// adoptHandoff's gate, or in install after a push of the backing bytes;
// it is never marked valid on directory state alone: the
// manager's view can outlive reachability (its RD entry survives a
// partition between client and host), and even a reachable copy may be
// stale (writes issued while the descriptor was invalid reached only
// the backing file). The repopulating push settles both concerns at
// once. Callers that write to the backing file directly while a
// descriptor is invalid should do so before their next Mwrite, as the
// region cache does under its lock; a direct write racing the
// repopulation push may reach only the disk copy.
//
// The loop rides the injected clock, so fault-sweep harnesses replay it
// deterministically, and it never holds c.mu across a network call.

// recoveryLoop waits for drop events and runs backoff-paced recovery
// passes until every descriptor is valid again.
func (c *Client) recoveryLoop() {
	defer c.recoverWG.Done()
	rng := rand.New(rand.NewSource(c.cfg.Seed))
	for {
		select {
		case <-c.recoverStop:
			return
		case <-c.recoverKick:
		}
		// One retry budget per drop event: no deadline (recovery never
		// gives up while descriptors are invalid), capped-exponential
		// pacing so recovery probes are never more aggressive than fresh
		// allocations, and a little seeded jitter so the clients dropped
		// by one reclaim don't probe the manager in lockstep.
		budget := retry.New(retry.Policy{
			Base:   c.cfg.RecoveryBackoff,
			Cap:    c.cfg.RefractionPeriod,
			Factor: 2,
			Jitter: 0.1,
		}, c.cfg.Clock, rng)
		for {
			wait, _ := budget.Next()
			if !sim.SleepInterruptible(c.cfg.Clock, wait, c.recoverStop) {
				return
			}
			if c.recoverPass() == 0 {
				break // fully recovered; sleep until the next drop
			}
		}
	}
}

// kickRecovery wakes the recovery loop unless recovery is disabled. It
// is called without c.mu; the channel is buffered, so a pending kick
// coalesces with this one.
func (c *Client) kickRecovery() {
	if c.cfg.DisableRecovery {
		return
	}
	select {
	case c.recoverKick <- struct{}{}:
	default:
	}
}

// recoverPass probes every unsettled descriptor once and reports how
// many remain unsettled. Descriptors are visited in fd order so a given
// cluster state yields a reproducible probe sequence.
func (c *Client) recoverPass() int {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0
	}
	var fds []int
	for fd, r := range c.regions {
		if !r.valid || r.needsReval {
			fds = append(fds, fd)
		}
	}
	c.mu.Unlock()
	sort.Ints(fds)
	remaining := 0
	for _, fd := range fds {
		if !c.recoverRegion(fd) {
			remaining++
		}
	}
	return remaining
}

// recoverRegion revalidates fd if it still needs work and reports
// whether it is settled afterwards.
func (c *Client) recoverRegion(fd int) bool {
	if c.settled(fd) {
		return true
	}
	_ = c.revalidate(fd) // no verdict leaves fd unsettled for the next pass
	return c.settled(fd)
}

// settled reports whether fd needs no recovery: it is valid with a
// confirmed directory row, or it is closed.
func (c *Client) settled(fd int) bool {
	r, err := c.lookup(fd)
	return err != nil || (r.valid && !r.needsReval)
}

// revalidate runs checkAlloc (§4.3) for fd and settles the descriptor
// on the manager's answer; it is one step of the recovery loop, and
// CheckAlloc is this step run on demand. It returns an error only when
// the manager gave no verdict, leaving the descriptor as it was. On a
// verdict:
//
//   - a valid descriptor whose row survives is refreshed in place: its
//     hosting imd never stopped serving, so nothing is pushed;
//   - a row that is gone is re-opened under the original key, after
//     invalidating the descriptor if it was still valid;
//   - a fresh handoff copy is adopted if adoptHandoff's gate allows;
//   - any other descriptor is repopulated from the backing file, then
//     installed.
//
// A push that fails leaves the descriptor invalid for the next pass.
func (c *Client) revalidate(fd int) error {
	r, err := c.lookup(fd)
	if err != nil {
		return err
	}
	c.revalidations.Add(1)
	resp, err := c.ep.Call(c.cfg.ManagerAddr, &wire.CheckAllocReq{Key: r.key})
	if err != nil {
		return fmt.Errorf("%w: manager unreachable: %v", ErrNoMem, err)
	}
	ca, ok := resp.(*wire.CheckAllocResp)
	if !ok {
		return ErrNoMem
	}
	if !c.noteIncarnation(ca.Incarnation) {
		// A delayed answer from a dead manager incarnation proves
		// nothing about the rebuilt directory; treat it as lost.
		return fmt.Errorf("%w: stale manager incarnation", ErrNoMem)
	}
	if ca.Status == wire.StatusBusy {
		// Either the hosting imd is draining and the manager is holding
		// the mapping open while a handoff runs, or a restarted manager
		// is still rebuilding its directory from inventory re-reports.
		// The entry will reappear, repoint (Fresh) or go stale once the
		// hold ends.
		return fmt.Errorf("%w: manager busy", ErrNoMem)
	}
	c.mu.Lock()
	live, present := c.regions[fd]
	dropped := false
	switch {
	case !present:
		c.mu.Unlock()
		return nil // closed underneath us
	case live.valid && ca.Status == wire.StatusOK:
		live.remote = ca.Region
		live.needsReval = false
		c.mu.Unlock()
		return nil
	case live.valid:
		// The row is gone: the host was reclaimed, or its inventory
		// never reached a restarted manager (it died during the outage,
		// or its report was fenced).
		live.valid = false
		live.gen++
		live.needsReval = false
		dropped = true
	}
	c.mu.Unlock()
	switch {
	case ca.Status != wire.StatusOK:
		c.reopenRegion(fd)
		if dropped && !c.settled(fd) {
			// This step dropped the descriptor, so no dropHost kicked
			// the loop for it: without a kick it stays invalid until
			// some other drop wakes the loop.
			c.kickRecovery()
		}
	case ca.Fresh && c.adoptHandoff(fd, r.key, ca.Region):
		// A graceful-reclaim handoff copy holding every byte this
		// client ever had confirmed.
		c.logf("dodo: adopted handoff copy for fd %d on %s region %d", fd, ca.Region.HostAddr, ca.Region.RegionID)
	case c.repopulate(r, ca.Region):
		// The manager still maps the key, but directory state alone
		// proves neither reachability nor freshness: repopulate has
		// carried the backing bytes end-to-end before the install.
		c.install(fd, r.key, ca.Region)
	}
	return nil
}

// adoptHandoff flips fd onto a handoff-fresh region without disk
// repopulation. Safe only when the handoff copy provably holds every
// byte the backing file does:
//
//   - the write-seq gate is settled (writeSeq == confirmedSeq), so every
//     announced write was confirmed before the drain snapshot — an
//     outstanding unconfirmed announcement means the disk may be ahead
//     of the copy; and
//   - the descriptor is not disk-dirty: the app was never told this
//     region cannot take writes, so it had no sanctioned occasion to
//     write the backing file directly. Disk-only writes never touch the
//     sequence counters, which is why the gate alone cannot rule them
//     out — a drop triggered by a read refusal bumps no sequence, yet
//     the app may have gone disk-only the moment an Mwrite failed.
//
// When either check fails the caller repopulates from the backing file,
// which settles both concerns at once.
func (c *Client) adoptHandoff(fd int, key wire.RegionKey, reg wire.Region) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	live, present := c.regions[fd]
	if !present || live.valid {
		return true // closed or revived underneath us; nothing to adopt
	}
	if c.writeSeq[key] != c.confirmedSeq[key] || live.diskDirty {
		return false
	}
	live.remote = reg
	live.valid = true
	c.handoffAdopts.Add(1)
	return true
}

// repopulate pushes the descriptor's backing-file bytes to reg. The
// backing is authoritative: every successful Mwrite wrote through to
// it, and writes attempted while the descriptor was invalid could only
// have landed there.
func (c *Client) repopulate(r regionState, reg wire.Region) bool {
	// A short read past EOF leaves the tail zeroed, matching bytes
	// never written through.
	data := make([]byte, r.length)
	if _, err := r.backing.ReadAt(data, r.backOff); err != nil && err != io.EOF {
		return false
	}
	fresh := r
	fresh.remote = reg
	if err := c.remoteWrite(fresh, 0, data); err != nil {
		c.logf("dodo: repopulating fd %d on %s region %d: %v", r.fd, reg.HostAddr, reg.RegionID, err)
		return false
	}
	c.logf("dodo: repopulated fd %d on %s region %d (%d bytes, first byte %02x)",
		r.fd, reg.HostAddr, reg.RegionID, len(data), data[0])
	return true
}

// reopenRegion allocates a fresh region under the descriptor's original
// key and pushes the backing bytes to it before installing it.
func (c *Client) reopenRegion(fd int) {
	r, err := c.lookup(fd)
	if err != nil || r.valid {
		return // closed, or an alias's recovery or a caller revived it first
	}
	resp, err := c.ep.Call(c.cfg.ManagerAddr, &wire.AllocReq{Key: r.key, Length: uint64(r.length)})
	if err != nil {
		return
	}
	ar, ok := resp.(*wire.AllocResp)
	if !ok || ar.Status != wire.StatusOK || !c.noteIncarnation(ar.Incarnation) {
		return // refused, or a dead incarnation's answer; retry next pass
	}
	if !c.repopulate(r, ar.Region) {
		// The push failed (the new host may itself have died); undo the
		// allocation so a later checkAlloc cannot resurrect a region
		// holding garbage.
		c.freeKey(r.key)
		return
	}
	if c.install(fd, r.key, ar.Region) {
		c.reopens.Add(1)
		c.logf("dodo: re-opened fd %d -> %s region %d after drop", fd, ar.Region.HostAddr, ar.Region.RegionID)
	}
}

// install puts reg on fd after a push carried the backing bytes to it,
// and reports whether it did; it is the one place a push turns a
// descriptor valid. A descriptor revived meanwhile by another path
// (alias recovery, a concurrent CheckAlloc) keeps what that path
// installed. If the descriptor was Mclosed while the push ran, the
// mapping may have no owner left: Mclose's own FreeReq frees it when it
// lands after the push's AllocReq, but when that free is lost (manager
// unreachable from Mclose) the allocation would sit on the manager
// until the client dies. Releasing it here whenever no alias remains
// makes the invariant local: every path out of a push either installs
// the region on a live descriptor or frees it.
func (c *Client) install(fd int, key wire.RegionKey, reg wire.Region) bool {
	c.mu.Lock()
	live, present := c.regions[fd]
	if !present {
		// With other aliases of the key still open, the mapping is
		// owned and their last Mclose frees it; with none, nobody will.
		orphaned := c.aliases[key] == 0
		c.mu.Unlock()
		if orphaned {
			c.freeKey(key)
		}
		return false
	}
	installed := !live.valid
	if installed {
		live.remote = reg
		live.valid = true
		// The push carried the backing bytes end-to-end, so any
		// disk-only writes made while invalid are now remote too.
		live.diskDirty = false
	}
	c.mu.Unlock()
	return installed
}

// freeKey best-effort releases a region allocation the recovery pass
// could not populate.
func (c *Client) freeKey(key wire.RegionKey) {
	if _, err := c.ep.Call(c.cfg.ManagerAddr, &wire.FreeReq{Key: key}); err != nil {
		c.logf("dodo: releasing unrecovered region %v: %v", key, err)
	}
}
