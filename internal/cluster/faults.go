package cluster

import (
	"dodo/internal/faults"
	"dodo/internal/simnet"
)

// Fault-injection surface: the lifecycle transitions a faults.Scheduler
// needs, exported on Workstation and adapted from Cluster. Each is
// idempotent, so overlapping fault windows in a schedule degrade to
// no-ops instead of corrupting the deployment.

// IMDAddr returns the fabric address the workstation's imd occupies
// while recruited (stable across restarts).
func (w *Workstation) IMDAddr() string { return w.cluster.seg.Addr(w.imdName()) }

// imdName is the host name of the workstation's imd on the segment.
func (w *Workstation) imdName() string { return "imd-" + w.Name }

// Crash kills the workstation's imd without the polite drain — the
// §3.1 workstation-crash case. No-op while the host is not recruited.
func (w *Workstation) Crash() {
	w.mu.Lock()
	d := w.imd
	w.imd = nil
	w.mu.Unlock()
	if d != nil {
		d.Crash()
	}
}

// Recruit forks the imd as the rmd does on busy->idle (§4.1), with a
// bumped epoch. No-op while the host is already recruited.
func (w *Workstation) Recruit() { w.recruit() }

// Reclaim drains the imd as the rmd does on idle->busy (§4.1). No-op
// while the host is not recruited.
func (w *Workstation) Reclaim() { w.reclaim() }

// workstation looks a workstation up by name.
func (c *Cluster) workstation(name string) *Workstation {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workstations {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// FaultTarget adapts the cluster to the fault scheduler: host names in
// the schedule are workstation names; link degradation applies to the
// host's imd address on the fabric.
func (c *Cluster) FaultTarget() faults.Target { return faultTarget{c} }

type faultTarget struct{ c *Cluster }

func (t faultTarget) CrashIMD(host string) {
	if w := t.c.workstation(host); w != nil {
		w.Crash()
	}
}

func (t faultTarget) RestartIMD(host string) {
	if w := t.c.workstation(host); w != nil {
		w.Recruit()
	}
}

func (t faultTarget) BlackoutManager() { t.c.seg.Partition(t.c.ManagerAddr()) }

func (t faultTarget) RestoreManager() { t.c.seg.Heal(t.c.ManagerAddr()) }

func (t faultTarget) ReclaimHost(host string) {
	if w := t.c.workstation(host); w != nil {
		w.Reclaim()
	}
}

func (t faultTarget) RecruitHost(host string) {
	if w := t.c.workstation(host); w != nil {
		w.Recruit()
	}
}

func (t faultTarget) DegradeLinks(host string, f simnet.Faults) {
	if w := t.c.workstation(host); w != nil {
		t.c.seg.SetEndpointFaults(w.IMDAddr(), f)
	}
}

func (t faultTarget) RestoreLinks(host string) {
	if w := t.c.workstation(host); w != nil {
		t.c.seg.ClearEndpointFaults(w.IMDAddr())
	}
}

func (t faultTarget) CrashManager() { t.c.CrashManager() }

func (t faultTarget) RestartManager() { t.c.RestartManager() }
