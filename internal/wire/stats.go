package wire

// Cluster introspection messages: dodo-ctl (and any monitoring agent)
// asks the central manager for a snapshot of the idle-workstation
// directory and its counters. These extend the paper's protocol — the
// original Dodo had no remote introspection — but follow the same
// framing and idempotency rules as every other request.

// ClusterStatsReq asks the manager for a state snapshot.
type ClusterStatsReq struct{}

// Kind returns the wire type tag.
func (*ClusterStatsReq) Kind() Type     { return TClusterStatsReq }
func (*ClusterStatsReq) fields(*cursor) {}

// HostInfo is one IWD row in a stats snapshot.
type HostInfo struct {
	Addr        string
	Epoch       uint64
	AvailBytes  uint64
	LargestFree uint64
}

func (h *HostInfo) fields(c *cursor) {
	c.str(&h.Addr)
	c.u64(&h.Epoch, &h.AvailBytes, &h.LargestFree)
}

var hostInfos = newList(math16max, (*HostInfo).fields)

// HostCount pairs a host address with a per-host counter value, used
// for the checksum-failure breakdown in keep-alive acks and stats
// snapshots.
type HostCount struct {
	Addr  string
	Count uint64
}

func (h *HostCount) fields(c *cursor) {
	c.str(&h.Addr)
	c.u64(&h.Count)
}

var hostCounts = newList(math16max, (*HostCount).fields)

// ClusterStatsResp is the manager's snapshot.
type ClusterStatsResp struct {
	Status  Status
	Hosts   []HostInfo
	Regions uint64
	Clients uint64
	// Counters since manager start.
	Allocs, AllocFailures, Frees, StaleDrops, OrphanReclaims uint64
	// Client recovery counters, aggregated from keep-alive acks
	// (including clients since reclaimed).
	ClientDrops, ClientRevalidations, ClientReopens uint64
	// Graceful-reclaim handoff counters (manager side).
	HandoffOffers, HandoffPagesMoved, HandoffAborts uint64
	// Hedge/retry/adopt counters, aggregated from keep-alive acks.
	ClientHandoffAdopts, ClientHedgedReads, ClientHedgeWins uint64
	ClientHedgeWasted, ClientRetryExhausted                 uint64
	// Incarnation is the manager's incarnation number; crash-recovery
	// counters cover the current incarnation only (the directory they
	// describe is soft state rebuilt from inventory re-reports).
	Incarnation      uint64
	InventoryReports uint64
	RebuiltRegions   uint64
	FencedRequests   uint64
	// Checksum-failure totals aggregated from keep-alive acks, with a
	// per-host breakdown by the host that served the corrupt frame.
	ClientChecksumFailures uint64
	CorruptHosts           []HostCount
}

// Kind returns the wire type tag.
func (*ClusterStatsResp) Kind() Type { return TClusterStatsResp }
func (m *ClusterStatsResp) fields(c *cursor) {
	c.status(&m.Status)
	c.u64(&m.Regions, &m.Clients,
		&m.Allocs, &m.AllocFailures, &m.Frees, &m.StaleDrops, &m.OrphanReclaims,
		&m.ClientDrops, &m.ClientRevalidations, &m.ClientReopens,
		&m.HandoffOffers, &m.HandoffPagesMoved, &m.HandoffAborts,
		&m.ClientHandoffAdopts, &m.ClientHedgedReads, &m.ClientHedgeWins,
		&m.ClientHedgeWasted, &m.ClientRetryExhausted,
		&m.Incarnation, &m.InventoryReports, &m.RebuiltRegions, &m.FencedRequests,
		&m.ClientChecksumFailures)
	hostInfos.counted(c, &m.Hosts)
	hostCounts.counted(c, &m.CorruptHosts)
}
