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

// Counter is one named running total. Totals travel as a list of
// names and values, so a new one is a row where it is counted and
// never a wire change: the codec, the manager's sums and dodo-ctl
// pass along whatever names arrive.
type Counter struct {
	Name  string
	Value uint64
}

func (k *Counter) fields(c *cursor) {
	c.str(&k.Name)
	c.u64(&k.Value)
}

// maxAckCounters bounds the counters one keep-alive ack may carry, and
// so the names one client can add to the manager's table.
const maxAckCounters = 64

var (
	ackCounters   = newList(maxAckCounters, (*Counter).fields)
	statsCounters = newList(math16max, (*Counter).fields)
)

// ClusterStatsResp is the manager's snapshot.
type ClusterStatsResp struct {
	Status  Status
	Regions uint64
	Clients uint64
	// Incarnation is the manager's incarnation number; its counters
	// cover the current incarnation only (the directory they describe
	// is soft state rebuilt from inventory re-reports).
	Incarnation uint64
	Hosts       []HostInfo
	// Counters are the manager's totals, by name, including the sums
	// of its clients' keep-alive reports.
	Counters []Counter
	// CorruptHosts breaks the clients' checksum failures down by the
	// host that served the corrupt frame.
	CorruptHosts []HostCount
}

// Kind returns the wire type tag.
func (*ClusterStatsResp) Kind() Type { return TClusterStatsResp }
func (m *ClusterStatsResp) fields(c *cursor) {
	c.status(&m.Status)
	c.u64(&m.Regions, &m.Clients, &m.Incarnation)
	hostInfos.counted(c, &m.Hosts)
	statsCounters.counted(c, &m.Counters)
	hostCounts.counted(c, &m.CorruptHosts)
}
