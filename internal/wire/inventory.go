package wire

// Manager crash-recovery sub-protocol. The central manager keeps its
// region directory purely in memory; after a crash it restarts under a
// new incarnation number and rebuilds the directory as soft state from
// the periphery. Every imd that notices the new incarnation (via the
// HostStatusAck on its next announce) pushes a full InventoryReport:
// its identity, epoch, pool availability and every region it holds,
// including the region key and owning client recorded at allocation
// time. The manager answers with an InventoryAck stamped with its
// current incarnation; a report carrying a dead incarnation is refused
// with StatusStale so a delayed pre-crash frame can never resurrect a
// stale directory row.

// InventoryRegion describes one region a reporting imd holds: the
// imd-local identifier and pool placement, the last applied write
// sequence, and the allocation-time key and owning client the manager
// needs to rebuild the full directory row.
type InventoryRegion struct {
	RegionID   uint64
	PoolOffset uint64
	Length     uint64
	WriteSeq   uint64
	Key        RegionKey
	// Client is the transport address of the owning client, as recorded
	// from the IMDAllocReq that created the region. Empty when the
	// region predates client tracking.
	Client string
}

func (r *InventoryRegion) fields(c *cursor) {
	c.u64(&r.RegionID, &r.PoolOffset, &r.Length, &r.WriteSeq)
	r.Key.fields(c)
	c.str(&r.Client)
}

var inventoryRegions = newList(math16max, (*InventoryRegion).fields)

// InventoryReport is an imd's full inventory re-report to a restarted
// manager (imd -> cmd). Incarnation is the manager incarnation the imd
// is reporting to, learned from a HostStatusAck; the manager fences
// reports whose incarnation does not match its own.
type InventoryReport struct {
	HostAddr    string
	Epoch       uint64
	Incarnation uint64
	AvailBytes  uint64
	LargestFree uint64
	Regions     []InventoryRegion
}

func (*InventoryReport) Kind() Type { return TInventoryReport }
func (m *InventoryReport) fields(c *cursor) {
	c.str(&m.HostAddr)
	c.u64(&m.Epoch, &m.Incarnation, &m.AvailBytes, &m.LargestFree)
	inventoryRegions.counted(c, &m.Regions)
}

// InventoryAck acknowledges an InventoryReport (cmd -> imd). StatusOK
// means the inventory was folded into the rebuilt directory;
// StatusStale means the report carried a dead incarnation and the imd
// should re-report against Incarnation.
type InventoryAck struct {
	Status      Status
	Incarnation uint64
}

func (*InventoryAck) Kind() Type { return TInventoryAck }
func (m *InventoryAck) fields(c *cursor) {
	c.status(&m.Status)
	c.u64(&m.Incarnation)
}
