package wire

// Graceful-reclaim handoff sub-protocol. When a workstation owner
// returns, the draining imd does not simply drop its cached pages: it
// offers its hottest regions to the manager (HandoffOffer), the
// manager picks target imds, pre-allocates destination regions and
// answers with grants (HandoffAccept), the draining imd pushes each
// page to its target over the bulk path (HandoffPage, answered with
// DataResp), and finally reports per-region outcomes (HandoffDone) so
// the manager can atomically repoint its region directory. All of this
// happens inside the drain grace window; whatever does not fit is
// aborted and falls back to client-side disk repopulation.

// HandoffRegion describes one resident region a draining imd offers to
// move, with its observed read count so the manager can honor
// hottest-first ordering.
type HandoffRegion struct {
	RegionID uint64
	Length   uint64
	Reads    uint64
}

func (r *HandoffRegion) fields(c *cursor) { c.u64(&r.RegionID, &r.Length, &r.Reads) }

var handoffRegions = newList(math16max, (*HandoffRegion).fields)

// HandoffGrant pairs a draining imd's region with the destination
// region the manager pre-allocated for it on a peer imd.
type HandoffGrant struct {
	// OldRegionID is the region id on the draining imd.
	OldRegionID uint64
	// Target is the pre-allocated destination region descriptor.
	Target Region
}

func (g *HandoffGrant) fields(c *cursor) {
	c.u64(&g.OldRegionID)
	g.Target.fields(c)
}

var handoffGrants = newList(math16max, (*HandoffGrant).fields)

// HandoffOffer is the draining imd's offer to the manager: its
// identity (address + epoch, so a stale offer from a previous
// incarnation is refused) and its resident regions, hottest first.
type HandoffOffer struct {
	HostAddr string
	Epoch    uint64
	Regions  []HandoffRegion
}

func (*HandoffOffer) Kind() Type { return THandoffOffer }
func (m *HandoffOffer) fields(c *cursor) {
	c.str(&m.HostAddr)
	c.u64(&m.Epoch)
	handoffRegions.counted(c, &m.Regions)
}

// HandoffAccept is the manager's answer: one grant per region it found
// a target for (regions it could not place are simply absent and die
// with the drain). StatusStale means the manager does not consider the
// sender a draining host — e.g. the offer outlived the grace window.
type HandoffAccept struct {
	Status Status
	Grants []HandoffGrant
}

func (*HandoffAccept) Kind() Type { return THandoffAccept }
func (m *HandoffAccept) fields(c *cursor) {
	c.status(&m.Status)
	handoffGrants.counted(c, &m.Grants)
}

// HandoffPage names one page the draining imd has pushed to the target
// imd: the destination region (already allocated by the manager), the
// target's expected epoch, the byte length, and the bulk TransferID the
// data travelled under. The target answers with DataResp, exactly like
// a client write.
type HandoffPage struct {
	RegionID   uint64
	Epoch      uint64
	Length     uint64
	TransferID uint64
	// Crc is the CRC32C of the pushed page bytes; the target imd
	// refuses the page when the received data does not match, so a
	// frame corrupted in flight can never become the authoritative
	// handoff copy.
	Crc uint32
}

func (*HandoffPage) Kind() Type { return THandoffPage }
func (m *HandoffPage) fields(c *cursor) {
	c.u64(&m.RegionID, &m.Epoch, &m.Length, &m.TransferID)
	c.u32(&m.Crc)
}

// HandoffDone reports one region's handoff outcome to the manager.
// StatusOK: the page landed on its target and the manager must repoint
// the region directory entry. Any other status: the move was aborted
// (grace window expired, target unreachable) and the manager should
// free the pre-allocated target region.
type HandoffDone struct {
	HostAddr    string
	OldRegionID uint64
	Status      Status
}

func (*HandoffDone) Kind() Type { return THandoffDone }
func (m *HandoffDone) fields(c *cursor) {
	c.str(&m.HostAddr)
	c.u64(&m.OldRegionID)
	c.status(&m.Status)
}
