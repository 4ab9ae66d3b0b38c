package wire

import "encoding/binary"

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

const handoffRegionSize = 24

// HandoffGrant pairs a draining imd's region with the destination
// region the manager pre-allocated for it on a peer imd.
type HandoffGrant struct {
	// OldRegionID is the region id on the draining imd.
	OldRegionID uint64
	// Target is the pre-allocated destination region descriptor.
	Target Region
}

// HandoffOffer is the draining imd's offer to the manager: its
// identity (address + epoch, so a stale offer from a previous
// incarnation is refused) and its resident regions, hottest first.
type HandoffOffer struct {
	HostAddr string
	Epoch    uint64
	Regions  []HandoffRegion
}

func (*HandoffOffer) Kind() Type { return THandoffOffer }
func (m *HandoffOffer) payloadSize() int {
	return 2 + len(m.HostAddr) + 8 + 2 + handoffRegionSize*len(m.Regions)
}
func (m *HandoffOffer) encode(b []byte) error {
	if len(m.Regions) > math16max {
		return ErrFieldBounds
	}
	n, err := putString(b, m.HostAddr)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint64(b[n:], m.Epoch)
	binary.BigEndian.PutUint16(b[n+8:], uint16(len(m.Regions)))
	at := n + 10
	for _, r := range m.Regions {
		binary.BigEndian.PutUint64(b[at:], r.RegionID)
		binary.BigEndian.PutUint64(b[at+8:], r.Length)
		binary.BigEndian.PutUint64(b[at+16:], r.Reads)
		at += handoffRegionSize
	}
	return nil
}
func (m *HandoffOffer) decode(b []byte) error {
	addr, n, err := getString(b)
	if err != nil {
		return err
	}
	if len(b) < n+10 {
		return ErrTruncated
	}
	m.HostAddr = addr
	m.Epoch = binary.BigEndian.Uint64(b[n:])
	count := int(binary.BigEndian.Uint16(b[n+8:]))
	at := n + 10
	if len(b) < at+handoffRegionSize*count {
		return ErrTruncated
	}
	m.Regions = make([]HandoffRegion, 0, count)
	for i := 0; i < count; i++ {
		m.Regions = append(m.Regions, HandoffRegion{
			RegionID: binary.BigEndian.Uint64(b[at:]),
			Length:   binary.BigEndian.Uint64(b[at+8:]),
			Reads:    binary.BigEndian.Uint64(b[at+16:]),
		})
		at += handoffRegionSize
	}
	return nil
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
func (m *HandoffAccept) payloadSize() int {
	n := 1 + 2
	for _, g := range m.Grants {
		n += 8 + g.Target.encodedSize()
	}
	return n
}
func (m *HandoffAccept) encode(b []byte) error {
	if len(m.Grants) > math16max {
		return ErrFieldBounds
	}
	b[0] = uint8(m.Status)
	binary.BigEndian.PutUint16(b[1:], uint16(len(m.Grants)))
	at := 3
	for _, g := range m.Grants {
		binary.BigEndian.PutUint64(b[at:], g.OldRegionID)
		at += 8
		n, err := putRegion(b[at:], g.Target)
		if err != nil {
			return err
		}
		at += n
	}
	return nil
}
func (m *HandoffAccept) decode(b []byte) error {
	if len(b) < 3 {
		return ErrTruncated
	}
	m.Status = Status(b[0])
	count := int(binary.BigEndian.Uint16(b[1:]))
	at := 3
	m.Grants = make([]HandoffGrant, 0, count)
	for i := 0; i < count; i++ {
		if len(b) < at+8 {
			return ErrTruncated
		}
		old := binary.BigEndian.Uint64(b[at:])
		at += 8
		r, n, err := getRegion(b[at:])
		if err != nil {
			return err
		}
		at += n
		m.Grants = append(m.Grants, HandoffGrant{OldRegionID: old, Target: r})
	}
	return nil
}

// HandoffPage announces one page push from the draining imd to the
// target imd: the destination region (already allocated by the
// manager), the target's expected epoch, the byte length, and the bulk
// TransferID the data travels under. The target answers with DataResp,
// exactly like a client write.
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

func (*HandoffPage) Kind() Type       { return THandoffPage }
func (*HandoffPage) payloadSize() int { return 36 }
func (m *HandoffPage) encode(b []byte) error {
	binary.BigEndian.PutUint64(b[0:], m.RegionID)
	binary.BigEndian.PutUint64(b[8:], m.Epoch)
	binary.BigEndian.PutUint64(b[16:], m.Length)
	binary.BigEndian.PutUint64(b[24:], m.TransferID)
	binary.BigEndian.PutUint32(b[32:], m.Crc)
	return nil
}
func (m *HandoffPage) decode(b []byte) error {
	if len(b) < 36 {
		return ErrTruncated
	}
	m.RegionID = binary.BigEndian.Uint64(b[0:])
	m.Epoch = binary.BigEndian.Uint64(b[8:])
	m.Length = binary.BigEndian.Uint64(b[16:])
	m.TransferID = binary.BigEndian.Uint64(b[24:])
	m.Crc = binary.BigEndian.Uint32(b[32:])
	return nil
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

func (*HandoffDone) Kind() Type         { return THandoffDone }
func (m *HandoffDone) payloadSize() int { return 2 + len(m.HostAddr) + 9 }
func (m *HandoffDone) encode(b []byte) error {
	n, err := putString(b, m.HostAddr)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint64(b[n:], m.OldRegionID)
	b[n+8] = uint8(m.Status)
	return nil
}
func (m *HandoffDone) decode(b []byte) error {
	addr, n, err := getString(b)
	if err != nil {
		return err
	}
	if len(b) < n+9 {
		return ErrTruncated
	}
	m.HostAddr = addr
	m.OldRegionID = binary.BigEndian.Uint64(b[n:])
	m.Status = Status(b[n+8])
	return nil
}
