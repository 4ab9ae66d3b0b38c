package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dodo/internal/bulk"
	"dodo/internal/transport"
	"dodo/internal/usocket"
	"dodo/internal/wire"
)

// corruptHost is a bare endpoint standing in for an imd whose every
// served page has one byte flipped after it was hashed. With zeroCrc
// the checksum field is zeroed as well — the corruption that used to
// switch the check off.
func corruptHost(t *testing.T, tr transport.Transport, zeroCrc bool) {
	t.Helper()
	serve := func(length uint64) (page []byte, crc uint32) {
		page = make([]byte, length)
		rand.New(rand.NewSource(int64(length))).Read(page)
		crc = wire.Checksum(page)
		page[len(page)/2] ^= 0x40
		if zeroCrc {
			crc = 0
		}
		return page, crc
	}
	// The handler may fire before NewEndpoint returns; gate it until ep
	// is assigned.
	ready := make(chan struct{})
	var ep *bulk.Endpoint
	ep = bulk.NewEndpoint(tr, fastEp(), func(from string, msg wire.Message) wire.Message {
		<-ready
		switch req := msg.(type) {
		case *wire.ReadReq:
			page, crc := serve(req.Length)
			if req.XferID == 0 {
				return &wire.DataResp{Status: wire.StatusOK, Count: req.Length, Crc: crc,
					Flags: wire.DataFlagInline, Payload: page}
			}
			go func() { _ = ep.SendBulkEager(from, req.XferID, page, int(req.ChunkSize), int(req.Window)) }()
			return &wire.DataResp{Status: wire.StatusOK, Count: req.Length, Crc: crc,
				TransferID: req.XferID, Flags: wire.DataFlagEager}
		}
		return nil
	})
	close(ready)
	t.Cleanup(func() { ep.Close() })
}

// TestCorruptReadFailsChecksum: a page mangled between the imd's hash
// and the client's buffer fails the read, is counted against the host
// that served it and drops that host — in both response shapes, and
// whether or not the mangling also zeroed the Crc field.
func TestCorruptReadFailsChecksum(t *testing.T) {
	for _, shape := range []string{"inline", "eager"} {
		for _, zeroCrc := range []bool{false, true} {
			name := shape + "/true-crc"
			if zeroCrc {
				name = shape + "/zeroed-crc"
			}
			t.Run(name, func(t *testing.T) {
				seg := usocket.NewSegment()
				nextID := uint64(0)
				mgrEp := bulk.NewEndpoint(host(t, seg, "cmd"), fastEp(), func(from string, msg wire.Message) wire.Message {
					if req, ok := msg.(*wire.AllocReq); ok {
						nextID++
						return &wire.AllocResp{Status: wire.StatusOK, Incarnation: 1, Region: wire.Region{
							HostAddr: seg.Addr("bad"), RegionID: nextID, Length: req.Length, Epoch: 1,
						}}
					}
					return nil
				})
				defer mgrEp.Close()
				corruptHost(t, host(t, seg, "bad"), zeroCrc)
				cli := New(host(t, seg, "client"), Config{
					ManagerAddr: seg.Addr("cmd"), ClientID: 1, RefractionPeriod: 100 * time.Millisecond,
					DisableRecovery: true, DisableHedging: true, Endpoint: fastEp(),
				})
				defer cli.Close()

				back := NewMemBacking(90, 64<<10)
				size := int64(512)
				if shape == "eager" {
					size = 16 << 10
				}
				fd := mopenRetry(t, cli, size, back, 0)
				if _, err := cli.Mread(fd, 0, make([]byte, size)); !errors.Is(err, ErrNoMem) {
					t.Fatalf("read of a corrupt page = %v, want ErrNoMem", err)
				}
				st := cli.Stats()
				if st.ChecksumFailures != 1 || !reflect.DeepEqual(st.CorruptHosts, []wire.HostCount{{Addr: seg.Addr("bad"), Count: 1}}) {
					t.Fatalf("ChecksumFailures = %d, CorruptHosts = %v, want 1 against bad", st.ChecksumFailures, st.CorruptHosts)
				}
				if st.DropEvents != 1 || cli.RegionValid(fd) {
					t.Fatalf("corrupt host not dropped: DropEvents = %d, fd %d valid = %v", st.DropEvents, fd, cli.RegionValid(fd))
				}
			})
		}
	}
}
