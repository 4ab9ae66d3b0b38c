package main

import (
	"bytes"
	"fmt"
	"time"

	"dodo/internal/bulk"
	"dodo/internal/imd"
	"dodo/internal/pool"
	"dodo/internal/transport"
	"dodo/internal/usocket"
	"dodo/internal/wire"
)

// The probes cover the layers that have no seam in the stack: direct
// calls of exported functions with fixed iteration counts, run once per
// traced run. Each stays well under a second.

// probeSink keeps the compiler from discarding a probed call.
var probeSink int

// probeDiv divides every probe's iteration count; the harness tests
// raise it so that they only check that each probe works.
var probeDiv = 1

// perCall times iters calls of f and returns the mean in nanoseconds.
func perCall(iters int, f func()) float64 {
	iters = max(1, iters/probeDiv)
	start := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	return float64(time.Since(start)) / float64(iters)
}

// runProbes returns the probe metrics.
func runProbes() (metricSet, error) {
	m := metricSet{}
	probeWire(m)
	if err := probePool(m); err != nil {
		return nil, fmt.Errorf("pool probe: %w", err)
	}
	for _, p := range []func(metricSet) error{probeUsocket, probeUDP, probeBulk, probeIMD} {
		if err := p(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func probeWire(m metricSet) {
	req := &wire.ReadReq{RegionID: 7, Epoch: 1, Length: 8 << 10, Caps: wire.LocalCaps, XferID: 9, ChunkSize: 1444, Window: 64}
	m.set("wire.encode_readreq_ns", "ns", perCall(200000, func() {
		f, _ := wire.Encode(1, req) // a ReadReq always encodes
		probeSink += len(f)
	}))
	page := make([]byte, 8<<10)
	fillBytes(page, 1)
	resp, _ := wire.Encode(1, &wire.DataResp{Count: 8 << 10, Flags: wire.DataFlagInline, Payload: page}) // fits MaxPayload
	m.set("wire.decode_dataresp_8k_ns", "ns", perCall(100000, func() {
		_, msg, _ := wire.Decode(resp) // the frame was just encoded
		probeSink += int(msg.Kind())
	}))
	frame := make([]byte, usocket.MTU)
	wire.PutBulkDataPrefix(frame, 9, 3, len(frame)-wire.BulkDataPrefixSize)
	m.set("wire.decode_bulkdata_ns", "ns", perCall(2000000, func() {
		_, seq, payload, _ := wire.DecodeBulkData(frame) // the frame was just built
		probeSink += int(seq) + len(payload)
	}))
	big := make([]byte, 128<<10)
	fillBytes(big, 2)
	m.set("wire.checksum_128k_ns", "ns", perCall(20000, func() { probeSink += int(wire.Checksum(big)) }))
}

func probePool(m metricSet) error {
	p := pool.NewFirstFitPool(16 << 20)
	var perr error
	m.set("pool.create_delete_ns", "ns", perCall(200000, func() {
		if _, err := p.Create(1, 8<<10); err != nil {
			perr = err
		}
		if err := p.Delete(1); err != nil {
			perr = err
		}
	}))
	if _, err := p.Create(2, 8<<10); err != nil {
		return err
	}
	page := make([]byte, 8<<10)
	m.set("pool.write_8k_ns", "ns", perCall(500000, func() {
		n, err := p.Write(2, 0, page)
		if err != nil {
			perr = err
		}
		probeSink += n
	}))
	m.set("pool.read_8k_ns", "ns", perCall(2000000, func() {
		b, err := p.Read(2, 0, 8<<10)
		if err != nil {
			perr = err
		}
		probeSink += len(b)
	}))
	return perr
}

// openPair opens two endpoints of one network.
func openPair(node nodeFactory) (a, b transport.Transport, err error) {
	if a, err = node(0); err != nil {
		return nil, nil, err
	}
	if b, err = node(1); err != nil {
		a.Close()
		return nil, nil, err
	}
	return a, b, nil
}

func probeUsocket(m metricSet) error {
	a, b, err := openPair(unetFactory())
	if err != nil {
		return fmt.Errorf("usocket probe: %w", err)
	}
	defer a.Close()
	defer b.Close()
	ns, err := sendRecv(a, b, usocket.MTU, 200000)
	m.set("usocket.sendrecv_frame_ns", "ns", ns)
	return err
}

func probeUDP(m metricSet) error {
	a, b, err := openPair(udpFactory())
	if err != nil {
		return fmt.Errorf("udp probe: %w", err)
	}
	defer a.Close()
	defer b.Close()
	ns, err := sendRecv(a, b, 1400, 50000)
	if err != nil {
		return err
	}
	m.set("transport.udp_sendrecv_1400_ns", "ns", ns)
	ns, err = sendRecv(a, b, 32<<10, 20000)
	m.set("transport.udp_sendrecv_32k_ns", "ns", ns)
	return err
}

// sendRecv times one datagram of size bytes sent from a and received on
// b, on one goroutine.
func sendRecv(a, b transport.Transport, size, iters int) (float64, error) {
	frame := make([]byte, size)
	var perr error
	ns := perCall(iters, func() {
		if err := a.Send(b.LocalAddr(), frame); err != nil {
			perr = err
			return
		}
		got, _, err := b.Recv(time.Second)
		if err != nil || len(got) != size {
			perr = fmt.Errorf("send/recv of %d bytes on %T: got %d: %v", size, a, len(got), err)
		}
	})
	return ns, perr
}

// echo answers a KeepAlive, the smallest request/response pair.
func echo(_ string, msg wire.Message) wire.Message {
	if ka, ok := msg.(*wire.KeepAlive); ok {
		return &wire.KeepAliveAck{ClientID: ka.ClientID}
	}
	return nil
}

func probeBulk(m metricSet) error {
	for _, c := range []struct {
		name      string
		node      nodeFactory
		xfer      int
		rttIters  int
		xferIters int
	}{
		{"unet", unetFactory(), 128 << 10, 20000, 1000},
		{"udp", udpFactory(), 32 << 10, 10000, 3000},
	} {
		ta, tb, err := openPair(c.node)
		if err != nil {
			return fmt.Errorf("bulk probe: %w", err)
		}
		err = probeBulkPair(m, c.name, bulk.NewEndpoint(ta, bulk.Config{}, nil), bulk.NewEndpoint(tb, bulk.Config{}, echo), c.xfer, c.rttIters, c.xferIters)
		if err != nil {
			return fmt.Errorf("bulk probe over %s: %w", c.name, err)
		}
	}
	return nil
}

func probeBulkPair(m metricSet, name string, a, b *bulk.Endpoint, xfer, rttIters, xferIters int) error {
	defer a.Close()
	defer b.Close()
	var perr error
	ns := perCall(rttIters, func() {
		if _, err := a.Call(b.LocalAddr(), &wire.KeepAlive{ClientID: 1}); err != nil {
			perr = err
		}
	})
	m.set("bulk.call_rtt_"+name+"_us", "us", ns/1e3)
	data := make([]byte, xfer)
	fillBytes(data, 3)
	dst := make([]byte, xfer)
	ns = perCall(xferIters, func() {
		id := a.NextTransferID()
		done := make(chan error, 1)
		go func() {
			_, err := b.RecvBulkInto(dst, a.LocalAddr(), id, 5*time.Second)
			done <- err
		}()
		if err := a.SendBulk(b.LocalAddr(), id, data); err != nil {
			perr = err
		}
		if err := <-done; err != nil {
			perr = err
		}
	})
	if perr == nil && !bytes.Equal(dst, data) {
		perr = fmt.Errorf("%d-byte transfer corrupted", xfer)
	}
	m.set(fmt.Sprintf("bulk.xfer_%dk_%s_us", xfer>>10, name), "us", ns/1e3)
	return perr
}

// probeIMD times an eager 8 KB read served by one imd over unet, as
// core.remoteReadInto issues it, with a bare endpoint standing in for
// the manager and another for the client.
func probeIMD(m metricSet) error {
	node := unetFactory()
	var trs [3]transport.Transport
	for i := range trs {
		t, err := node(i)
		if err != nil {
			for _, open := range trs[:i] {
				open.Close()
			}
			return fmt.Errorf("imd probe: %w", err)
		}
		trs[i] = t
	}
	mgr := bulk.NewEndpoint(trs[0], bulk.Config{}, func(_ string, msg wire.Message) wire.Message {
		if _, ok := msg.(*wire.HostStatus); ok {
			return &wire.HostStatusAck{Incarnation: 1}
		}
		return nil
	})
	defer mgr.Close()
	d := imd.New(trs[1], imd.Config{ManagerAddr: mgr.LocalAddr(), PoolSize: 1 << 20, Epoch: 1})
	defer d.Close()
	cli := bulk.NewEndpoint(trs[2], bulk.Config{}, nil)
	defer cli.Close()

	const size = 8 << 10
	resp, err := mgr.Call(d.Addr(), &wire.IMDAllocReq{RegionID: 1, Length: size, Client: cli.LocalAddr()})
	if ar, ok := resp.(*wire.IMDAllocResp); err != nil || !ok || ar.Status != wire.StatusOK {
		return fmt.Errorf("imd probe: alloc: %v %v", resp, err)
	}
	page := make([]byte, size)
	fillBytes(page, 4)
	id := cli.NextTransferID()
	sent := make(chan error, 1)
	go func() { sent <- cli.SendBulk(d.Addr(), id, page) }()
	resp, err = cli.Call(d.Addr(), &wire.WriteReq{RegionID: 1, Epoch: 1, Length: size, TransferID: id, WriteSeq: 1, Crc: wire.Checksum(page)})
	if serr := <-sent; serr != nil {
		return fmt.Errorf("imd probe: write push: %w", serr)
	}
	if dr, ok := resp.(*wire.DataResp); err != nil || !ok || dr.Status != wire.StatusOK {
		return fmt.Errorf("imd probe: write: %v %v", resp, err)
	}

	got := make([]byte, size)
	var perr error
	ns := perCall(10000, func() {
		id := cli.NextTransferID()
		chunk := cli.ChunkSize()
		window, err := cli.ExpectBulkInto(got, d.Addr(), id, chunk)
		if err != nil {
			perr = err
			return
		}
		resp, err := cli.Call(d.Addr(), &wire.ReadReq{
			RegionID: 1, Epoch: 1, Length: size,
			Caps: wire.LocalCaps, XferID: id, ChunkSize: uint32(chunk), Window: uint32(window),
		})
		dr, ok := resp.(*wire.DataResp)
		if err != nil || !ok || dr.Flags&wire.DataFlagEager == 0 {
			cli.CancelExpect(d.Addr(), id)
			perr = fmt.Errorf("read: %v %v", resp, err)
			return
		}
		if _, err := cli.RecvBulkInto(got, d.Addr(), id, 5*time.Second); err != nil {
			perr = err
		}
	})
	if perr == nil && !bytes.Equal(got, page) {
		perr = fmt.Errorf("read returned other bytes than written")
	}
	if perr != nil {
		return fmt.Errorf("imd probe: %w", perr)
	}
	m.set("imd.read_8k_unet_us", "us", ns/1e3)
	return nil
}
