package core

import (
	"fmt"
	"sort"

	"dodo/internal/bulk"
	"dodo/internal/wire"
)

// BatchRead is one item of an MreadBatch call: read up to len(Buf)
// bytes at Offset within region Fd into Buf.
type BatchRead struct {
	Fd     int
	Offset int64
	Buf    []byte
}

// BatchResult is the per-item outcome of an MreadBatch call, with the
// same semantics as the matching Mread's return values.
type BatchResult struct {
	N   int
	Err error
}

// batchItem is one validated, batch-eligible MreadBatch entry.
type batchItem struct {
	idx  int // index into the caller's reqs/results
	fd   int
	off  int64
	want int64
	buf  []byte
	r    regionState
}

// MreadBatch performs several reads at once. Items whose regions live
// on the same imd ride a single request/response exchange feeding one
// bulk stream, instead of one read exchange per region; a host's lone
// item goes through Mread. The region cache's
// prefetch pipeline is the intended caller: a PrefetchWindow of
// same-file regions usually lands on few hosts, so the window's worth
// of round trips collapses into one or two.
//
// The returned slice has one entry per request, in order.
func (c *Client) MreadBatch(reqs []BatchRead) []BatchResult {
	results := make([]BatchResult, len(reqs))
	groups := make(map[string][]*batchItem)
	var serial []int
	for i := range reqs {
		r, err := c.lookup(reqs[i].Fd)
		if err != nil {
			results[i] = BatchResult{-1, err}
			continue
		}
		off := reqs[i].Offset
		if off < 0 || off > r.length {
			results[i] = BatchResult{-1, fmt.Errorf("%w: offset %d in %d-byte region", ErrInval, off, r.length)}
			continue
		}
		if !r.valid {
			results[i] = BatchResult{-1, fmt.Errorf("%w: region %d is not active", ErrNoMem, reqs[i].Fd)}
			continue
		}
		want := int64(len(reqs[i].Buf))
		if off+want > r.length {
			want = r.length - off
		}
		if want == 0 {
			results[i] = BatchResult{0, nil}
			continue
		}
		groups[r.remote.HostAddr] = append(groups[r.remote.HostAddr],
			&batchItem{idx: i, fd: reqs[i].Fd, off: off, want: want, buf: reqs[i].Buf, r: r})
	}
	hosts := make([]string, 0, len(groups))
	for host := range groups {
		hosts = append(hosts, host)
	}
	sort.Strings(hosts)
	for _, host := range hosts {
		items := groups[host]
		if len(items) == 1 {
			// A batch of one gains nothing over a single read, which
			// can also assemble straight into the buffer.
			serial = append(serial, items[0].idx)
			continue
		}
		// Split so each exchange's concatenated stream stays within a
		// single transfer.
		start, total := 0, int64(0)
		for i, it := range items {
			if i > start && total+it.want > bulk.MaxTransfer {
				c.batchGroup(host, items[start:i], total, results)
				start, total = i, 0
			}
			total += it.want
		}
		c.batchGroup(host, items[start:], total, results)
	}
	for _, i := range serial {
		results[i].N, results[i].Err = c.Mread(reqs[i].Fd, reqs[i].Offset, reqs[i].Buf)
	}
	return results
}

// batchGroup runs one ReadBatchReq exchange against host for items
// (all hosted there, concatenated stream length total) and fills in
// their results. Protocol-level refusals fall back to individual
// Mreads; transport-level failures drop the host like any other read.
func (c *Client) batchGroup(host string, items []*batchItem, total int64, results []BatchResult) {
	failAll := func(err error) {
		for _, it := range items {
			results[it.idx] = BatchResult{-1, err}
		}
	}
	fallback := func() {
		for _, it := range items {
			results[it.idx].N, results[it.idx].Err = c.Mread(it.fd, it.off, it.buf)
		}
	}
	// The response stream is one slot per item, each exactly the
	// requested length (zero-padded on per-item failure), so its total
	// size is known up front — pre-register the receive before the
	// request leaves, as for a multi-frame single read.
	stream := make([]byte, total)
	id := c.ep.NextTransferID()
	chunk := c.ep.ChunkSize()
	window, err := c.ep.ExpectBulkInto(stream, host, id, chunk)
	if err != nil {
		fallback()
		return
	}
	witems := make([]wire.ReadBatchItem, len(items))
	for i, it := range items {
		witems[i] = wire.ReadBatchItem{
			RegionID: it.r.remote.RegionID,
			Epoch:    it.r.remote.Epoch,
			Offset:   uint64(it.off),
			Length:   uint64(it.want),
		}
	}
	req := &wire.ReadBatchReq{
		XferID:    id,
		ChunkSize: uint32(chunk),
		Window:    uint32(window),
		Items:     witems,
	}
	resp, err := c.ep.Call(host, req)
	if err != nil {
		c.ep.CancelExpect(host, id)
		c.dropHost(host)
		failAll(fmt.Errorf("%w: host %s unreachable: %v", ErrNoMem, host, err))
		return
	}
	br, ok := resp.(*wire.ReadBatchResp)
	if !ok {
		c.ep.CancelExpect(host, id)
		c.dropHost(host)
		failAll(fmt.Errorf("%w: unexpected response %v", ErrNoMem, resp.Kind()))
		return
	}
	if br.Status != wire.StatusOK || len(br.Results) != len(items) {
		// The imd refused the batch as a whole (draining, oversize);
		// each read still has the full single-read machinery to fall
		// back on.
		c.ep.CancelExpect(host, id)
		fallback()
		return
	}
	switch {
	case br.Flags&wire.DataFlagInline != 0:
		c.ep.CancelExpect(host, id)
		if int64(len(br.Payload)) != total {
			fallback()
			return
		}
		copy(stream, br.Payload)
	case br.Flags&wire.DataFlagEager != 0:
		if _, err := c.ep.RecvBulkInto(stream, host, id, dataBudget(total)); err != nil {
			c.dropHost(host)
			failAll(fmt.Errorf("%w: transfer failed: %v", ErrNoMem, err))
			return
		}
	default:
		c.ep.CancelExpect(host, id)
		fallback()
		return
	}
	c.batchReads.Add(1)
	off := int64(0)
	for i, it := range items {
		slot := stream[off : off+it.want]
		off += it.want
		res := br.Results[i]
		if res.Status != wire.StatusOK {
			// Only this item's region was refused (stale epoch, freed
			// region); re-run it through the single-read path, whose
			// drop/fallback handling the caller already expects.
			results[it.idx].N, results[it.idx].Err = c.Mread(it.fd, it.off, it.buf)
			continue
		}
		n := int(res.Count)
		if n > len(slot) {
			n = len(slot)
		}
		if wire.Checksum(slot[:n]) != res.Crc {
			results[it.idx] = BatchResult{-1, c.failChecksum(host)}
			continue
		}
		results[it.idx] = BatchResult{copy(it.buf, slot[:n]), nil}
		c.remoteReads.Add(1)
		c.remoteReadBy.Add(int64(n))
	}
}
