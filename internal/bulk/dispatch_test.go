package bulk

import (
	"testing"
	"time"

	"dodo/internal/usocket"
	"dodo/internal/wire"
)

// TestDispatchRoutesEveryType runs a zero message of every registered
// wire type through the endpoint's dispatch, with a handler, a waiting
// call and a waiting transfer set up to take it. The table says which
// of them gets each type; a type missing from it fails the test, so a
// new wire type is routed on purpose or not at all.
func TestDispatchRoutesEveryType(t *testing.T) {
	const (
		handler  = "handler"  // a request: served on a goroutine of its own
		call     = "call"     // a response: handed to the call waiting on its seq
		transfer = "transfer" // a window answer: handed to the transfer it names
		endpoint = "endpoint" // an offer or data: the endpoint's own
	)
	routes := map[wire.Type]string{
		wire.TAllocReq:         handler,
		wire.TAllocResp:        call,
		wire.TFreeReq:          handler,
		wire.TFreeResp:         call,
		wire.TCheckAllocReq:    handler,
		wire.TCheckAllocResp:   call,
		wire.TKeepAlive:        handler,
		wire.TKeepAliveAck:     call,
		wire.THostStatus:       handler,
		wire.THostStatusAck:    call,
		wire.TIMDAllocReq:      handler,
		wire.TIMDAllocResp:     call,
		wire.TIMDFreeReq:       handler,
		wire.TIMDFreeResp:      call,
		wire.TReadReq:          handler,
		wire.TWriteReq:         handler,
		wire.TDataResp:         call,
		wire.TBulkOffer:        endpoint,
		wire.TBulkData:         endpoint,
		wire.TBulkNack:         transfer,
		wire.TBulkDone:         transfer,
		wire.TClusterStatsReq:  handler,
		wire.TClusterStatsResp: call,
		wire.THandoffOffer:     handler,
		wire.THandoffAccept:    call,
		wire.THandoffPage:      handler,
		wire.THandoffDone:      handler,
		wire.TInventoryReport:  handler,
		wire.TInventoryAck:     call,
	}
	seg := usocket.NewSegment()
	served := make(chan wire.Message, 1)
	ep := NewEndpoint(host(t, seg, "a"), fastCfg(), func(from string, msg wire.Message) wire.Message {
		served <- msg
		return nil
	})
	t.Cleanup(func() { ep.Close() })
	peer := seg.Addr("b")
	for _, msg := range wire.Messages() {
		want, ok := routes[msg.Kind()]
		if !ok {
			t.Errorf("%v: not in the table; say where dispatch routes it", msg.Kind())
			continue
		}
		calls, txs := make(chan reply, 1), make(chan wire.Message, 1)
		ep.mu.Lock()
		ep.calls[1] = calls
		ep.tx[xferKey{peer: peer, id: 0}] = txs
		ep.mu.Unlock()
		ep.dispatch(peer, wire.Header{Type: msg.Kind(), Seq: 1}, msg, wire.GetFrame(wire.HeaderSize))
		got := endpoint
		select {
		case r := <-calls:
			got = call
			wire.PutFrame(r.frame)
		case <-txs:
			got = transfer
		case m := <-served:
			got = handler
			if m != msg {
				t.Fatalf("%v: the handler was given %v", msg.Kind(), m.Kind())
			}
		case <-time.After(100 * time.Millisecond):
		}
		if got != want {
			t.Errorf("%v: went to the %s, want the %s", msg.Kind(), got, want)
		}
	}
}
