package imd

import (
	"testing"

	"dodo/internal/wire"
)

// TestHandleAnswersEveryType runs a zero message of every registered
// wire type through the daemon's dispatcher. The table says which it
// answers; every other type is dropped. A type missing from the table
// fails the test, so a new wire type is answered or dropped on purpose.
func TestHandleAnswersEveryType(t *testing.T) {
	const answer, drop = true, false
	answers := map[wire.Type]bool{
		wire.TIMDAllocReq: answer,
		wire.TIMDFreeReq:  answer,
		wire.TReadReq:     answer,
		wire.TWriteReq:    answer,
		wire.THandoffPage: answer,
		// Requests for the central manager: a misdirected peer's.
		wire.TAllocReq:        drop,
		wire.TFreeReq:         drop,
		wire.TCheckAllocReq:   drop,
		wire.TKeepAlive:       drop,
		wire.THostStatus:      drop,
		wire.TClusterStatsReq: drop,
		wire.THandoffOffer:    drop,
		wire.THandoffDone:     drop,
		wire.TInventoryReport: drop,
		// Responses and bulk frames, which the endpoint's dispatch
		// consumes before the handler runs.
		wire.TAllocResp:        drop,
		wire.TFreeResp:         drop,
		wire.TCheckAllocResp:   drop,
		wire.TKeepAliveAck:     drop,
		wire.THostStatusAck:    drop,
		wire.TIMDAllocResp:     drop,
		wire.TIMDFreeResp:      drop,
		wire.TDataResp:         drop,
		wire.TBulkOffer:        drop,
		wire.TBulkData:         drop,
		wire.TBulkNack:         drop,
		wire.TBulkDone:         drop,
		wire.TClusterStatsResp: drop,
		wire.THandoffAccept:    drop,
		wire.TInventoryAck:     drop,
	}
	r := newRig(t, 1<<20)
	for _, msg := range wire.Messages() {
		want, ok := answers[msg.Kind()]
		if !ok {
			t.Errorf("%v: not in the table; say whether handle answers it", msg.Kind())
			continue
		}
		if got := r.d.handle(r.seg.Addr("client"), msg) != nil; got != want {
			t.Errorf("%v: answered %v, want %v", msg.Kind(), got, want)
		}
	}
}
