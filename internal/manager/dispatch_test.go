package manager

import (
	"testing"

	"dodo/internal/wire"
)

// TestHandleAnswersEveryType runs a zero message of every registered
// wire type through the manager's dispatcher. The table says which it
// answers; every other type is dropped. A type missing from the table
// fails the test, so a new wire type is answered or dropped on purpose.
func TestHandleAnswersEveryType(t *testing.T) {
	const answer, drop = true, false
	answers := map[wire.Type]bool{
		wire.THostStatus:      answer,
		wire.TAllocReq:        answer,
		wire.TFreeReq:         answer,
		wire.TCheckAllocReq:   answer,
		wire.TClusterStatsReq: answer,
		wire.THandoffOffer:    answer,
		wire.THandoffDone:     answer,
		wire.TInventoryReport: answer,
		// Requests for an imd or a client: a misdirected peer's.
		wire.TIMDAllocReq: drop,
		wire.TIMDFreeReq:  drop,
		wire.TReadReq:     drop,
		wire.TWriteReq:    drop,
		wire.TKeepAlive:   drop,
		wire.THandoffPage: drop,
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
	r := newRig(t)
	for _, msg := range wire.Messages() {
		want, ok := answers[msg.Kind()]
		if !ok {
			t.Errorf("%v: not in the table; say whether handle answers it", msg.Kind())
			continue
		}
		if got := r.mgr.handle(r.seg.Addr("client"), msg) != nil; got != want {
			t.Errorf("%v: answered %v, want %v", msg.Kind(), got, want)
		}
	}
}
