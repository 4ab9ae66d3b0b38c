package core

// BatchRead is one read of an MreadBatch call.
//
// Deprecated: for benchmark/ only, until the benchmark PR that drops batchDodo.
type BatchRead struct {
	Fd     int
	Offset int64
	Buf    []byte
}

// BatchResult is one read's Mread outcome.
//
// Deprecated: as BatchRead.
type BatchResult struct {
	N   int
	Err error
}

// MreadBatch runs each read through Mread, in order.
//
// Deprecated: as BatchRead; the batched exchange it fronted is retired.
func (c *Client) MreadBatch(reqs []BatchRead) []BatchResult {
	results := make([]BatchResult, len(reqs))
	for i, r := range reqs {
		results[i].N, results[i].Err = c.Mread(r.Fd, r.Offset, r.Buf)
	}
	return results
}
