// Fixture for the buffer-ownership analyzer. Checked under the import
// path dodo/internal/usocket so the local Send method counts as a
// zero-copy sender and the package is inside the zero-copy set.
package usocket

type conn struct {
	last   []byte
	q      [][]byte
	frames []wrap
}

type wrap struct{ data []byte }

// Send is recognized as a zero-copy sender because this fixture
// type-checks under internal/usocket.
func (c *conn) Send(to string, data []byte) error { return nil }

// Writing into a buffer after lending it to the transport: flagged.
func useAfterSend(c *conn) {
	buf := make([]byte, 64)
	_ = c.Send("x", buf)
	buf[0] = 1 // want `write into buf after it was passed to a zero-copy send`
}

// copy() over a lent buffer rewrites bytes in flight: flagged.
func copyAfterSend(c *conn) {
	buf := make([]byte, 8)
	_ = c.Send("x", buf)
	copy(buf, "new") // want `copy into buf after it was passed to a zero-copy send`
}

// Retaining a lent buffer in long-lived state: flagged.
func retainAfterSend(c *conn) {
	buf := make([]byte, 8)
	_ = c.Send("x", buf)
	c.last = buf // want `buf stored after it was passed to a zero-copy send`
}

// Wholesale reassignment returns ownership: not flagged.
func reassignAfterSend(c *conn) {
	buf := make([]byte, 8)
	_ = c.Send("x", buf)
	buf = make([]byte, 8)
	buf[0] = 1
}

// Storing a borrowed []byte parameter beyond the call: flagged.
func (c *conn) deposit(data []byte) {
	c.q = append(c.q, data) // want `borrowed \[\]byte parameter data stored beyond the call`
}

// Wrapping the borrowed parameter in a composite literal is still
// retention — only the slice header is copied: flagged.
func (c *conn) depositFramed(data []byte) {
	c.frames = append(c.frames, wrap{data: data}) // want `borrowed \[\]byte parameter data stored beyond the call`
}

// Retaining a copy is the sanctioned pattern: not flagged.
func (c *conn) depositCopy(data []byte) {
	c.q = append(c.q, append([]byte(nil), data...))
}

// Reviewed ownership transfer: the caller copies before calling, so
// this queue takes over the frame by contract. Without the directive
// this line would be a finding — the golden test proves the
// suppression works because no want comment matches here.
func (c *conn) depositOwned(data []byte) {
	//vet:ignore buffer-ownership — fixture: ownership transferred by contract
	c.q = append(c.q, data)
}

// An adopted parameter is an ownership transfer that is part of the
// function's documented contract: the caller hands dst over and must
// not touch it until the API gives it back. Not flagged.
//
// dodo:adopts(data)
func (c *conn) depositAdopted(data []byte) {
	c.q = append(c.q, data)
}

// A directive naming a parameter that does not exist (or is not a
// []byte) is itself a finding, so a typo cannot silently disable the
// borrowed-parameter rule — and the real parameter stays checked.
//
// dodo:adopts(bogus)
func (c *conn) adoptTypo(data []byte) { // want `dodo:adopts\(bogus\) names no \[\]byte parameter`
	c.q = append(c.q, data) // want `borrowed \[\]byte parameter data stored beyond the call`
}

// A malformed adopts directive is reported, not silently ignored.
//
// dodo:adopts() want `malformed directive`
func (c *conn) adoptMalformed(data []byte) {
	c.q = append(c.q, append([]byte(nil), data...))
}

// A send on one branch lends the buffer on that branch only; the other
// still owns it. Not flagged.
func sendOnOneBranch(c *conn, direct bool) {
	buf := make([]byte, 8)
	if direct {
		_ = c.Send("x", buf)
	} else {
		buf[0] = 1
	}
}

// Reassignment returns ownership on its own path only: where the paths
// meet, the buffer may still be lent. Flagged.
func reassignOnOneBranch(c *conn, fresh bool) {
	buf := make([]byte, 8)
	_ = c.Send("x", buf)
	if fresh {
		buf = make([]byte, 8)
	}
	buf[0] = 1 // want `write into buf after it was passed to a zero-copy send`
}
