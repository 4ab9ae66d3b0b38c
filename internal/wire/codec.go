package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Message is implemented by every payload type in the protocol.
type Message interface {
	// Kind returns the wire type tag of the message.
	Kind() Type
	// fields names every field of the payload once, in wire order, to
	// the cursor walking it. The one walk sizes, encodes and decodes
	// the message, so the three cannot disagree about its layout.
	fields(c *cursor)
}

// walk is what a cursor does with the fields it is shown.
type walk uint8

const (
	sizing  walk = iota // count the bytes the fields encode to
	putting             // write the fields into buf
	getting             // read the fields out of buf
)

// cursor walks one payload. Truncation, string and list bounds are all
// enforced here; a message's fields method only names its fields.
type cursor struct {
	mode walk
	buf  []byte // putting, getting: the payload bytes not yet walked
	n    int    // sizing: the bytes counted so far
	err  error  // the first failure; every later field is skipped
}

// next steps over the next n payload bytes and returns them, or nil
// when there are none to touch: a sizing walk only counts, and a
// failed walk stays failed. This is the codec's one bounds check — a
// payload that ends inside a field is ErrTruncated here.
func (c *cursor) next(n int) []byte {
	switch {
	case c.mode == sizing:
		c.n += n
	case c.err != nil:
	case len(c.buf) < n:
		c.err = ErrTruncated
	default:
		b := c.buf[:n:n]
		c.buf = c.buf[n:]
		return b
	}
	return nil
}

func (c *cursor) u8(ps ...*uint8) {
	b := c.next(len(ps))
	if b == nil {
		return
	}
	if c.mode == getting {
		for i, p := range ps {
			*p = b[i]
		}
		return
	}
	for i, p := range ps {
		b[i] = *p
	}
}

func (c *cursor) u16(ps ...*uint16) {
	b := c.next(2 * len(ps))
	if b == nil {
		return
	}
	if c.mode == getting {
		for i, p := range ps {
			*p = binary.BigEndian.Uint16(b[2*i:])
		}
		return
	}
	for i, p := range ps {
		binary.BigEndian.PutUint16(b[2*i:], *p)
	}
}

func (c *cursor) u32(ps ...*uint32) {
	b := c.next(4 * len(ps))
	if b == nil {
		return
	}
	if c.mode == getting {
		for i, p := range ps {
			*p = binary.BigEndian.Uint32(b[4*i:])
		}
		return
	}
	for i, p := range ps {
		binary.BigEndian.PutUint32(b[4*i:], *p)
	}
}

func (c *cursor) u64(ps ...*uint64) {
	b := c.next(8 * len(ps))
	if b == nil {
		return
	}
	if c.mode == getting {
		for i, p := range ps {
			*p = binary.BigEndian.Uint64(b[8*i:])
		}
		return
	}
	for i, p := range ps {
		binary.BigEndian.PutUint64(b[8*i:], *p)
	}
}

// The typed fields below write to the message only when decoding: a
// message may be encoded from several goroutines at once.

func (c *cursor) i64(p *int64) {
	u := uint64(*p)
	if c.u64(&u); c.mode == getting {
		*p = int64(u)
	}
}

func (c *cursor) flag(p *bool) {
	var u uint8
	if *p {
		u = 1
	}
	if c.u8(&u); c.mode == getting {
		*p = u != 0
	}
}

func (c *cursor) status(p *Status) { c.u8((*uint8)(p)) }

// str walks a string as a uint16 length and its bytes; one too long
// for the length is ErrFieldBounds.
func (c *cursor) str(p *string) {
	if c.mode != getting && len(*p) > math.MaxUint16 {
		c.err = ErrFieldBounds
	}
	n := uint16(len(*p))
	c.u16(&n)
	if b := c.next(int(n)); c.mode == getting {
		*p = string(b)
	} else {
		copy(b, *p)
	}
}

// rest walks a message's tail: whatever payload follows its last fixed
// field, nil when nothing does. A decoded tail aliases the frame (see
// Decode): an inline page is not copied on its way through the codec.
func (c *cursor) rest(p *[]byte) {
	if c.mode == getting {
		if *p = c.next(len(c.buf)); len(*p) == 0 {
			*p = nil
		}
	} else {
		copy(c.next(len(*p)), *p)
	}
}

// math16max bounds element counts that travel as uint16 on the wire.
// The bound must be strictly below 1<<16: exactly 65536 elements would
// pass a `> 1<<16` check yet encode as count 0, silently dropping the
// whole list on decode.
const math16max = 1<<16 - 1

// listOf describes the elements of one kind of counted list.
type listOf[T any] struct {
	fields func(*T, *cursor)
	max    int // the most elements a list may hold
	min    int // the least bytes an element encodes to: its zero value's
}

func newList[T any](max int, fields func(*T, *cursor)) listOf[T] {
	c := cursor{mode: sizing}
	fields(new(T), &c)
	return listOf[T]{fields, max, c.n}
}

// counted walks *s as a uint16 element count and the elements.
func (l listOf[T]) counted(c *cursor, s *[]T) {
	n := uint16(len(*s))
	c.u16(&n)
	l.elems(c, s, int(n))
}

// elems walks the elements of *s behind a count already walked: n is
// that count when decoding, and len(*s) otherwise. More than max
// elements are ErrFieldBounds in either direction. A decoded count
// whose elements the rest of the payload cannot hold, at min bytes
// each, is ErrTruncated before anything is allocated for them, so a
// hostile count costs nothing; an empty list decodes to nil.
func (l listOf[T]) elems(c *cursor, s *[]T, n int) {
	if c.mode != getting {
		n = len(*s)
	}
	switch {
	case c.err != nil:
		return
	case n > l.max:
		c.err = ErrFieldBounds
		return
	case c.mode == getting && n*l.min > len(c.buf):
		c.err = ErrTruncated
		return
	case c.mode == getting && n > 0:
		*s = make([]T, n)
	}
	for i := range *s {
		l.fields(&(*s)[i], c)
	}
}

// cursors recycles cursors: one handed through the Message interface
// escapes, and the codec must not cost a message an allocation.
var cursors = sync.Pool{New: func() any { return new(cursor) }}

// run walks msg's fields over buf in the given mode and returns the
// bytes a sizing walk counted and the walk's first failure.
func (c *cursor) run(mode walk, msg Message, buf []byte) (int, error) {
	*c = cursor{mode: mode, buf: buf}
	msg.fields(c)
	c.buf = nil
	return c.n, c.err
}

// PayloadSize returns the exact encoded payload length of a message
// Encode accepts.
func PayloadSize(msg Message) int {
	c := cursors.Get().(*cursor)
	defer cursors.Put(c)
	n, _ := c.run(sizing, msg, nil)
	return n
}

// frameSize returns the length of msg's frame, or why it has none: a
// field out of bounds, or a payload above MaxPayload.
func (c *cursor) frameSize(msg Message) (int, error) {
	n, err := c.run(sizing, msg, nil)
	if err == nil && n > MaxPayload {
		err = ErrOversize
	}
	return HeaderSize + n, err
}

// putFrame writes msg's frame into frame, which the caller made
// frameSize(msg) long.
func (c *cursor) putFrame(frame []byte, seq uint32, msg Message) error {
	PutHeader(frame, Header{Type: msg.Kind(), Seq: seq, PayloadLen: uint32(len(frame) - HeaderSize)})
	_, err := c.run(putting, msg, frame[HeaderSize:])
	return err
}

// Encode serializes msg into a standalone frame with the given sequence
// number.
func Encode(seq uint32, msg Message) ([]byte, error) {
	c := cursors.Get().(*cursor)
	defer cursors.Put(c)
	n, err := c.frameSize(msg)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, n)
	if err := c.putFrame(frame, seq, msg); err != nil {
		return nil, err
	}
	return frame, nil
}

// Decode parses a frame into its header and typed message. The
// message's payload tail (DataResp, WriteReq and BulkData have one)
// ALIASES frame: Decode takes the frame over on the message's behalf,
// and the caller must neither write to it nor recycle it while the
// message is in use. Every transport's Recv hands its caller a frame
// the caller owns, so a receive loop meets the contract by decoding
// each frame once and dropping it. Everything else in the message is
// copied out.
func Decode(frame []byte) (Header, Message, error) {
	h, err := ParseHeader(frame)
	if err != nil {
		return Header{}, nil, err
	}
	msg := types[h.Type].new()
	c := cursors.Get().(*cursor)
	defer cursors.Put(c)
	if _, err := c.run(getting, msg, frame[HeaderSize:HeaderSize+int(h.PayloadLen)]); err != nil {
		return Header{}, nil, fmt.Errorf("wire: decoding %v: %w", h.Type, err)
	}
	return h, msg, nil
}
