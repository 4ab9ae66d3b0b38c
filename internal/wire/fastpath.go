package wire

import (
	"encoding/binary"
	"math/bits"
	"sync"
)

// Frame pool: recycled buffers for the data plane. The hot path
// encodes one BulkData frame per packet, and the UDP transport receives
// each datagram into a frame; allocating each from the heap made the
// garbage collector a participant in every transfer. Buffers here are recycled
// through sync.Pools instead, one per size class.
//
// Size classes: 64 KiB — a full frame on the largest-MTU transport
// (kernel UDP, 63 KiB) with header room to spare — and every power of
// two above it up to maxPooledFrame. A request takes the smallest class
// that holds it, so a region-sized buffer wastes at most half its
// class; anything larger falls through to the heap, and so does
// anything below MinPooledFrame: a control message is cheaper to
// allocate than to fetch from a 64 KiB class (measured on rand8k-unet,
// where pooling each request and response of 60 bytes cost 2.5 % of
// throughput). Below the floor there is one class of a fixed size with
// an entry point of its own, the data frame (GetDataFrame). The pools are
// sync.Pools, so an idle class is emptied by the garbage collector
// within two cycles and pins nothing.
//
// Ownership rule: whoever holds a frame last gives it back with
// PutFrame, and does so only after the last read of it — and, for a
// buffer something else writes into (a bulk receive), after the last
// write. A sender that keeps its frame costs a 64 KB frame a send,
// which its package's allocation-bound test catches. A frame handed to a transport
// Send/SendVec may be given back as soon as the call returns — usocket
// copies the frame before queueing it and UDP hands it to the kernel
// synchronously — which is what lets senders pair GetFrame with an
// immediate `defer PutFrame`. A frame a transport's Recv returns is the
// receive loop's (transport.Transport.Recv), and the loop gives it back
// once the message decoded from it is dead: bulk.Handler and
// bulk.Pending say when that is.

const (
	// minFrameShift is log2 of the smallest class, 64 KiB.
	minFrameShift = 16
	// MinPooledFrame is the smallest request worth a pooled buffer:
	// above every control message and the U-Net MTU, below every page.
	MinPooledFrame = 2 << 10
	// maxFrameShift is log2 of the largest class, 4 MiB: the data sets
	// Dodo serves use regions of 8 KiB to 1 MiB (Fig. 8), so the
	// largest region a read or push moves fits with room to spare.
	maxFrameShift  = 22
	maxPooledFrame = 1 << maxFrameShift
)

// framePools[i] recycles buffers of capacity 1<<(minFrameShift+i).
var framePools [maxFrameShift - minFrameShift + 1]sync.Pool

// frameClass returns the index of the smallest class holding n bytes;
// n must not exceed maxPooledFrame.
func frameClass(n int) int {
	if n <= 1<<minFrameShift {
		return 0
	}
	return bits.Len(uint(n-1)) - minFrameShift
}

// GetFrame returns a buffer of length n, recycled from the pool when n
// fits a size class and is worth recycling, freshly allocated
// otherwise. The buffer's contents are arbitrary; the caller must
// overwrite every byte it reads or sends.
func GetFrame(n int) []byte {
	if n < MinPooledFrame || n > maxPooledFrame {
		return make([]byte, n)
	}
	class := frameClass(n)
	if p, ok := framePools[class].Get().(*[]byte); ok {
		return (*p)[:n]
	}
	return make([]byte, n, 1<<(minFrameShift+class))
}

// PutFrame returns a buffer obtained from GetFrame or GetDataFrame to
// the pool its capacity names: the caller may hand back a prefix of
// what it got (b[:k]) but not a suffix. A buffer of any other capacity
// (heap-allocated by GetFrame for a request outside the classes, or a
// transport's exact-size frame) is left for the garbage collector, so
// a receive loop can offer it every frame it has finished with,
// whichever transport or decorator handed it over. The buffer must
// not be touched after PutFrame.
func PutFrame(b []byte) {
	c := cap(b)
	if c == DataFrameCap {
		dataFrames.Put((*[DataFrameCap]byte)(b[:DataFrameCap]))
		return
	}
	if c < 1<<minFrameShift || c > maxPooledFrame || c&(c-1) != 0 {
		return
	}
	// A variable of its own, so that only a buffer that is pooled pays
	// for the boxed slice header: &b would move b to the heap on entry.
	full := b[:c]
	framePools[frameClass(c)].Put(&full)
}

// DataFrameCap is the capacity that makes a buffer a data frame: the
// allocator's size class for one Ethernet frame, which holds any U-Net
// frame (usocket.MTU is that frame less U-Net's header). The class is
// recognised by capacity alone, as PutFrame recognises the others, so
// a frame survives any decorator that forwards Recv's slice untouched.
// It is deliberately not a length a transport's exact-size frame has:
// at 1500 every full frame of the in-memory fabric at the Ethernet MTU
// was pooled with nobody to take it, which cost its transfers 15 %. A
// buffer that has the capacity by coincidence is as good as one made
// here once its owner gives it up.
const DataFrameCap = 1536

// dataFrames recycles the frames a sender gathers BulkData packets
// into: the one class below MinPooledFrame, because a 128 KB read is 91
// of these beside one request and one response. It holds array
// pointers, not slice headers, so a put boxes nothing and a frame's
// round trip allocates nothing.
var dataFrames sync.Pool

// GetDataFrame returns an empty buffer of capacity DataFrameCap for a
// sender to gather one frame into. The frame changes hands with the
// bytes, and whoever holds it last gives it to PutFrame: the bulk
// receive loop, once the message decoded from it is dead.
func GetDataFrame() []byte {
	if a, ok := dataFrames.Get().(*[DataFrameCap]byte); ok {
		return a[:0]
	}
	return make([]byte, 0, DataFrameCap)
}

// EncodePooled is Encode into a pooled frame: same wire bytes, but the
// returned frame came from GetFrame and the caller must hand it to
// PutFrame once the transport send returns.
func EncodePooled(seq uint32, msg Message) ([]byte, error) {
	c := cursors.Get().(*cursor)
	defer cursors.Put(c)
	n, err := c.frameSize(msg)
	if err != nil {
		return nil, err
	}
	frame := GetFrame(n)
	if err := c.putFrame(frame, seq, msg); err != nil {
		PutFrame(frame)
		return nil, err
	}
	return frame, nil
}

// dataRespFixed is the size of a DataResp payload with nothing inline.
var dataRespFixed = PayloadSize(new(DataResp))

// InlineDataLimit is the largest payload a DataResp can carry inline on
// a transport with the given MTU: the frame header and the fixed
// DataResp fields must fit alongside it. It is the one rule that picks a
// read's response shape: the requester uses it to decide whether to
// pre-register a bulk receive, the responder to decide whether to
// answer inline.
func InlineDataLimit(mtu int) int { return mtu - HeaderSize - dataRespFixed }

// writeReqFixed is the size of a WriteReq payload with nothing inline.
var writeReqFixed = PayloadSize(new(WriteReq))

// InlineWriteLimit is the largest payload a WriteReq can carry inline on
// a transport with the given MTU, and the one rule that picks a write's
// shape, as InlineDataLimit picks a read's: the client sends a write
// that fits as one frame with TransferID zero, and announces a bulk
// transfer for anything larger.
func InlineWriteLimit(mtu int) int { return mtu - HeaderSize - writeReqFixed }

// bulkDataFixed is the size of BulkData's fixed fields, TransferID and
// Seq, as the two functions below lay them out by hand.
const bulkDataFixed = 8 + 4

// BulkDataPrefixSize is the encoded size of everything in a BulkData
// frame that precedes the payload: the frame header plus the fixed
// TransferID/Seq fields.
const BulkDataPrefixSize = HeaderSize + bulkDataFixed

// PutBulkDataPrefix encodes the header and fixed fields of a BulkData
// frame carrying payloadLen payload bytes into buf (at least
// BulkDataPrefixSize long). It is the scatter-gather half of a BulkData
// send: pair it with a transport SendVec whose second element is the
// payload itself, and no per-packet payload copy happens on this side.
func PutBulkDataPrefix(buf []byte, id uint64, seq uint32, payloadLen int) {
	PutHeader(buf, Header{Type: TBulkData, Seq: 0, PayloadLen: uint32(bulkDataFixed + payloadLen)})
	binary.BigEndian.PutUint64(buf[HeaderSize:], id)
	binary.BigEndian.PutUint32(buf[HeaderSize+8:], seq)
}

// DecodeBulkData parses a BulkData frame in place. Unlike Decode, the
// returned payload ALIASES frame's backing array — it is valid only
// until the frame is given back, so the caller must copy the bytes it
// keeps before that. This is the receive-side half of the
// zero-copy bulk pipeline: the hot path copies each payload exactly
// once, straight into the assembling transfer buffer. Any frame that is
// not a well-formed BulkData returns an error; callers fall back to the
// general Decode.
func DecodeBulkData(frame []byte) (id uint64, seq uint32, payload []byte, err error) {
	h, err := ParseHeader(frame)
	if err != nil {
		return 0, 0, nil, err
	}
	if h.Type != TBulkData {
		return 0, 0, nil, ErrBadType
	}
	if h.PayloadLen < bulkDataFixed {
		return 0, 0, nil, ErrTruncated
	}
	b := frame[HeaderSize : HeaderSize+int(h.PayloadLen)]
	id = binary.BigEndian.Uint64(b[0:])
	seq = binary.BigEndian.Uint32(b[8:])
	return id, seq, b[bulkDataFixed:], nil
}
