package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
)

// Frames of earlier versions, from testdata/frames.golden: the populated
// WriteReq sample as version 2 framed it, before the message had a
// payload tail; the BulkOffer and BulkAccept samples of version 3,
// before the offer named its window and while an accept answered it;
// and the KeepAliveAck no-hosts sample of version 4, whose nine
// counters had fixed positions.
const (
	v2WriteReq = "d0d002100000006300000034000000000000002a000000000000000500000000000000640000000000002000000000000000232900000000000000111234abcd"
	v3Offer    = "d0d0031200000063000000140000000000002329000000000010000000000578"
	v3Accept   = "d0d00313000000630000000d00000000000023290000002005"
	v4Ack      = "d0d00408000000630000004e0000004d0000000000000003000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"
)

func hexFrame(t testing.TB, s string) []byte {
	frame, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestVersion3PushFramesRefused: a version-3 offer is refused on its
// version byte, and the accept on its type, at today's version too.
func TestVersion3PushFramesRefused(t *testing.T) {
	if _, _, err := Decode(hexFrame(t, v3Offer)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("Decode of a version-3 BulkOffer = %v, want ErrBadVersion", err)
	}
	accept := hexFrame(t, v3Accept)
	accept[2] = Version
	if _, _, err := Decode(accept); !errors.Is(err, ErrBadType) {
		t.Errorf("Decode of a BulkAccept at version %d = %v, want ErrBadType", Version, err)
	}
}

// TestVersion4KeepAliveAckRefused: a version-4 ack is refused on its
// version byte. Restamped with today's version it decodes, but its
// first counter's high bytes read as two empty lists: the version byte
// is all that keeps positional counters from reading as no counters.
func TestVersion4KeepAliveAckRefused(t *testing.T) {
	ack := hexFrame(t, v4Ack)
	if _, _, err := Decode(ack); !errors.Is(err, ErrBadVersion) {
		t.Errorf("Decode of a version-4 KeepAliveAck = %v, want ErrBadVersion", err)
	}
	ack[2] = Version
	if _, msg, err := Decode(ack); err != nil || msg.(*KeepAliveAck).Counters != nil {
		t.Errorf("the same bytes at today's version = %+v, %v; want an ack with no counters", msg, err)
	}
}

// TestVersion2FrameRefused: a frame of the previous version is refused
// whole, though its bytes would parse as today's WriteReq.
func TestVersion2FrameRefused(t *testing.T) {
	frame := hexFrame(t, v2WriteReq)
	if _, _, err := Decode(frame); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("Decode of a version-2 WriteReq = %v, want ErrBadVersion", err)
	}
	frame[2] = Version
	if _, msg, err := Decode(frame); err != nil || msg.(*WriteReq).Payload != nil {
		t.Fatalf("the same bytes at today's version = %+v, %v; want a WriteReq with no payload", msg, err)
	}
}

// FuzzWireRoundTrip drives arbitrary byte strings through the codec and
// checks the Marshal/Unmarshal symmetry on everything that decodes:
//
//   - Decode either rejects the frame or returns a message whose Kind
//     matches the header type;
//   - re-encoding the decoded message yields a frame whose header
//     PayloadLen is exactly the payload length on the wire;
//   - the re-encoded frame decodes to a deeply equal message — the
//     canonical form is a fixed point of Decode ∘ Encode.
//
// The seed corpus holds one zero-valued frame per registered wire type
// (so every decoder is exercised from the first run) plus every row of
// samples(): populated frames covering the variable-length fields and
// their empty variants.
func FuzzWireRoundTrip(f *testing.F) {
	for _, t := range registered() {
		frame, err := Encode(7, zero(t))
		if err != nil {
			f.Fatalf("Encode(zero %v): %v", t, err)
		}
		f.Add(frame)
	}
	for _, s := range samples() {
		frame, err := Encode(99, s.msg)
		if err != nil {
			f.Fatalf("Encode(%s): %v", s.name(), err)
		}
		f.Add(frame)
	}
	// A few deliberately broken frames so the fuzzer starts near the
	// rejection paths too.
	f.Add([]byte{})
	f.Add([]byte{0xD0, 0xD0, Version, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xD0, 0xD0, Version - 1, byte(TFreeReq), 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xD0}, HeaderSize+4))
	// What a version-2, 3 or 4 peer could still send, refused on the
	// version byte.
	f.Add(hexFrame(f, v2WriteReq))
	f.Add(hexFrame(f, v3Offer))
	f.Add(hexFrame(f, v4Ack))
	// The batched read's five frames from frames.golden at d748fa1, a
	// bare header of each of its reserved numbers, and the retired
	// accept, restamped with today's version so that ParseHeader refuses
	// all eight on their type.
	for _, retired := range []string{
		v3Accept,
		"d0d0021f0000006300000052000000000000004e000005800000002000020000000000000009000000000000000500000000000000000000000000001000000000000000000a000000000000000600000000000020000000000000004000",
		"d0d00220000000630000002e05000000000000004e010002000000000000000008cafef00d040000000000000000000000003862797465732121",
		"d0d0021f0000006300000012000000000000004e00000580000000200000",
		"d0d00220000000630000001900000000000000004e02000100000000000000100000000001",
		"d0d00220000000630000000c040000000000000000000000",
		"d0d0021f0000000700000000",
		"d0d002200000000700000000",
	} {
		frame := hexFrame(f, retired)
		frame[2] = Version
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		h, msg, err := Decode(frame)
		if err != nil {
			return // rejection is a valid outcome; crashes are not
		}
		if msg.Kind() != h.Type {
			t.Fatalf("decoded %T.Kind() = %v, header says %v", msg, msg.Kind(), h.Type)
		}
		re, err := Encode(h.Seq, msg)
		if err != nil {
			t.Fatalf("re-encoding decoded %T: %v", msg, err)
		}
		h2, msg2, err := Decode(re)
		if err != nil {
			t.Fatalf("decoding re-encoded %T: %v", msg, err)
		}
		if h2.Type != h.Type || h2.Seq != h.Seq {
			t.Fatalf("header changed across round trip: %+v -> %+v", h, h2)
		}
		if int(HeaderSize)+int(h2.PayloadLen) != len(re) {
			t.Fatalf("%T: PayloadLen %d inconsistent with frame length %d", msg, h2.PayloadLen, len(re))
		}
		if !reflect.DeepEqual(msg, msg2) {
			t.Fatalf("%T not a fixed point of Decode∘Encode:\n first: %+v\nsecond: %+v", msg, msg, msg2)
		}
		// Canonical form must be stable: encoding again reproduces the
		// same bytes.
		re2, err := Encode(h.Seq, msg2)
		if err != nil {
			t.Fatalf("third encode of %T: %v", msg, err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("%T: canonical encoding not stable", msg)
		}
	})
}
