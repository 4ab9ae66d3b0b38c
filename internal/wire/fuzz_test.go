package wire

import (
	"bytes"
	"reflect"
	"testing"
)

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
