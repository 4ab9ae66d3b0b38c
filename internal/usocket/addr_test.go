package usocket

import (
	"fmt"
	"regexp"
	"testing"
	"testing/quick"
	"time"

	"dodo/internal/locks"
	"dodo/internal/wire"
)

// refAton and refString are Aton and MACAddr.String as they stood when
// they were written with fmt — the reference the hand-rolled forms are
// compared against.
func refAton(s string) (MACAddr, error) {
	var m MACAddr
	var parts [6]int
	n, err := fmt.Sscanf(s, "%02x:%02x:%02x:%02x:%02x:%02x",
		&parts[0], &parts[1], &parts[2], &parts[3], &parts[4], &parts[5])
	if err != nil || n != 6 {
		return MACAddr{}, fmt.Errorf("%w: %q", ErrBadAddress, s)
	}
	for i, p := range parts {
		if p < 0 || p > 255 {
			return MACAddr{}, fmt.Errorf("%w: %q", ErrBadAddress, s)
		}
		m[i] = byte(p)
	}
	return m, nil
}

func refString(m MACAddr) string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

var canonicalMAC = regexp.MustCompile(`^[0-9a-fA-F]{2}(:[0-9a-fA-F]{2}){5}$`)

// checkAtonAgainstRef states the contract between the two parsers for
// one input. Aton accepts exactly the canonical 17-byte form; on that
// form the reference accepts too and both give the same address. Off
// it Aton rejects, whatever the reference did.
func checkAtonAgainstRef(t *testing.T, s string) {
	t.Helper()
	got, err := Aton(s)
	ref, rerr := refAton(s)
	if canonicalMAC.MatchString(s) {
		if err != nil || rerr != nil || got != ref {
			t.Errorf("canonical %q: Aton = %v, %v; reference = %v, %v", s, got, err, ref, rerr)
		}
		return
	}
	if err == nil {
		t.Errorf("Aton(%q) = %v, want an error for a non-canonical form", s, got)
	}
}

func TestAtonMatchesFmtReference(t *testing.T) {
	for _, s := range []string{
		"00:00:00:00:00:00", "ff:ff:ff:ff:ff:ff", "FF:FF:FF:FF:FF:FF", "aA:bB:cC:dD:eE:fF",
		"00:11:22:33:44:55", "01:23:45:67:89:ab",
		"", "nope", "00:11:22:33:44", "zz:11:22:33:44:55", "00:11:22:33:44:5g",
		"00-11-22-33-44-55", "00:11:22:33:44:55:66", "0011.2233.4455", "00:11:22:33:44:5",
	} {
		checkAtonAgainstRef(t, s)
	}
	// String is byte-for-byte what fmt printed, and both parsers read
	// it back.
	f := func(m MACAddr) bool {
		s := m.String()
		back, err := Aton(s)
		ref, rerr := refAton(s)
		return s == refString(m) && err == nil && rerr == nil && back == m && ref == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAtonRejectsNonCanonicalForms pins the decision for the inputs on
// which the two parsers differ: Sscanf's %02x read up to two digits,
// took a sign for one of them, skipped leading blanks and ignored
// whatever followed the sixth group. String never writes any of these,
// and an address that only almost names an endpoint is better refused
// than guessed at.
func TestAtonRejectsNonCanonicalForms(t *testing.T) {
	for _, s := range []string{
		"a:b:c:d:e:f",           // one-digit groups
		"0a:0b:0c:0d:0e:f",      // one short group
		"+1:02:03:04:05:06",     // a sign in a digit's place
		" 01:02:03:04:05:06",    // leading blank
		"01:02:03:04:05:06 ",    // trailing blank
		"01:02:03:04:05:06:07",  // a seventh group
		"01:02:03:04:05:06junk", // trailing text
		"a:b:c:d:e:f_padding__", // 17 bytes, but not the canonical 17
	} {
		if _, err := refAton(s); err != nil {
			t.Errorf("reference rejects %q too (%v): not a difference worth pinning", s, err)
		}
		if m, err := Aton(s); err == nil {
			t.Errorf("Aton(%q) = %v, want an error", s, m)
		}
	}
}

func FuzzAton(f *testing.F) {
	for _, s := range []string{"00:11:22:33:44:55", "AA:bb:CC:dd:EE:ff", "a:b:c:d:e:f", "+1:02:03:04:05:06", "01:02:03:04:05:06junk", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkAtonAgainstRef(t, s)
		if m, err := Aton(s); err == nil && m.String() != refString(m) {
			t.Errorf("String of %v = %q, reference %q", [6]byte(m), m.String(), refString(m))
		}
	})
}

// TestAddressAndFrameAllocationBudget holds the per-frame budget of the
// usocket path: no allocation to parse an address, one to format one,
// and none for a frame sent with SendVec, received through the
// transport adapter and given back as the bulk receive loop gives it
// back: in steady state the frame is a recycled one. (AllocsPerRun
// rounds down, which absorbs the quarter of all puts that a sync.Pool
// drops under the race detector.)
func TestAddressAndFrameAllocationBudget(t *testing.T) {
	if locks.CheckEnabled {
		t.Skip("the lockcheck runtime allocates on every Lock")
	}
	addr := "0a:1b:2c:3d:4e:5f"
	m, err := Aton(addr)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := Aton(addr); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Aton allocates %.1f times per call, want 0", n)
	}
	var sink string
	if n := testing.AllocsPerRun(1000, func() { sink = m.String() }); n > 1 {
		t.Errorf("MACAddr.String allocates %.1f times per call, want at most 1 (%q)", n, sink)
	}

	ta, tb := unetPair(t)
	to := tb.LocalAddr()
	prefix, payload := make([]byte, 24), make([]byte, MTU-24)
	if n := testing.AllocsPerRun(1000, func() {
		if err := ta.SendVec(to, prefix, payload); err != nil {
			t.Fatal(err)
		}
		data, from, err := tb.Recv(time.Second)
		if err != nil || len(data) != MTU || from != ta.LocalAddr() {
			t.Fatalf("Recv = %d bytes from %q, %v", len(data), from, err)
		}
		wire.PutFrame(data)
	}); n != 0 {
		t.Errorf("one frame through SendVec, Recv and PutFrame allocates %.1f times, want 0", n)
	}
}

// TestRecvFrameHandsOverTheDepositedFrame: the slice RecvFrame returns
// is the caller's. The socket keeps no reference to it, so writing to
// it disturbs neither the sender's buffer nor a later frame.
func TestRecvFrameHandsOverTheDepositedFrame(t *testing.T) {
	_, a, b, ma, mb := pair(t)
	sent := []byte("first frame")
	if _, err := a.SendTo(mb, sent); err != nil {
		t.Fatal(err)
	}
	got, from, err := b.RecvFrame(time.Second)
	if err != nil || string(got) != "first frame" || from != ma {
		t.Fatalf("RecvFrame = %q from %v, %v", got, from, err)
	}
	for i := range got {
		got[i] = 'x'
	}
	if string(sent) != "first frame" {
		t.Fatalf("writing to the received frame changed the sender's buffer: %q", sent)
	}
	if _, err := a.SendTo(mb, []byte("second")); err != nil {
		t.Fatal(err)
	}
	next, _, err := b.RecvFrame(time.Second)
	if err != nil || string(next) != "second" {
		t.Fatalf("second RecvFrame = %q, %v", next, err)
	}
	if _, _, err := b.RecvFrame(10 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("RecvFrame on an empty queue = %v, want ErrTimeout", err)
	}
}
