package bulk

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"dodo/internal/transport"
	"dodo/internal/usocket"
	"dodo/internal/wire"
)

// offerFate is what a senderTap does to the first offer it sees.
type offerFate int

const (
	deliver  offerFate = iota
	overtake           // hold it back until the first window of data has gone out
	lose               // drop it
)

// senderTap wraps a sender's transport: it counts the offers and data
// frames sent and does to the first offer what its fate says. It is no
// VecSender, so every frame passes through Send.
type senderTap struct {
	transport.Transport
	fate   offerFate
	window int

	mu           sync.Mutex
	held         []byte
	heldTo       string
	offers, data int
}

func (t *senderTap) Send(to string, frame []byte) error {
	h, err := wire.ParseHeader(frame)
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case err != nil:
	case h.Type == wire.TBulkOffer:
		t.offers++
		if t.offers == 1 && t.fate != deliver {
			if t.fate == overtake {
				t.held, t.heldTo = append([]byte(nil), frame...), to
			}
			return nil
		}
	case h.Type == wire.TBulkData:
		t.data++
		if err := t.Transport.Send(to, frame); err != nil || t.data != t.window || t.held == nil {
			return err
		}
		held := t.held
		t.held = nil
		return t.Transport.Send(t.heldTo, held)
	}
	return t.Transport.Send(to, frame)
}

func (t *senderTap) counts() (offers, data int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.offers, t.data
}

// patientCfg is fastCfg with timers no healthy run reaches, so that
// every frame a test counts was sent for the reason it is about.
func patientCfg() Config {
	cfg := fastCfg()
	cfg.WindowTimeout = 5 * time.Second
	cfg.NackDelay = 2 * time.Second
	return cfg
}

// TestPushRecoversOfferOvertakenOrLost: a push whose offer reaches the
// receiver after the first window of data, or never, still delivers
// every byte. Each packet that came first is answered NotFound; the
// sender offers once more and re-blasts the window once: one extra
// offer, at most one extra window of data, and the other windows as
// they would have gone.
func TestPushRecoversOfferOvertakenOrLost(t *testing.T) {
	for _, tc := range []struct {
		name string
		fate offerFate
	}{{"overtaken", overtake}, {"lost", lose}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := patientCfg()
			seg := usocket.NewSegment()
			tap := &senderTap{Transport: host(t, seg, "a"), fate: tc.fate, window: cfg.RecvWindow}
			a, b := NewEndpoint(tap, cfg, nil), NewEndpoint(host(t, seg, "b"), cfg, nil)
			t.Cleanup(func() { a.Close(); b.Close() })

			data := pattern(50<<10, 7)
			if got := sendAndRecv(t, a, b, data); !bytes.Equal(got, data) {
				t.Fatal("transfer corrupted")
			}
			npkts := (len(data) + a.ChunkSize() - 1) / a.ChunkSize()
			offers, frames := tap.counts()
			t.Logf("%d offers, %d data frames for %d packets", offers, frames, npkts)
			if offers != 2 {
				t.Errorf("%d offers sent, want 2", offers)
			}
			if extra := frames - npkts; extra < 1 || extra > cfg.RecvWindow {
				t.Errorf("%d data frames for %d packets: %d extra, want 1 to one window (%d)", frames, npkts, extra, cfg.RecvWindow)
			}
		})
	}
}

// TestEagerSenderStopsOnNotFound: an eager transfer whose receiver holds
// no registration for it — the reader gave up — is answered NotFound by
// its first packets, and the sender stops with ErrRejected after that
// one window: no offer, no re-blast.
func TestEagerSenderStopsOnNotFound(t *testing.T) {
	cfg := patientCfg()
	seg := usocket.NewSegment()
	tap := &senderTap{Transport: host(t, seg, "a")}
	a, b := NewEndpoint(tap, cfg, nil), NewEndpoint(host(t, seg, "b"), cfg, nil)
	t.Cleanup(func() { a.Close(); b.Close() })

	err := a.SendBulkEager(b.LocalAddr(), b.NextTransferID(), pattern(50<<10, 8), a.ChunkSize(), cfg.RecvWindow)
	if !errors.Is(err, ErrRejected) || !bytes.Contains([]byte(err.Error()), []byte(wire.StatusNotFound.String())) {
		t.Fatalf("SendBulkEager to a receiver that gave up = %v, want ErrRejected naming %v", err, wire.StatusNotFound)
	}
	if offers, frames := tap.counts(); offers != 0 || frames != cfg.RecvWindow {
		t.Errorf("sent %d offers and %d data frames, want 0 and one window (%d)", offers, frames, cfg.RecvWindow)
	}
}
