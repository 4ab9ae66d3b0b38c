package experiments

import (
	"fmt"
	"time"

	"dodo/internal/bulk"
	"dodo/internal/sim"
	"dodo/internal/simnet"
	"dodo/internal/usocket"
)

// NackRow compares loss recovery strategies for the bulk transfer
// protocol (§4.4) over a live lossy U-Net segment.
type NackRow struct {
	Mode        string // "selective-nack" or "full-window"
	LossRate    float64
	Transfers   int
	Bytes       int64
	WallTime    time.Duration
	Retransmits int64
	// RedundantBytes approximates wasted retransmission volume.
	RedundantBytes int64
}

// NackAblation runs real bulk transfers through a lossy segment with the
// selective NACK of §4.4 and with naive full-window retransmission,
// measuring the retransmission traffic each needs. clk times the runs
// and drives the protocol timers (sim.WallClock{} for real benchmarks).
func NackAblation(clk sim.Clock, lossRate float64, transfers int, transferBytes int, seed int64) ([]NackRow, error) {
	if clk == nil {
		clk = sim.WallClock{}
	}
	if lossRate <= 0 {
		lossRate = 0.05
	}
	if transfers <= 0 {
		transfers = 8
	}
	if transferBytes <= 0 {
		transferBytes = 256 << 10
	}
	cfg := bulk.Config{
		CallTimeout:     150 * time.Millisecond,
		CallRetries:     8,
		WindowTimeout:   60 * time.Millisecond,
		NackDelay:       20 * time.Millisecond,
		RecvWindow:      32,
		TransferRetries: 20,
		Clock:           clk,
	}
	var rows []NackRow
	for _, full := range []bool{false, true} {
		mode := "selective-nack"
		if full {
			mode = "full-window"
		}
		seg := usocket.NewSegment()
		seg.SetFaults(simnet.Faults{LossRate: lossRate, Seed: seed})
		sndTr, err := seg.Host("sender")
		if err != nil {
			return nil, err
		}
		rcvTr, err := seg.Host("receiver")
		if err != nil {
			_ = sndTr.Close()
			return nil, err
		}
		sndCfg := cfg
		sndCfg.RetransmitFullWindow = full
		snd := bulk.NewEndpoint(sndTr, sndCfg, nil)
		rcv := bulk.NewEndpoint(rcvTr, cfg, nil)

		data := make([]byte, transferBytes)
		start := clk.Now()
		for i := 0; i < transfers; i++ {
			id := snd.NextTransferID()
			errCh := make(chan error, 1)
			go func() {
				_, err := rcv.RecvBulk(snd.LocalAddr(), id, 60*time.Second)
				errCh <- err
			}()
			if err := snd.SendBulk(rcv.LocalAddr(), id, data); err != nil {
				_ = snd.Close()
				_ = rcv.Close()
				return nil, fmt.Errorf("experiments: %s transfer %d: %w", mode, i, err)
			}
			if err := <-errCh; err != nil {
				_ = snd.Close()
				_ = rcv.Close()
				return nil, fmt.Errorf("experiments: %s receive %d: %w", mode, i, err)
			}
		}
		wall := clk.Now().Sub(start)
		retrans, _, _ := snd.Stats()
		chunk := int64(snd.ChunkSize())
		_ = snd.Close()
		_ = rcv.Close()
		rows = append(rows, NackRow{
			Mode:           mode,
			LossRate:       lossRate,
			Transfers:      transfers,
			Bytes:          int64(transfers) * int64(transferBytes),
			WallTime:       wall,
			Retransmits:    retrans,
			RedundantBytes: retrans * chunk,
		})
	}
	return rows, nil
}

// TransportRow is one line of the UDP vs U-Net microbenchmark table.
type TransportRow struct {
	SizeBytes int
	UDPTime   time.Duration
	UNetTime  time.Duration
	Ratio     float64
}

// TransportMicro tabulates modeled round-trip times for the two
// substrates across the request sizes the evaluation uses.
func TransportMicro() []TransportRow {
	udp, unet := simnet.UDPFastEthernet(), simnet.UNetFastEthernet()
	var rows []TransportRow
	for _, size := range []int{64, 1024, 8 << 10, 32 << 10, 128 << 10, 512 << 10} {
		u, n := udp.RoundTrip(size), unet.RoundTrip(size)
		rows = append(rows, TransportRow{
			SizeBytes: size,
			UDPTime:   u,
			UNetTime:  n,
			Ratio:     float64(u) / float64(n),
		})
	}
	return rows
}
