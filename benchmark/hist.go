package main

import (
	"math/bits"
	"time"
)

// histogram is a log-bucket latency histogram over nanoseconds: 128
// sub-buckets per power of two, so a bucket is at most 1/128 (0.8 %)
// of its lower bound wide and a percentile read from it is within 1 %.
// Values below 128 ns get a bucket each. Not safe for concurrent use:
// every reader goroutine fills its own and the driver merges them.
type histogram struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// 64-bit values need (64-histSubBits) octaves above the exact range.
	histBuckets = (64 - histSubBits + 1) * histSub
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - histSubBits - 1 // v>>exp is in [histSub, 2*histSub)
	return (exp+1)*histSub + int(v>>uint(exp)) - histSub
}

// histBounds returns the half-open value range [lo, lo+width) of bucket i.
func histBounds(i int) (lo, width uint64) {
	if i < histSub {
		return uint64(i), 1
	}
	exp := uint(i/histSub - 1)
	return uint64(histSub+i%histSub) << exp, 1 << exp
}

func (h *histogram) add(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[histIndex(v)]++
	h.n++
	h.sum += v
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile in nanoseconds, interpolated by rank
// inside the bucket it falls in; 0 for an empty histogram.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if next := cum + float64(c); next >= rank {
			lo, width := histBounds(i)
			return float64(lo) + (rank-cum)/float64(c)*float64(width)
		} else {
			cum = next
		}
	}
	return float64(h.sum) / float64(h.n) // unreachable: rank <= n
}

// us returns the q-quantile in microseconds.
func (h *histogram) us(q float64) float64 { return h.quantile(q) / 1e3 }

// meanUS returns the mean in microseconds.
func (h *histogram) meanUS() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n) / 1e3
}
