package main

import (
	"math"
	"math/bits"
	"time"
)

// Latency histogram geometry: values below 2^histSub are exact; above, each
// power of two splits into 2^histSub linear sub-buckets, so a bucket is at
// most 1/128 (0.8 %) of its value wide. 2^42 ns (73 min) and above clamp to
// the last bucket.
const (
	histSub     = 7
	histSubN    = 1 << histSub
	histMaxExp  = 42 - histSub
	histBuckets = (histMaxExp + 2) * histSubN
)

// hist is a fixed-size log-linear histogram of non-negative values
// (nanoseconds or counts). Recording never allocates; one goroutine owns a
// hist while recording, and hists are merged after the timed phase.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    float64
	max    uint64
}

func histIndex(v uint64) int {
	if v < histSubN {
		return int(v)
	}
	exp := bits.Len64(v) - 1 - histSub // v >> exp is in [histSubN, 2*histSubN)
	if exp > histMaxExp {
		return histBuckets - 1
	}
	return exp*histSubN + int(v>>uint(exp))
}

// histBounds returns bucket i's lower bound and width.
func histBounds(i int) (lo, width float64) {
	if i < 2*histSubN {
		return float64(i), 1
	}
	exp := i/histSubN - 1
	sub := uint64(i%histSubN + histSubN)
	return float64(sub << uint(exp)), float64(uint64(1) << uint(exp))
}

func (h *hist) record(v uint64) {
	h.counts[histIndex(v)]++
	h.n++
	h.sum += float64(v)
	if v > h.max {
		h.max = v
	}
}

func (h *hist) recordDur(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.record(uint64(d))
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// quantile returns the nearest-rank q-quantile, interpolated linearly by
// rank inside its bucket, so it lies within one bucket width of the exact
// order statistic of the raw samples.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 || cum+c < rank {
			cum += c
			continue
		}
		lo, w := histBounds(i)
		v := lo + w*(float64(rank-cum)-0.5)/float64(c)
		if v > float64(h.max) {
			v = float64(h.max)
		}
		return v
	}
	return float64(h.max)
}

// reportable says whether the q-quantile of n samples has at least ten
// samples beyond it; a percentile with fewer is not a tail and is not
// reported.
func reportable(q float64, n uint64) bool {
	return (1-q)*float64(n) >= 10
}
