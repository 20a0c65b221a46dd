package main

import (
	"math"
	"math/bits"
	"slices"
	"time"
)

// hist is a log-linear latency histogram over nanoseconds: exact below
// 1024 ns, then 512 sub-buckets per power of two (under 0.2% relative
// error), so percentiles of millions of samples cost fixed memory.
type hist struct {
	counts []uint64
	n      uint64
}

const histSubBits = 9

func histIndex(v uint64) int {
	e := bits.Len64(v) - (histSubBits + 1)
	if e <= 0 {
		return int(v)
	}
	return e<<histSubBits + int(v>>uint(e))
}

// histValue is the midpoint of bucket i.
func histValue(i int) float64 {
	if i < 2<<histSubBits {
		return float64(i)
	}
	e := i>>histSubBits - 1
	lo := uint64(i-e<<histSubBits) << uint(e)
	return float64(lo) + float64(uint64(1)<<uint(e))/2
}

func (h *hist) add(d time.Duration) {
	v := uint64(max(d, 0))
	i := histIndex(v)
	if i >= len(h.counts) {
		h.counts = slices.Grow(h.counts, i+1-len(h.counts))[:i+1]
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	if len(o.counts) > len(h.counts) {
		h.counts = slices.Grow(h.counts, len(o.counts)-len(h.counts))[:len(o.counts)]
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile in nanoseconds (0 when
// empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	rank = max(rank, 1)
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return histValue(i)
		}
	}
	return histValue(len(h.counts) - 1)
}

// quantileOf returns the nearest-rank q-quantile of xs (0 when empty);
// xs is sorted in place.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
