package main

import (
	"math"
	"slices"
)

// Histogram geometry: every power-of-two octave from 2^minExp to
// 2^(minExp+octaves) is split into subBuckets equal-width buckets, so a
// recorded value is known to within 1/subBuckets (1.6%) of itself no
// matter how many values are recorded.  Bucket 0 holds everything below
// 2^minExp, zero included.  The benchmark records µs, ns, ms and bytes,
// all of which fall well inside that range.
const (
	subBuckets = 64
	minExp     = -20
	octaves    = 64
	nBuckets   = 1 + octaves*subBuckets
)

// exactUpTo is how many observations a hist also keeps verbatim.  Up to
// that count quantiles are exact; past it they come from the buckets.
const exactUpTo = 4096

// hist is a mergeable log-linear histogram with bounded memory, used for
// every distribution the benchmark reports: per-request round trips
// (millions per run), per-unit times and set-up times (a handful), and
// the per-call timings of the tracing decorators.  Small sets are
// summarized exactly; large ones interpolate within a bucket, clamped
// to the observed minimum and maximum.  The runtime's own internal/hist
// has power-of-two buckets, too coarse to see a 10% change.
type hist struct {
	N      uint64    `json:"n"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Counts []uint64  `json:"counts,omitempty"`
	Exact  []float64 `json:"exact,omitempty"` // every observation while N <= exactUpTo
}

func bucketOf(v float64) int {
	if v < math.Ldexp(1, minExp) {
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac·2^exp, frac in [0.5, 1)
	oct := exp - 1 - minExp
	if oct >= octaves {
		return nBuckets - 1
	}
	return 1 + oct*subBuckets + int((2*frac-1)*subBuckets)
}

// bucketBounds returns bucket b's value range [lo, hi).
func bucketBounds(b int) (lo, hi float64) {
	if b == 0 {
		return 0, math.Ldexp(1, minExp)
	}
	oct, sub := (b-1)/subBuckets, (b-1)%subBuckets
	width := math.Ldexp(1, minExp+oct) / subBuckets
	lo = math.Ldexp(1, minExp+oct) + float64(sub)*width
	return lo, lo + width
}

// Observe records v; negative values count as zero.
func (h *hist) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	if h.Counts == nil {
		h.Counts = make([]uint64, nBuckets)
	}
	if h.N == 0 || v < h.Min {
		h.Min = v
	}
	if h.N == 0 || v > h.Max {
		h.Max = v
	}
	h.N++
	h.Counts[bucketOf(v)]++
	h.keepExact(v)
}

// keepExact records v verbatim while the set is small enough, and drops
// the verbatim copy once it is not.
func (h *hist) keepExact(vs ...float64) {
	if h.N <= exactUpTo {
		h.Exact = append(h.Exact, vs...)
	} else {
		h.Exact = nil
	}
}

// Merge adds o's observations to h.
func (h *hist) Merge(o *hist) {
	if o.N == 0 {
		return
	}
	if h.Counts == nil {
		h.Counts = make([]uint64, nBuckets)
	}
	if h.N == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if h.N == 0 || o.Max > h.Max {
		h.Max = o.Max
	}
	h.N += o.N
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.keepExact(o.Exact...)
}

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation
// between order statistics, as numpy's default does.  Past exactUpTo
// observations each bucket's observations are taken as evenly spread
// across it.  It returns 0 when h is empty.
func (h *hist) Quantile(q float64) float64 {
	switch {
	case h.N == 0:
		return 0
	case q <= 0:
		return h.Min
	case q >= 1:
		return h.Max
	}
	rank := q * float64(h.N-1) // 0-based, fractional
	if uint64(len(h.Exact)) == h.N {
		xs := slices.Clone(h.Exact)
		slices.Sort(xs)
		i := int(rank)
		if i+1 == len(xs) {
			return xs[i]
		}
		return xs[i] + (rank-float64(i))*(xs[i+1]-xs[i])
	}
	var cum float64
	for b, c := range h.Counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			lo, hi := bucketBounds(b)
			v := lo + (rank-cum+0.5)/float64(c)*(hi-lo)
			return math.Min(math.Max(v, h.Min), h.Max)
		}
		cum += float64(c)
	}
	return h.Max
}
