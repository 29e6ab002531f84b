package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (0 for no samples). It sorts xs in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := p / 100 * float64(len(xs)-1)
	lo := int(rank)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := rank - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// maxOf returns the largest of xs (0 for none; every sample is >= 0).
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// tailLevels are the tail percentiles a latency report may use, highest
// first.
var tailLevels = []float64{99.9, 99, 95, 90}

// tailPercentile picks the highest percentile, no higher than want, that
// leaves at least ten of n samples beyond it: a percentile with fewer
// samples past it is a maximum in disguise. It returns 50 when n is too
// small for any tail level.
func tailPercentile(n int, want float64) float64 {
	for _, p := range tailLevels {
		if p > want {
			continue
		}
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 99.9 is inexact in binary
			return p
		}
	}
	return 50
}

// bisect searches the highest rate in [lo, hi] that passes, assuming
// pass is monotone (true below capacity, false above). It probes the
// geometric midpoint probes times, narrowing [lo, hi] each time, and
// returns the highest rate that passed (0 if none did) plus every probe
// in order. Geometric steps keep the relative resolution uniform over a
// range spanning a factor of 32.
func bisect(lo, hi float64, probes int, pass func(rate float64) bool) (best float64, tried []float64) {
	for i := 0; i < probes; i++ {
		mid := math.Round(math.Sqrt(lo * hi))
		tried = append(tried, mid)
		if pass(mid) {
			best, lo = mid, mid
		} else {
			hi = mid
		}
	}
	return best, tried
}
