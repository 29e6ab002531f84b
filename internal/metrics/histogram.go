package metrics

import "math"

// Histogram is a fixed-layout, log-bucketed distribution sketch for
// per-request latencies. Stream retains every raw sample, which is the
// right trade for a few thousand harness measurements but not for an
// open-loop traffic replay recording one latency per request across
// thousands of clients and hundreds of SLO windows; Histogram records in
// O(1) space per window with a bounded relative quantile error.
//
// Buckets grow geometrically by 2^(1/8) (~9% per bucket, ~4.5% worst-case
// quantile error at the geometric midpoint) from histMin, with an
// underflow bucket below histMin and an overflow bucket above the top
// bound. Values are unit-agnostic float64s like Stream's; the traffic
// subsystem stores milliseconds, so the default layout spans 1 µs to
// ~80 s. Exact min/max/count are tracked alongside the buckets, and
// quantile results are clamped to [min, max]. The zero value is ready to
// use.
type Histogram struct {
	counts [histBuckets]int64
	n      int64
	min    float64
	max    float64
}

const (
	// histMin is the lower bound of bucket 1; values below it land in the
	// underflow bucket 0. In milliseconds this is 1 µs.
	histMin = 1e-3
	// histBuckets includes the underflow bucket 0, 270 geometric buckets,
	// and the overflow bucket.
	histBuckets = 272
)

// histGrowth is the per-bucket growth factor, 2^(1/8).
var histGrowth = math.Pow(2, 1.0/8)

// histBounds[i] is the exclusive upper bound of bucket i (the inclusive
// lower bound of bucket i+1); histBounds[histBuckets-2] is the top
// bound, above which values land in the overflow bucket.
var histBounds = func() [histBuckets - 1]float64 {
	var b [histBuckets - 1]float64
	v := histMin
	for i := range b {
		b[i] = v
		v *= histGrowth
	}
	return b
}()

// histBucket maps a value to its bucket index by binary search over the
// precomputed bounds, so bucketing is a pure function of the value with
// no per-call transcendental math.
func histBucket(v float64) int {
	if !(v >= histMin) { // NaN and underflow both land in bucket 0
		return 0
	}
	lo, hi := 0, len(histBounds) // invariant: v >= histBounds[lo-1]
	for lo < hi {
		mid := (lo + hi) / 2
		if v >= histBounds[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo // bucket i covers [histBounds[i-1], histBounds[i])
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.counts[histBucket(v)]++
	h.n++
	if h.n == 1 {
		h.min, h.max = v, v
		return
	}
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Max returns the largest sample (0 for an empty histogram).
func (h *Histogram) Max() float64 { return h.max }

// Quantile returns the p-th percentile (0 <= p <= 100) estimated by
// rank-walking the buckets and interpolating linearly inside the target
// bucket. Results are clamped to the exact observed [min, max]. Empty
// histograms return 0.
func (h *Histogram) Quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	// Closest-rank: the smallest bucket whose cumulative count reaches
	// ceil(p/100 * n), matching Stream.Percentile at the extremes.
	rank := int64(math.Ceil(p / 100 * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum < rank {
			continue
		}
		lo, hi := h.bucketBounds(i)
		// Interpolate by the rank's position among this bucket's samples.
		frac := float64(rank-(cum-c)) / float64(c)
		v := lo + (hi-lo)*frac
		if v < h.min {
			v = h.min
		}
		if v > h.max {
			v = h.max
		}
		return v
	}
	return h.max
}

// bucketBounds returns the value range a bucket covers, with the
// underflow bucket anchored at 0 and the overflow bucket at the exact
// observed max.
func (h *Histogram) bucketBounds(i int) (lo, hi float64) {
	switch {
	case i == 0:
		return 0, histMin
	case i == histBuckets-1:
		return histBounds[len(histBounds)-1], h.max
	default:
		return histBounds[i-1], histBounds[i]
	}
}
