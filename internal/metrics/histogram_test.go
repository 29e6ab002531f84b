package metrics

import (
	"math"
	"testing"
)

func TestHistogramQuantilesTrackStream(t *testing.T) {
	var h Histogram
	var s Stream
	// Deterministic log-uniform-ish spread from 10 µs to ~10 s.
	x := 0.01
	for i := 0; i < 5000; i++ {
		v := x * (1 + float64(i%7)/10)
		h.Add(v)
		s.Add(v)
		x *= 1.0028
		if x > 1e4 {
			x = 0.01
		}
	}
	if h.n != int64(s.N()) {
		t.Fatalf("N = %d vs %d", h.n, s.N())
	}
	if h.min != s.Percentile(0) || h.Max() != s.Percentile(100) {
		t.Fatalf("min/max = %v/%v vs %v/%v", h.min, h.Max(), s.Percentile(0), s.Percentile(100))
	}
	for _, p := range []float64{0, 10, 50, 90, 99, 99.9, 100} {
		hq, sq := h.Quantile(p), s.Percentile(p)
		// Log-bucketed sketch: bounded relative error.
		if sq > 0 && math.Abs(hq-sq)/sq > 0.10 {
			t.Fatalf("p%v: histogram %v vs exact %v (>10%% off)", p, hq, sq)
		}
	}
}

func TestHistogramEdges(t *testing.T) {
	var h Histogram
	if h.Quantile(50) != 0 || h.Max() != 0 || h.n != 0 {
		t.Fatalf("empty histogram not zero-valued")
	}
	h.Add(0)    // underflow bucket
	h.Add(1e-9) // underflow bucket
	h.Add(1e12) // overflow bucket
	if h.n != 3 {
		t.Fatalf("N = %d", h.n)
	}
	if q := h.Quantile(100); q != 1e12 {
		t.Fatalf("p100 = %v, want exact max", q)
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("p0 = %v, want clamped min", q)
	}
}
