package spec

import (
	"math"
	"testing"
)

// TestSpreadMatchesPython pins Spread to the values Python's
// statistics.quantiles(xs, n=4) and statistics.median give.
func TestSpreadMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{10, 20, 30, 40}, 1.0},
		{[]float64{5, 1}, 2.0}, // extrapolates below the data, as Python does
		{[]float64{3.1, 2.7, 9.4, 4.4, 1.0, 8.8, 2.2, 6.5, 5.9, 7.3}, 0.9902912621359222},
		{[]float64{1, 1, 1, 2}, 0.75},
		{[]float64{7}, 0},
		{[]float64{-1, 1}, 0}, // zero median
	} {
		if got := Spread(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Spread(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if got := Median(xs); got != 2.5 {
		t.Fatalf("Median = %v, want 2.5", got)
	}
	if xs[0] != 3 || xs[3] != 10 {
		t.Fatalf("Median reordered its input: %v", xs)
	}
}

func TestMetricNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]Metric{EndToEnd, Extras, PerLayer} {
		for _, m := range list {
			if seen[m.Name] {
				t.Errorf("metric %q defined twice", m.Name)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
		}
	}
}
