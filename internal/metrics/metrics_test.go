package metrics

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestStreamEmpty(t *testing.T) {
	var s Stream
	if s.N() != 0 || s.Mean() != 0 || s.Percentile(100) != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty stream should report zeros")
	}
}

func TestStreamSingleSample(t *testing.T) {
	var s Stream
	s.Add(7)
	if s.Mean() != 7 || s.N() != 1 {
		t.Fatalf("single-sample stats wrong: mean=%v n=%v", s.Mean(), s.N())
	}
	if s.Percentile(0) != 7 || s.Percentile(100) != 7 {
		t.Fatal("single-sample percentiles should equal the sample")
	}
}

func TestStreamMeanVariance(t *testing.T) {
	var s Stream
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if !almostEq(s.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v, want 5", s.Mean())
	}
	if !almostEq(s.Sum(), 40, 1e-9) {
		t.Fatalf("sum = %v, want 40", s.Sum())
	}
}

func TestStreamMinMax(t *testing.T) {
	var s Stream
	for _, x := range []float64{3, -1, 10, 2} {
		s.Add(x)
	}
	if s.Percentile(0) != -1 || s.Percentile(100) != 10 {
		t.Fatalf("min/max = %v/%v, want -1/10", s.Percentile(0), s.Percentile(100))
	}
}

func TestPercentileInterpolation(t *testing.T) {
	var s Stream
	for _, x := range []float64{10, 20, 30, 40} {
		s.Add(x)
	}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {50, 25},
		{25, 17.5}, {75, 32.5},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); !almostEq(got, c.want, 1e-9) {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileClampsRange(t *testing.T) {
	var s Stream
	s.Add(1)
	s.Add(2)
	if s.Percentile(-5) != 1 {
		t.Fatal("p<0 should clamp to min")
	}
	if s.Percentile(150) != 2 {
		t.Fatal("p>100 should clamp to max")
	}
}

func TestSamplesCopy(t *testing.T) {
	var s Stream
	s.Add(1)
	got := s.Samples()
	got[0] = 99
	if s.Samples()[0] != 1 {
		t.Fatal("Samples must return a copy")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	for i := 0; i < 5; i++ {
		c.Inc()
	}
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X", "Name", "Value")
	tb.AddRow("redis", "33.71%")
	tb.AddRow("node", "58.32")
	out := tb.String()
	if !strings.Contains(out, "Table X") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "redis") || !strings.Contains(out, "33.71%") {
		t.Errorf("row content missing:\n%s", out)
	}
	if !strings.Contains(out, "58.32") {
		t.Errorf("second row content missing:\n%s", out)
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d, want 2", tb.NumRows())
	}
}

func TestTableRowWidthMismatch(t *testing.T) {
	tb := NewTable("", "A", "B")
	tb.AddRow("only-one")
	tb.AddRow("x", "y", "dropped-extra")
	out := tb.String()
	if strings.Contains(out, "dropped-extra") {
		t.Error("extra cell should be dropped")
	}
	if !strings.Contains(out, "only-one") {
		t.Error("short row should render")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{512, "512B"},
		{54374, "53.1K"},
		{9961472, "9.5M"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.n); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestFormatCount(t *testing.T) {
	if got := FormatCount(6200); got != "6200" {
		t.Errorf("FormatCount(6200) = %q", got)
	}
	if got := FormatCount(62000); got != "62.0K" {
		t.Errorf("FormatCount(62000) = %q", got)
	}
	if got := FormatCount(3_100_000); got != "3.1M" {
		t.Errorf("FormatCount(3.1M) = %q", got)
	}
}

// Property: the running mean matches the two-pass computation.
func TestPropertyWelfordMatchesTwoPass(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var s Stream
		sum := 0.0
		for _, x := range clean {
			s.Add(x)
			sum += x
		}
		mean := sum / float64(len(clean))
		return almostEq(s.Mean(), mean, 1e-6*(1+math.Abs(mean)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(xs []float64, ps []uint8) bool {
		var s Stream
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			s.Add(x)
		}
		if s.N() == 0 {
			return true
		}
		pcts := make([]float64, 0, len(ps))
		for _, p := range ps {
			pcts = append(pcts, float64(p%101))
		}
		sort.Float64s(pcts)
		prev, hi := math.Inf(-1), slices.Max(s.Samples())
		for _, p := range pcts {
			v := s.Percentile(p)
			if v < prev || v < s.Percentile(0)-1e-9 || v > hi+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
