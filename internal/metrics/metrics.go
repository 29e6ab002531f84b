// Package metrics provides the small statistics toolkit used by the
// NiLiCon evaluation harness: a running mean, exact percentiles over
// retained samples, histograms, counters, and a fixed-width text table
// renderer for reproducing the paper's tables.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Stream keeps a running mean and retains the raw samples so exact
// percentiles can be computed. The zero value is ready to use.
type Stream struct {
	n       int
	mean    float64
	samples []float64
}

// Add records one sample.
func (s *Stream) Add(x float64) {
	s.n++
	s.mean += (x - s.mean) / float64(s.n)
	s.samples = append(s.samples, x)
}

// N returns the number of samples.
func (s *Stream) N() int { return s.n }

// Mean returns the sample mean (0 for an empty stream).
func (s *Stream) Mean() float64 { return s.mean }

// Sum returns the total of all samples.
func (s *Stream) Sum() float64 { return s.mean * float64(s.n) }

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. Empty streams return 0.
func (s *Stream) Percentile(p float64) float64 {
	if s.n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := s.Samples()
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Samples returns a copy of the retained raw samples in insertion order.
func (s *Stream) Samples() []float64 {
	return append([]float64(nil), s.samples...)
}

// Counter is a monotonically increasing tally.
type Counter struct{ v int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v++ }

// Value returns the current tally.
func (c *Counter) Value() int64 { return c.v }

// Table renders rows of labeled values as fixed-width text, used to print
// the paper's tables from the harness and the CLI.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// pad clips or extends a row to the header count.
func (t *Table) pad(cells []string) []string {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	return row
}

// AddRow appends a row; cells beyond the header count are dropped and
// missing cells are rendered empty.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, t.pad(cells))
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	total += 2 * (len(widths) - 1)
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// FormatBytes renders a byte count the way the paper does (53.1K, 9.5M).
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fM", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fK", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// FormatCount renders a count with K/M suffixes (6.2K pages).
func FormatCount(n int64) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.1fK", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}
