// Package metrics provides the small statistics toolkit used by the
// NiLiCon evaluation harness: streaming mean/variance (Welford), exact
// percentiles over retained samples, coefficient of variation, and a
// fixed-width text table renderer for reproducing the paper's tables.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Stream accumulates samples with Welford's online algorithm and also
// retains the raw samples so exact percentiles can be computed. The
// samples are kept in blocks that double from 16 up to streamBlock
// samples, so a long stream never copies its samples to grow. The zero
// value is ready to use.
type Stream struct {
	n      int
	mean   float64
	m2     float64
	min    float64
	max    float64
	blocks [][]float64
}

// streamBlock is the largest number of samples per block.
const streamBlock = 1024

// Add records one sample.
func (s *Stream) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
	last := len(s.blocks) - 1
	if last < 0 || len(s.blocks[last]) == cap(s.blocks[last]) {
		s.blocks = append(s.blocks, make([]float64, 0, min(streamBlock, max(16, s.n-1))))
		last++
	}
	s.blocks[last] = append(s.blocks[last], x)
}

// N returns the number of samples.
func (s *Stream) N() int { return s.n }

// Mean returns the sample mean (0 for an empty stream).
func (s *Stream) Mean() float64 { return s.mean }

// Sum returns the total of all samples.
func (s *Stream) Sum() float64 { return s.mean * float64(s.n) }

// Min returns the smallest sample (0 for an empty stream).
func (s *Stream) Min() float64 { return s.min }

// Max returns the largest sample (0 for an empty stream).
func (s *Stream) Max() float64 { return s.max }

// Variance returns the unbiased sample variance.
func (s *Stream) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Stream) Stddev() float64 { return math.Sqrt(s.Variance()) }

// CV returns the coefficient of variation (stddev/mean); 0 if mean is 0.
func (s *Stream) CV() float64 {
	if s.mean == 0 {
		return 0
	}
	return s.Stddev() / math.Abs(s.mean)
}

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
	out := make([]float64, 0, s.n)
	for _, b := range s.blocks {
		out = append(out, b...)
	}
	return out
}

// Reset clears the stream.
func (s *Stream) Reset() { *s = Stream{} }

// Counter is a monotonically increasing tally.
type Counter struct{ v int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v++ }

// Add adds n (n may not be negative).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: Counter.Add with negative value")
	}
	c.v += n
}

// Value returns the current tally.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a last-value-wins instrument for state that moves both ways
// (e.g. a lease state machine's current state). Unlike Counter it may be
// set to any value, including backwards. The zero value reads 0.
type Gauge struct{ v int64 }

// Set records the current value.
func (g *Gauge) Set(v int64) { g.v = v }

// Value returns the most recently set value.
func (g *Gauge) Value() int64 { return g.v }

// Table renders rows of labeled values as fixed-width text, used to print
// the paper's tables from the harness and the CLI.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
	keys    map[string]bool
	keyed   []keyedRow
}

type keyedRow struct {
	key   string
	cells []string
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

// AddRowf appends a row built from fmt.Sprint of each value.
func (t *Table) AddRowf(cells ...any) {
	s := make([]string, len(cells))
	for i, c := range cells {
		s[i] = fmt.Sprint(c)
	}
	t.AddRow(s...)
}

// AddKeyedRow appends a row owned by a unique key (a pair ID, an option
// set name). Two concurrent replicators reporting under the same key
// would silently interleave their rows in one table; a duplicate key is
// therefore an error, caught where the collision happens instead of in
// the rendered output. Keyed rows render sorted by key — after any
// unkeyed rows — so producers that complete in nondeterministic order
// still yield byte-identical tables.
func (t *Table) AddKeyedRow(key string, cells ...string) error {
	if t.keys == nil {
		t.keys = make(map[string]bool)
	}
	if t.keys[key] {
		return fmt.Errorf("metrics: duplicate table key %q", key)
	}
	t.keys[key] = true
	t.keyed = append(t.keyed, keyedRow{key: key, cells: t.pad(cells)})
	return nil
}

// HasKey reports whether a keyed row with the given key exists.
func (t *Table) HasKey(key string) bool { return t.keys[key] }

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) + len(t.keyed) }

// allRows returns the rows in render order: unkeyed rows in insertion
// order, then keyed rows sorted by key.
func (t *Table) allRows() [][]string {
	out := make([][]string, 0, len(t.rows)+len(t.keyed))
	out = append(out, t.rows...)
	keyed := make([]keyedRow, len(t.keyed))
	copy(keyed, t.keyed)
	sort.Slice(keyed, func(i, j int) bool { return keyed[i].key < keyed[j].key })
	for _, kr := range keyed {
		out = append(out, kr.cells)
	}
	return out
}

// String renders the table.
func (t *Table) String() string {
	rows := t.allRows()
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
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
	for _, r := range rows {
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

// FormatPercent renders a ratio as a percentage with two decimals.
func FormatPercent(ratio float64) string {
	return fmt.Sprintf("%.2f%%", ratio*100)
}
