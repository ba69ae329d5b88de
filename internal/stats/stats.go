// Package stats provides the small statistics and table-formatting toolkit
// used by the experiment harness: summary statistics, percentiles,
// histograms, least-squares fits and aligned text tables.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds the usual scalar statistics of a sample.
type Summary struct {
	N             int
	Mean, Std     float64
	Min, Max      float64
	P50, P95, P99 float64
}

// Summarize computes a Summary; it returns the zero value for empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	var varsum float64
	for _, x := range xs {
		d := x - s.Mean
		varsum += d * d
	}
	if s.N > 1 {
		s.Std = math.Sqrt(varsum / float64(s.N-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = Percentile(sorted, 0.50)
	s.P95 = Percentile(sorted, 0.95)
	s.P99 = Percentile(sorted, 0.99)
	return s
}

// Percentile returns the p-th percentile (p in [0,1]) of a sorted sample
// using nearest-rank interpolation.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// LinearFit fits y = a + b·x by least squares and returns (a, b, r²).
func LinearFit(x, y []float64) (a, b, r2 float64) {
	n := float64(len(x))
	if len(x) != len(y) || len(x) < 2 {
		return 0, 0, 0
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	_ = n
	if sxx == 0 {
		return my, 0, 0
	}
	b = sxy / sxx
	a = my - b*mx
	if syy == 0 {
		return a, b, 1
	}
	r2 = sxy * sxy / (sxx * syy)
	return a, b, r2
}

// Table accumulates rows and renders them with aligned columns, markdown
// style; it is the output format of every experiment.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column names.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; values are rendered with %v, floats with %.4g.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table as aligned markdown.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		sb.WriteString("|")
		for i := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&sb, " %-*s |", widths[i], c)
		}
		sb.WriteString("\n")
	}
	writeRow(t.header)
	sb.WriteString("|")
	for _, w := range widths {
		sb.WriteString(strings.Repeat("-", w+2))
		sb.WriteString("|")
	}
	sb.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values (no quoting; callers use
// numeric and identifier-like cells only).
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.header, ","))
	sb.WriteString("\n")
	for _, row := range t.rows {
		sb.WriteString(strings.Join(row, ","))
		sb.WriteString("\n")
	}
	return sb.String()
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }
