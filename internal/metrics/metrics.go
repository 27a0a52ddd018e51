// Package metrics provides the small statistics and text-formatting
// helpers the experiment harness uses to report paper-style tables and
// series: means, empirical CDFs, and aligned-column rendering.
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// CDF is an empirical cumulative distribution sampled at fixed points.
type CDF struct {
	X []float64 // sample points (ascending)
	P []float64 // P(value <= X[i])
}

// NewCDF evaluates the empirical CDF of xs at n evenly spaced points
// between min and max.
func NewCDF(xs []float64, n int) CDF {
	if len(xs) == 0 || n < 2 {
		panic("metrics: CDF needs samples and at least 2 points")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	c := CDF{X: make([]float64, n), P: make([]float64, n)}
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		c.X[i] = x
		c.P[i] = float64(sort.SearchFloat64s(s, x+1e-12)) / float64(len(s))
	}
	return c
}

// Series is one named curve (a line in a paper figure). The curves of
// one figure share the X axis SeriesTable takes as xs.
type Series struct {
	Name string
	Y    []float64
}

// Table renders rows of cells with aligned columns.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// SeriesTable renders several series sharing an X axis as one table with
// the X column first. All series must have the same length as xs.
func SeriesTable(xName string, xs []float64, series []Series, prec int) string {
	headers := append([]string{xName}, make([]string, len(series))...)
	for i, s := range series {
		headers[i+1] = s.Name
	}
	rows := make([][]string, len(xs))
	for r := range xs {
		row := make([]string, len(series)+1)
		row[0] = fmt.Sprintf("%.*f", prec, xs[r])
		for i, s := range series {
			if r < len(s.Y) {
				row[i+1] = fmt.Sprintf("%.*f", prec, s.Y[r])
			} else {
				row[i+1] = "-"
			}
		}
		rows[r] = row
	}
	return Table(headers, rows)
}

// Float formats a float compactly for table cells.
func Float(x float64, prec int) string { return fmt.Sprintf("%.*f", prec, x) }
