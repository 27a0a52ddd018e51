package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// The statistics and text rendering of the paper-style tables and
// series: means, empirical CDFs and aligned columns.

// mean returns the arithmetic mean (0 for empty input).
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

// cdf is an empirical cumulative distribution sampled at fixed points.
type cdf struct {
	x []float64 // sample points (ascending)
	p []float64 // P(value <= x[i])
}

// newCDF evaluates the empirical CDF of xs at 21 evenly spaced points
// between min and max.
func newCDF(xs []float64) cdf {
	const n = 21
	if len(xs) == 0 {
		panic("experiments: CDF needs samples")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	c := cdf{x: make([]float64, n), p: make([]float64, n)}
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		c.x[i] = x
		c.p[i] = float64(sort.SearchFloat64s(s, x+1e-12)) / float64(len(s))
	}
	return c
}

// curve is one named line in a paper figure. The curves of one figure
// share the X axis seriesTable takes as xs.
type curve struct {
	name string
	y    []float64
}

// table renders rows of cells with aligned columns.
func table(headers []string, rows [][]string) string {
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

// seriesTable renders several curves sharing an X axis as one table with
// the X column first; a curve shorter than xs reads "-" past its end.
func seriesTable(xName string, xs []float64, series []curve, prec int) string {
	headers := append([]string{xName}, make([]string, len(series))...)
	for i, s := range series {
		headers[i+1] = s.name
	}
	rows := make([][]string, len(xs))
	for r := range xs {
		row := make([]string, len(series)+1)
		row[0] = fmt.Sprintf("%.*f", prec, xs[r])
		for i, s := range series {
			if r < len(s.y) {
				row[i+1] = fmt.Sprintf("%.*f", prec, s.y[r])
			} else {
				row[i+1] = "-"
			}
		}
		rows[r] = row
	}
	return table(headers, rows)
}

// ftoa formats a float with prec decimals for table cells.
func ftoa(x float64, prec int) string { return fmt.Sprintf("%.*f", prec, x) }
