package experiments

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := mean(xs); m != 5 {
		t.Fatalf("Mean = %v", m)
	}
	if mean(nil) != 0 {
		t.Fatal("empty-input Mean should be 0")
	}
}

func TestCDFMonotone(t *testing.T) {
	xs := []float64{5, 1, 3, 3, 9, 2, 8, 7}
	c := newCDF(xs)
	if len(c.x) != 21 || len(c.p) != 21 {
		t.Fatalf("CDF size wrong")
	}
	for i := 1; i < len(c.p); i++ {
		if c.p[i] < c.p[i-1] {
			t.Fatalf("CDF not monotone at %d", i)
		}
		if c.x[i] < c.x[i-1] {
			t.Fatalf("CDF X not sorted at %d", i)
		}
	}
	if c.p[len(c.p)-1] < 1-1e-12 {
		t.Fatalf("CDF does not reach 1: %v", c.p[len(c.p)-1])
	}
}

func TestCDFProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		c := newCDF(xs)
		for i := 1; i < len(c.p); i++ {
			if c.p[i] < c.p[i-1] || c.p[i] > 1 || c.p[i] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableAlignment(t *testing.T) {
	out := table([]string{"name", "value"}, [][]string{
		{"a", "1"},
		{"longer-name", "2.5"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Fatalf("header wrong: %q", lines[0])
	}
	// All rows align: the value column starts at the same offset.
	idx := strings.Index(lines[0], "value")
	if !strings.HasPrefix(lines[3][idx:], "2.5") {
		t.Fatalf("misaligned row: %q", lines[3])
	}
}

func TestSeriesTable(t *testing.T) {
	xs := []float64{0.5, 1.0}
	series := []curve{
		{name: "A", y: []float64{0.1, 0.2}},
		{name: "B", y: []float64{0.3}},
	}
	out := seriesTable("deadline", xs, series, 2)
	if !strings.Contains(out, "deadline") || !strings.Contains(out, "0.30") {
		t.Fatalf("series table missing content:\n%s", out)
	}
	// Missing trailing point renders as "-".
	if !strings.Contains(out, "-") {
		t.Fatalf("short series not padded:\n%s", out)
	}
}

func TestFloat(t *testing.T) {
	if ftoa(1.23456, 2) != "1.23" {
		t.Fatalf("ftoa formatting wrong")
	}
}
