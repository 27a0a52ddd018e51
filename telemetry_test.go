package ams

import (
	"math"
	"testing"
)

// TestParseSLO: the documented forms parse to a quantile in (0, 1) and a
// positive threshold; a quantile outside (0, 100) — NaN and infinity
// included — and a missing, zero or negative threshold are refused.
func TestParseSLO(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want SLOObjective // zero: the spec must be refused
	}{
		{"p99<250ms", SLOObjective{Name: "p99", Quantile: 0.99, ThresholdSec: 0.25}},
		{"name:p95<1s", SLOObjective{Name: "name", Quantile: 0.95, ThresholdSec: 1}},
		{"p99.9<2s", SLOObjective{Name: "p99.9", Quantile: 0.999, ThresholdSec: 2}},
		{"pNaN<1s", SLOObjective{}},
		{"pnan<1s", SLOObjective{}},
		{"slow:pNaN<1s", SLOObjective{}},
		{"pInf<1s", SLOObjective{}},
		{"p-Inf<1s", SLOObjective{}},
		{"p0<1s", SLOObjective{}},
		{"p100<1s", SLOObjective{}},
		{"p-5<1s", SLOObjective{}},
		{"p5e-324<1s", SLOObjective{}}, // a percentage that underflows to a 0 quantile
		{"p99", SLOObjective{}},
		{"99<1s", SLOObjective{}},
		{"p99<0s", SLOObjective{}},
		{"p99<-1s", SLOObjective{}},
		{"p99<fast", SLOObjective{}},
	} {
		got, err := ParseSLO(tc.spec)
		if tc.want == (SLOObjective{}) {
			if err == nil {
				t.Errorf("ParseSLO(%q) = %+v, want an error", tc.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSLO(%q): %v", tc.spec, err)
			continue
		}
		if got.Name != tc.want.Name || math.Abs(got.Quantile-tc.want.Quantile) > 1e-12 || got.ThresholdSec != tc.want.ThresholdSec {
			t.Errorf("ParseSLO(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
	// The spec that used to slip through would export NaN series and
	// break the JSON status snapshot: the server refuses it instead.
	if srv, err := testSys.NewServer(testAgent, ServeConfig{Workers: 1, DeadlineSec: 0.5, SLOs: []string{"pNaN<1s"}}); err == nil {
		srv.Close()
		t.Fatal("NewServer accepted the SLO pNaN<1s")
	}
}

// FuzzParseSLO: ParseSLO never panics, and every spec it accepts names
// its objective and carries a finite quantile in (0, 1) and a finite,
// positive threshold. The seeds live in testdata/fuzz/FuzzParseSLO.
func FuzzParseSLO(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		o, err := ParseSLO(spec)
		if err != nil {
			return
		}
		if o.Name == "" {
			t.Errorf("ParseSLO(%q) accepted an unnamed objective", spec)
		}
		if !(o.Quantile > 0 && o.Quantile < 1) {
			t.Errorf("ParseSLO(%q) accepted quantile %v, want it in (0, 1)", spec, o.Quantile)
		}
		if !(o.ThresholdSec > 0) || math.IsInf(o.ThresholdSec, 0) {
			t.Errorf("ParseSLO(%q) accepted threshold %v s, want finite and positive", spec, o.ThresholdSec)
		}
	})
}
