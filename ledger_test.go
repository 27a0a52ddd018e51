package ams

import (
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"text/tabwriter"
)

// ledgerSchemaFrom is the first PR whose BENCH file follows the schema
// TestLedger enforces: medians keyed by the workloads BENCHMARK.json
// names, each holding every end-to-end metric on both sides. Older files
// are read for what they hold.
const ledgerSchemaFrom = 46

// ledgerEntry is what TestLedger reads of one BENCH_<pr>.json: the
// required keys, and the medians decoded as far as the file's shape
// allows. Every other key (order, host, claim, pairs, history, extra,
// traced, failed, unresolved, *_note, ...) is left alone.
type ledgerEntry struct {
	file    string
	pr      int
	medians map[string]map[string]ledgerSide // workload -> metric -> medians
	keys    []string                         // the medians object's own keys
	runs    map[string]ledgerRuns            // workload -> runs, from ledgerSchemaFrom on
}

// ledgerRuns is one workload's runs on each side of a comparison.
type ledgerRuns struct {
	Parent []ledgerRun `json:"parent"`
	Change []ledgerRun `json:"change"`
}

// ledgerRun is what the ledger reads of one run: its seed and metrics.
type ledgerRun struct {
	Seed    int                                `json:"seed"`
	Trace   bool                               `json:"trace"`
	Metrics map[string]struct{ Value float64 } `json:"metrics"`
}

// ledgerSide is one metric's median on each side of a comparison.
type ledgerSide struct {
	Parent *float64 `json:"parent"`
	Change *float64 `json:"change"`
}

// readLedger loads every BENCH_*.json at the repository root, requiring
// the keys every ledger file has carried since the first.
func readLedger(t *testing.T) []ledgerEntry {
	t.Helper()
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	var ledger []ledgerEntry
	for _, f := range files {
		e, err := readLedgerFile(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		ledger = append(ledger, e)
	}
	slices.SortFunc(ledger, func(a, b ledgerEntry) int { return a.pr - b.pr })
	return ledger
}

func readLedgerFile(path string) (ledgerEntry, error) {
	e := ledgerEntry{file: path}
	b, err := os.ReadFile(path)
	if err != nil {
		return e, err
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		return e, err
	}
	for _, key := range []string{"pr", "parent", "command", "runs", "medians"} {
		if _, ok := top[key]; !ok {
			return e, fmt.Errorf("no %q key", key)
		}
	}
	var parent string
	if err := json.Unmarshal(top["pr"], &e.pr); err != nil {
		return e, fmt.Errorf("pr: %v", err)
	}
	if err := json.Unmarshal(top["parent"], &parent); err != nil || parent == "" {
		return e, fmt.Errorf("parent %s: want a commit", top["parent"])
	}
	if want := fmt.Sprintf("BENCH_%d.json", e.pr); filepath.Base(path) != want {
		return e, fmt.Errorf("pr %d belongs in %s", e.pr, want)
	}
	var medians map[string]json.RawMessage
	if err := json.Unmarshal(top["medians"], &medians); err != nil {
		return e, fmt.Errorf("medians: %v", err)
	}
	e.medians = make(map[string]map[string]ledgerSide)
	e.keys = slices.Sorted(maps.Keys(medians))
	for _, k := range e.keys {
		var metrics map[string]ledgerSide
		if err := json.Unmarshal(medians[k], &metrics); err == nil && hasSides(metrics) {
			e.medians[k] = metrics
			continue
		}
		// An older file may group workloads one level deeper (BENCH_33's
		// round1/round2); a later group's medians replace an earlier's.
		var group map[string]map[string]ledgerSide
		if err := json.Unmarshal(medians[k], &group); err != nil {
			return e, fmt.Errorf("medians[%q]: neither a workload's metrics nor a group of workloads", k)
		}
		for w, metrics := range group {
			e.medians[w] = metrics
		}
	}
	if e.pr >= ledgerSchemaFrom {
		if err := json.Unmarshal(top["runs"], &e.runs); err != nil {
			return e, fmt.Errorf("runs: %v", err)
		}
	}
	return e, nil
}

// hasSides reports whether a decoded metrics object holds at least one
// parent or change median: a workload's, not a group of workloads.
func hasSides(metrics map[string]ledgerSide) bool {
	for _, s := range metrics {
		if s.Parent != nil || s.Change != nil {
			return true
		}
	}
	return false
}

// benchmarkManifest is what the ledger needs of BENCHMARK.json.
type benchmarkManifest struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
}

// TestLedger reads every BENCH_*.json. Every file carries pr, parent,
// command, runs and medians; from BENCH_46 on, runs holds each
// workload's parent and change runs, and every medians key is a workload
// BENCHMARK.json names and carries every end-to-end metric on both
// sides. Under -v it logs the ledger: per workload and metric, each PR's
// change median, then from BENCH_46 on each PR's change/parent median
// ratio and their product, and each PR's seed-matched pairs that read
// higher and lower with the sign test's two-sided p-value.
func TestLedger(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man benchmarkManifest
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	ledger := readLedger(t)
	if len(ledger) == 0 {
		t.Fatal("no BENCH_*.json files")
	}
	for _, e := range ledger {
		if e.pr < ledgerSchemaFrom {
			continue
		}
		for _, k := range e.keys {
			if !slices.ContainsFunc(man.Workloads, func(w struct{ Name string }) bool { return w.Name == k }) {
				t.Errorf("%s: medians key %q is not a workload of BENCHMARK.json", e.file, k)
				continue
			}
			for _, m := range man.EndToEnd {
				if s := e.medians[k][m.Name]; s.Parent == nil || s.Change == nil {
					t.Errorf("%s: %s.%s lacks a parent or change median", e.file, k, m.Name)
				}
			}
		}
	}
	if testing.Verbose() {
		paired := slices.DeleteFunc(slices.Clone(ledger), func(e ledgerEntry) bool { return e.pr < ledgerSchemaFrom })
		t.Log("change medians per PR:\n" + ledgerTable(man, prColumns(ledger), func(w, m string) []string {
			return perPR(ledger, func(e ledgerEntry) string {
				if c := e.medians[w][m].Change; c != nil {
					return fmt.Sprintf("%.4g", *c)
				}
				return ""
			})
		}))
		t.Log("change/parent median ratio per PR, chained:\n" + ledgerTable(man, append(prColumns(paired), "chained"), func(w, m string) []string {
			chain := 1.0
			row := perPR(paired, func(e ledgerEntry) string {
				s := e.medians[w][m]
				if s.Parent == nil || s.Change == nil || *s.Parent == 0 {
					return ""
				}
				r := *s.Change / *s.Parent
				chain *= r
				return fmt.Sprintf("%.3f", r)
			})
			return append(row, fmt.Sprintf("%.3f", chain))
		}))
		t.Log("seed-matched pairs higher/lower per PR, two-sided sign-test p:\n" + ledgerTable(man, prColumns(paired), func(w, m string) []string {
			return perPR(paired, func(e ledgerEntry) string {
				hi, lo := pairSigns(e.runs[w], m)
				return fmt.Sprintf("%d/%d p=%.2g", hi, lo, signTestP(hi, lo))
			})
		}))
	}
}

// pairSigns counts the seed-matched untraced pairs whose change run read
// metric m higher and lower than the parent's; ties count in neither.
func pairSigns(runs ledgerRuns, m string) (hi, lo int) {
	parent := map[int]float64{}
	for _, r := range runs.Parent {
		if v, ok := r.Metrics[m]; ok && !r.Trace {
			parent[r.Seed] = v.Value
		}
	}
	for _, r := range runs.Change {
		p, paired := parent[r.Seed]
		if v, ok := r.Metrics[m]; ok && paired && !r.Trace {
			switch {
			case v.Value > p:
				hi++
			case v.Value < p:
				lo++
			}
		}
	}
	return hi, lo
}

// signTestP is the exact two-sided sign-test p-value of hi pairs higher
// and lo lower under a fair coin: twice the smaller tail, at most 1.
func signTestP(hi, lo int) float64 {
	n, k := hi+lo, min(hi, lo)
	tail, c := 0.0, 1.0 // c is n choose i
	for i := 0; i <= k; i++ {
		tail += c
		c = c * float64(n-i) / float64(i+1)
	}
	return min(1, 2*tail/math.Pow(2, float64(n)))
}

// prColumns heads one column per PR.
func prColumns(ledger []ledgerEntry) []string {
	cols := make([]string, len(ledger))
	for i, e := range ledger {
		cols[i] = fmt.Sprintf("PR %d", e.pr)
	}
	return cols
}

// perPR renders one cell per PR.
func perPR(ledger []ledgerEntry, cell func(ledgerEntry) string) []string {
	row := make([]string, len(ledger))
	for i, e := range ledger {
		row[i] = cell(e)
	}
	return row
}

// ledgerTable renders one row per workload and end-to-end metric, its
// cells under the given column heads; an empty cell reads "-".
func ledgerTable(man benchmarkManifest, cols []string, row func(workload, metric string) []string) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "workload\tmetric\t%s\t\n", strings.Join(cols, "\t"))
	for _, w := range man.Workloads {
		for _, m := range man.EndToEnd {
			fmt.Fprintf(tw, "%s\t%s\t", w.Name, m.Name)
			for _, c := range row(w.Name, m.Name) {
				fmt.Fprintf(tw, "%s\t", cmp.Or(c, "-"))
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
	return sb.String()
}

// TestSignTestP pins the sign test against exact binomial tails.
func TestSignTestP(t *testing.T) {
	for _, c := range []struct {
		hi, lo int
		want   float64
	}{
		{0, 0, 1}, {3, 0, 0.25}, {0, 10, 2.0 / 1024}, {9, 1, 22.0 / 1024}, {2, 8, 112.0 / 1024}, {5, 5, 1},
	} {
		if got := signTestP(c.hi, c.lo); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("signTestP(%d, %d) = %v, want %v", c.hi, c.lo, got, c.want)
		}
	}
}
