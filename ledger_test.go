package ams

import (
	"encoding/json"
	"fmt"
	"maps"
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
// command, runs and medians; from BENCH_46 on, every medians key is a
// workload BENCHMARK.json names and carries every end-to-end metric on
// both sides. Under -v it logs the ledger: per workload and metric, each
// PR's change median.
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
		t.Log("change medians per PR:\n" + ledgerTable(ledger, man))
	}
}

// ledgerTable renders one row per workload and end-to-end metric and one
// column per PR: that PR's change median, "-" where its file has none.
func ledgerTable(ledger []ledgerEntry, man benchmarkManifest) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "workload\tmetric\t")
	for _, e := range ledger {
		fmt.Fprintf(tw, "PR %d\t", e.pr)
	}
	fmt.Fprintln(tw)
	for _, w := range man.Workloads {
		for _, m := range man.EndToEnd {
			fmt.Fprintf(tw, "%s\t%s\t", w.Name, m.Name)
			for _, e := range ledger {
				if c := e.medians[w.Name][m.Name].Change; c != nil {
					fmt.Fprintf(tw, "%.4g\t", *c)
				} else {
					fmt.Fprint(tw, "-\t")
				}
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
	return sb.String()
}
