package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// readRecords loads an -out file: one JSON record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// series collects one metric's values over the runs of one workload.
func series(recs []record, workload, metric string) []float64 {
	var vals []float64
	for _, rec := range recs {
		if v, ok := rec.Metrics[metric]; ok && rec.Workload == workload {
			vals = append(vals, v.Value)
		}
	}
	return vals
}

// Verdicts of judge.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge applies the benchmark's rule to one (metric, workload) pair:
// set b may be worse than set a by at most the bound, medians compared.
// Where either set's own spread is wider than the bound the pair is
// unresolved rather than unchanged, unless every run of b reads better
// than every run of a.
func judge(m metric, a, b []float64) (ratio float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		ratio = mb / ma
	}
	worse := mb - ma // positive when b is worse
	if m.Better == higher {
		worse = ma - mb
	}
	if ma != 0 {
		worse /= math.Abs(ma)
	}
	if max(quartileSpread(a), quartileSpread(b)) > m.Bound {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if (m.Better == higher && y <= x) || (m.Better == lower && y >= x) {
					allBetter = false
				}
			}
		}
		if allBetter {
			return ratio, verdictOK
		}
		return ratio, verdictUnresolved
	}
	if worse > m.Bound {
		return ratio, verdictRegressed
	}
	return ratio, verdictOK
}

// compareFiles prints, per (metric, workload), both medians with their
// spreads, the ratio with its base, the bound and the verdict; layer
// metrics have no bound and are listed for reading only. It reports
// whether any pair regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base a = %s, b = %s; ratio is b/a of the medians; spread is (Q3-Q1)/median\n", pathA, pathB)
	fmt.Fprintf(w, "%-16s %-30s %14s %8s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "median a", "spread", "median b", "spread", "b/a", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := series(a, wl.Name, m.Name), series(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ratio, verdict := judge(m, va, vb)
			if verdict == verdictRegressed {
				regressed = true
			}
			fmt.Fprintf(w, "%-16s %-30s %14.4f %8.4f %14.4f %8.4f %8.4f %6.2f  %s (%d vs %d runs, %s is better)\n",
				wl.Name, m.Name, median(va), quartileSpread(va), median(vb), quartileSpread(vb), ratio, m.Bound,
				verdict, len(va), len(vb), m.Better)
		}
		for _, m := range perLayer {
			va, vb := series(a, wl.Name, m.Name), series(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ratio := 0.0
			if median(va) != 0 {
				ratio = median(vb) / median(va)
			}
			fmt.Fprintf(w, "%-16s %-30s %14.4f %8.4f %14.4f %8.4f %8.4f %6s  layer\n",
				wl.Name, m.Name, median(va), quartileSpread(va), median(vb), quartileSpread(vb), ratio, "-")
		}
	}
	return regressed, nil
}

// printTables renders the workload and metric tables as Markdown (the
// README's tables are this output).
func printTables(w io.Writer) {
	fmt.Fprintln(w, "| workload | items/rep | window | why |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, wl := range workloads {
		fmt.Fprintf(w, "| `%s` | %d | %d | %s |\n", wl.Name, wl.Items, wl.Window, wl.Why)
	}
	fmt.Fprintf(w, "\nDefault seed %d; system seed %d, %d images, %d training epoch(s), hidden width %d.\n\n",
		defaultSeed, systemSeed, systemImages, trainEpochs, hiddenWidth)
	fmt.Fprintln(w, "| end-to-end metric | unit | better | bound |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "| `%s` | %s | %s | %.2f |\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Fprintln(w, "\n| layer metric | unit | better | should move |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for _, m := range perLayer {
		fmt.Fprintf(w, "| `%s` | %s | %s | %s |\n", m.Name, m.Unit, m.Better, m.Moves)
	}
}
