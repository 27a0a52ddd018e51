// Command amsvet runs the repo-specific analyzer suite over the module:
// invariants this codebase depends on and has already paid to re-learn
// once — simulated-time discipline (vtimesleep), no blocking calls under
// held mutexes (lockblock), context propagation (ctxflow), telemetry
// hygiene (obsclean) — enforced mechanically instead of by review. Run
// it like vet:
//
//	go run ./cmd/amsvet ./...
//
// It prints one line per finding and exits non-zero when any survive the
// //amsvet:allow escape hatch. See internal/analysis for the analyzers
// and DESIGN.md §7 for the invariant catalog.
package main

import (
	"flag"
	"fmt"
	"os"

	"ams/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: amsvet [-list] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "amsvet:", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(wd, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "amsvet:", err)
		os.Exit(2)
	}
	suite := analysis.All()
	found := 0
	for _, pkg := range pkgs {
		diags, err := analysis.Check(pkg, suite)
		if err != nil {
			fmt.Fprintln(os.Stderr, "amsvet:", err)
			os.Exit(2)
		}
		for _, d := range diags {
			fmt.Println(d)
			found++
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "amsvet: %d finding(s)\n", found)
		os.Exit(1)
	}
}
