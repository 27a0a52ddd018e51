// Command amsbench regenerates the paper's tables and figures against the
// simulated substrate and prints them as text series.
//
// Usage:
//
//	amsbench -exp all            # everything, quick scale
//	amsbench -exp fig10 -scale full
//	amsbench -list
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"ams/internal/experiments"
)

// experiment is one row of the table that feeds -list, -exp all, the
// usage string and dispatch.
type experiment struct {
	id  string
	run func(*experiments.Lab) string
}

// experimentTable lists every experiment in the order -exp all runs them.
var experimentTable = []experiment{
	{"table1", (*experiments.Lab).TableI},
	{"table2", (*experiments.Lab).TableII},
	{"fig1", func(l *experiments.Lab) string { return l.Fig1().Format() }},
	{"fig2", func(l *experiments.Lab) string { return l.Fig2().Format() }},
	{"fig4", func(l *experiments.Lab) string { return panels(l.Fig4(), (*experiments.SweepResult).FormatCounts) }},
	{"fig5", func(l *experiments.Lab) string { return panels(l.Fig5(), (*experiments.SweepResult).FormatTimes) }},
	{"fig6", func(l *experiments.Lab) string {
		r := l.Fig6()
		return r.FormatCounts() + "\n" + r.FormatTimes()
	}},
	{"fig7", func(l *experiments.Lab) string { return l.Fig7().Format() }},
	{"fig8", func(l *experiments.Lab) string { return l.Fig8().Format() }},
	{"fig9", func(l *experiments.Lab) string { return l.Fig9().Format() }},
	{"fig10", func(l *experiments.Lab) string { return panels(l.Fig10(), experiments.DeadlineResult.Format) }},
	{"fig11", func(l *experiments.Lab) string { return panels(l.Fig11(), experiments.MemoryResult.Format) }},
	{"fig12", func(l *experiments.Lab) string { return l.Fig12().Format() }},
	{"table3", func(l *experiments.Lab) string { return l.TableIII().Format() }},
	{"headline", func(l *experiments.Lab) string { return l.Headline().Format() }},
	{"ablation-end", func(l *experiments.Lab) string { return l.AblationEND().Format() }},
	{"ablation-gamma", func(l *experiments.Lab) string { return l.AblationGamma().Format() }},
	{"ablation-reward", func(l *experiments.Lab) string { return l.AblationReward().Format() }},
	{"ext-graph", func(l *experiments.Lab) string { return l.ExtGraph().Format() }},
}

// panels renders a per-dataset figure, one panel after another.
func panels[T any](rs []T, format func(T) string) string {
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(format(r))
		b.WriteString("\n")
	}
	return b.String()
}

// ids returns the experiment ids in table order.
func ids() []string {
	out := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		out[i] = e.id
	}
	return out
}

// lookup resolves one experiment id.
func lookup(id string) (experiment, error) {
	for _, e := range experimentTable {
		if e.id == id {
			return e, nil
		}
	}
	return experiment{}, fmt.Errorf("unknown experiment %q (use -list)", id)
}

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment id or comma list ("+strings.Join(ids(), ",")+") or all")
		scale = flag.String("scale", "quick", "quick or full")
		list  = flag.Bool("list", false, "list experiments and exit")
		quiet = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	if *list {
		for _, id := range ids() {
			fmt.Println(id)
		}
		return
	}

	var cfg experiments.Config
	switch *scale {
	case "quick":
		cfg = experiments.Quick()
	case "full":
		cfg = experiments.Full()
	default:
		log.Fatalf("amsbench: unknown scale %q", *scale)
	}
	lab := experiments.NewLab(cfg)
	if !*quiet {
		lab.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
		}
	}

	want := ids()
	if *exp != "all" {
		want = strings.Split(*exp, ",")
	}
	for _, id := range want {
		e, err := lookup(strings.TrimSpace(id))
		if err != nil {
			log.Fatalf("amsbench: %v", err)
		}
		fmt.Println(e.run(lab))
	}
}
