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

var order = []string{
	"table1", "table2", "fig1", "fig2", "fig4", "fig5", "fig6", "fig7",
	"fig8", "fig9", "fig10", "fig11", "fig12", "table3", "headline",
	"ablation-end", "ablation-gamma", "ablation-reward", "ext-graph",
	"ext-service", "ext-batching",
}

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment id or comma list ("+strings.Join(order, ",")+") or all")
		scale = flag.String("scale", "quick", "quick or full")
		list  = flag.Bool("list", false, "list experiments and exit")
		quiet = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	if *list {
		for _, id := range order {
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

	var ids []string
	if *exp == "all" {
		ids = order
	} else {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		out, err := run(lab, strings.TrimSpace(id))
		if err != nil {
			log.Fatalf("amsbench: %v", err)
		}
		fmt.Println(out)
	}
}

func run(lab *experiments.Lab, id string) (string, error) {
	switch id {
	case "table1":
		return lab.TableI(), nil
	case "table2":
		return lab.TableII(), nil
	case "table3":
		return lab.TableIII().Format(), nil
	case "fig1":
		return lab.Fig1().Format(), nil
	case "fig2":
		return lab.Fig2().Format(), nil
	case "fig4":
		var b strings.Builder
		for _, r := range lab.Fig4() {
			b.WriteString(r.FormatCounts())
			b.WriteString("\n")
		}
		return b.String(), nil
	case "fig5":
		var b strings.Builder
		for _, r := range lab.Fig5() {
			b.WriteString(r.FormatTimes())
			b.WriteString("\n")
		}
		return b.String(), nil
	case "fig6":
		r := lab.Fig6()
		return r.FormatCounts() + "\n" + r.FormatTimes(), nil
	case "fig7":
		return lab.Fig7().Format(), nil
	case "fig8":
		return lab.Fig8().Format(), nil
	case "fig9":
		return lab.Fig9().Format(), nil
	case "fig10":
		var b strings.Builder
		for _, r := range lab.Fig10() {
			b.WriteString(r.Format())
			b.WriteString("\n")
		}
		return b.String(), nil
	case "fig11":
		var b strings.Builder
		for _, r := range lab.Fig11() {
			b.WriteString(r.Format())
			b.WriteString("\n")
		}
		return b.String(), nil
	case "fig12":
		return lab.Fig12().Format(), nil
	case "headline":
		return lab.Headline().Format(), nil
	case "ablation-end":
		return lab.AblationEND().Format(), nil
	case "ablation-gamma":
		return lab.AblationGamma().Format(), nil
	case "ablation-reward":
		return lab.AblationReward().Format(), nil
	case "ext-graph":
		return lab.ExtGraph().Format(), nil
	case "ext-service":
		return lab.ExtService().Format(), nil
	case "ext-batching":
		return lab.ExtBatching().Format(), nil
	default:
		return "", fmt.Errorf("unknown experiment %q (use -list)", id)
	}
}
