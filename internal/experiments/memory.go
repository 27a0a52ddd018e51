package experiments

import (
	"fmt"
	"strings"

	"ams/internal/rl"
	"ams/internal/sched"
	"ams/internal/sim"
	"ams/internal/tensor"
)

// --- Fig. 11: scheduling under memory-deadline constraints -----------------

// MemoryResult holds recall-vs-deadline curves for one GPU memory budget.
type MemoryResult struct {
	MemGB        float64
	DeadlinesSec []float64
	Policies     []string    // Agent (Algorithm 2), Random, Optimal*
	Recall       [][]float64 // [policy][deadline]
	PerfRatio    []float64   // Agent / Optimal* per deadline
}

// Fig11 evaluates Algorithm 2 under joint deadline and GPU memory budgets
// (§VI-G). Following the paper it uses the worst transfer case: Agent1
// (Stanford40-trained) on Dataset2 (VOC2012).
func (l *Lab) Fig11() []MemoryResult {
	agent := l.Agent(rl.DuelingDQN, DSStanford)
	st := l.TestStore(DSVOC)
	var results []MemoryResult
	for _, memGB := range l.Cfg.MemBudgetsGB {
		memMB := memGB * 1024
		l.logf("fig11: deadline+memory scheduling, %vGB", memGB)
		rng := tensor.NewRNG(l.seedFor(fmt.Sprintf("fig11/%v", memGB)))
		packer := sched.NewMemoryPacker(agent, l.Zoo)
		random := sched.NewRandomPacker(l.Zoo, rng)
		recall := recallCurves(st, l.Cfg.MemDeadlines,
			func(i int, dMS float64) float64 { return sim.RunParallel(st, i, packer, dMS, memMB).Recall },
			func(i int, dMS float64) float64 { return sim.RunParallel(st, i, random, dMS, memMB).Recall },
			func(i int, dMS float64) float64 { return sched.OptimalStarMemory(st, i, dMS, memMB) })
		results = append(results, MemoryResult{
			MemGB:        memGB,
			DeadlinesSec: l.Cfg.MemDeadlines,
			Policies:     []string{"Agent", "Random", "Optimal*"},
			Recall:       recall,
			PerfRatio:    perfRatio(recall[0], recall[2]),
		})
	}
	return results
}

// Format renders one memory budget's panel of Fig. 11.
func (r MemoryResult) Format() string {
	series := make([]curve, len(r.Policies))
	for i, p := range r.Policies {
		series[i] = curve{name: p, y: r.Recall[i]}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 11 (%.0fGB memory) — recall under deadline+memory constraints\n", r.MemGB)
	b.WriteString(seriesTable("deadline(s)", r.DeadlinesSec, series, 2))
	b.WriteString("performance ratio (Agent / Optimal*, reference 1-1/e = 0.632):\n")
	b.WriteString(seriesTable("deadline(s)", r.DeadlinesSec,
		[]curve{{name: "ratio", y: r.PerfRatio}}, 2))
	return b.String()
}
