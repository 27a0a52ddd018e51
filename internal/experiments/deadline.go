package experiments

import (
	"fmt"
	"strings"

	"ams/internal/oracle"
	"ams/internal/rl"
	"ams/internal/sched"
	"ams/internal/sim"
	"ams/internal/tensor"
)

// --- Fig. 10: scheduling under deadline constraint ------------------------

// DeadlineResult holds recall-vs-deadline curves on one dataset plus the
// performance ratio of Algorithm 1 to the optimal* reference.
type DeadlineResult struct {
	Dataset      string
	DeadlinesSec []float64
	Policies     []string    // Q-Greedy, Cost-Q Greedy, Random, Optimal*
	Recall       [][]float64 // [policy][deadline]
	PerfRatio    []float64   // Cost-Q / Optimal* per deadline
}

// sceneRun labels one test scene under a deadline in ms and returns its
// recall.
type sceneRun func(scene int, deadlineMS float64) float64

// serialRun runs the policy under the deadline (Algorithm 1).
func serialRun(st *oracle.Store, p sim.Policy) sceneRun {
	return func(i int, dMS float64) float64 { return sim.RunDeadline(st, i, p, dMS).Recall }
}

// deadlineBound is the deadline's optimal* reference.
func deadlineBound(st *oracle.Store) sceneRun {
	return func(i int, dMS float64) float64 { return sched.OptimalStarDeadline(st, i, dMS) }
}

// recallCurves averages each run's recall over st's scenes at every
// deadline, giving [run][deadline]. Within a deadline it evaluates run by
// run, each over the scenes in order, so a random policy draws in
// (deadline, scene) order.
func recallCurves(st *oracle.Store, deadlinesSec []float64, runs ...sceneRun) [][]float64 {
	recall := make([][]float64, len(runs))
	for ri := range recall {
		recall[ri] = make([]float64, len(deadlinesSec))
	}
	n := float64(st.NumScenes())
	for di, dSec := range deadlinesSec {
		for ri, run := range runs {
			var sum float64
			for i := 0; i < st.NumScenes(); i++ {
				sum += run(i, dSec*1000)
			}
			recall[ri][di] = sum / n
		}
	}
	return recall
}

// perfRatio is a recall curve's ratio to the optimal* curve, deadline by
// deadline; 1 where optimal* recalls nothing.
func perfRatio(recall, optimal []float64) []float64 {
	ratio := make([]float64, len(recall))
	for i := range ratio {
		ratio[i] = 1
		if optimal[i] > 0 {
			ratio[i] = recall[i] / optimal[i]
		}
	}
	return ratio
}

// deadlineEval evaluates the three feasible policies plus the optimal*
// reference on one dataset's test split, using the given agent.
func (l *Lab) deadlineEval(dataset string, agent sched.Predictor, seedTag string) DeadlineResult {
	st := l.TestStore(dataset)
	rng := tensor.NewRNG(l.seedFor("deadline/" + dataset + "/" + seedTag))
	recall := recallCurves(st, l.Cfg.DeadlinesSec,
		serialRun(st, sched.NewQGreedy(agent, l.Zoo)),
		serialRun(st, sched.NewCostQGreedy(agent, l.Zoo)),
		serialRun(st, sched.NewRandom(l.Zoo, rng)),
		deadlineBound(st))
	return DeadlineResult{
		Dataset:      dataset,
		DeadlinesSec: l.Cfg.DeadlinesSec,
		Policies:     []string{"Q-Greedy", "Cost-Q Greedy", "Random", "Optimal*"},
		Recall:       recall,
		PerfRatio:    perfRatio(recall[1], recall[3]),
	}
}

// Fig10 evaluates deadline scheduling with the DuelingDQN agent on the
// three sweep datasets (§VI-F).
func (l *Lab) Fig10() []DeadlineResult {
	var rs []DeadlineResult
	for _, name := range SweepDatasets() {
		agent := l.Agent(rl.DuelingDQN, name)
		l.logf("fig10: deadline scheduling on %s", name)
		rs = append(rs, l.deadlineEval(name, agent, "fig10"))
	}
	return rs
}

// Format renders one dataset's panel of Fig. 10.
func (r DeadlineResult) Format() string {
	series := make([]curve, len(r.Policies))
	for i, p := range r.Policies {
		series[i] = curve{name: p, y: r.Recall[i]}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 10 (%s) — value recall rate under deadline constraints\n", r.Dataset)
	b.WriteString(seriesTable("deadline(s)", r.DeadlinesSec, series, 2))
	b.WriteString("performance ratio (Cost-Q / Optimal*, reference 1-1/e = 0.632):\n")
	b.WriteString(seriesTable("deadline(s)", r.DeadlinesSec,
		[]curve{{name: "ratio", y: r.PerfRatio}}, 2))
	return b.String()
}

// --- Fig. 12: transfer under deadline constraint ---------------------------

// Fig12Result holds recall-vs-deadline for Agent1/Agent2 on the two
// transfer datasets using Algorithm 1.
type Fig12Result struct {
	Datasets     []string // Dataset1, Dataset2
	DeadlinesSec []float64
	Policies     []string      // Agent1, Agent2, Random, Optimal*
	Recall       [][][]float64 // [dataset][policy][deadline]
}

// Fig12 mirrors §VI-F's transfer experiment: Agent1 (Stanford40-trained)
// and Agent2 (VOC-trained) scheduled by Algorithm 1 on both test sets.
func (l *Lab) Fig12() Fig12Result {
	agent1 := l.Agent(rl.DuelingDQN, DSStanford)
	agent2 := l.Agent(rl.DuelingDQN, DSVOC)
	res := Fig12Result{
		Datasets:     []string{DSStanford, DSVOC},
		DeadlinesSec: l.Cfg.DeadlinesSec,
		Policies:     []string{"Agent1", "Agent2", "Random", "Optimal*"},
	}
	for _, ds := range res.Datasets {
		st := l.TestStore(ds)
		rng := tensor.NewRNG(l.seedFor("fig12/" + ds))
		res.Recall = append(res.Recall, recallCurves(st, res.DeadlinesSec,
			serialRun(st, sched.NewCostQGreedy(agent1, l.Zoo)),
			serialRun(st, sched.NewCostQGreedy(agent2, l.Zoo)),
			serialRun(st, sched.NewRandom(l.Zoo, rng)),
			deadlineBound(st)))
	}
	return res
}

// Format renders both panels of Fig. 12.
func (r Fig12Result) Format() string {
	var b strings.Builder
	for di, ds := range r.Datasets {
		series := make([]curve, len(r.Policies))
		for i, p := range r.Policies {
			series[i] = curve{name: p, y: r.Recall[di][i]}
		}
		fmt.Fprintf(&b, "Fig. 12 (Dataset%d = %s) — recall under deadline, Algorithm 1\n",
			di+1, ds)
		b.WriteString(seriesTable("deadline(s)", r.DeadlinesSec, series, 2))
	}
	return b.String()
}
