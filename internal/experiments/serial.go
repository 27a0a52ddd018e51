package experiments

import (
	"fmt"
	"math"
	"strings"

	"ams/internal/oracle"
	"ams/internal/rl"
	"ams/internal/sched"
	"ams/internal/sim"
	"ams/internal/tensor"
	"ams/internal/zoo"
)

// --- Fig. 2: data-driven analysis ---------------------------------------

// Fig2Result reproduces the §II analysis: per-image time cost of the
// no-policy, random-policy and optimal-policy executions over a mixed
// three-dataset pool, with the time-cost CDFs.
type Fig2Result struct {
	AvgNoPolicySec float64
	AvgRandomSec   float64
	AvgOptimalSec  float64
	CDFRandom      cdf
	CDFOptimal     cdf
}

// Fig2 runs the data-driven analysis on the union of MSCOCO, Places365
// and MirFlickr scenes.
func (l *Lab) Fig2() Fig2Result {
	var noPol, random, optimal []float64
	rng := tensor.NewRNG(l.seedFor("fig2"))
	for _, name := range SweepDatasets() {
		st := l.FullStore(name)
		total := l.Zoo.TotalTimeMS()
		randPolicy := sched.NewRandom(l.Zoo, rng)
		for i := 0; i < st.NumScenes(); i++ {
			noPol = append(noPol, total/1000)
			// Random: execute in random order until every valuable label
			// is recalled.
			res := sim.RunToRecall(st, i, randPolicy, 1.0)
			random = append(random, res.TimeMS/1000)
			// Optimal: only the model executions that generate
			// high-confidence output.
			optimal = append(optimal, st.OptimalTimeMS(i)/1000)
		}
	}
	return Fig2Result{
		AvgNoPolicySec: mean(noPol),
		AvgRandomSec:   mean(random),
		AvgOptimalSec:  mean(optimal),
		CDFRandom:      newCDF(random),
		CDFOptimal:     newCDF(optimal),
	}
}

// Format renders the figure's numbers.
func (r Fig2Result) Format() string {
	var b strings.Builder
	b.WriteString("Fig. 2 — time cost to obtain all valuable labels per image\n")
	b.WriteString(table(
		[]string{"policy", "avg time/image (s)"},
		[][]string{
			{"No Policy", ftoa(r.AvgNoPolicySec, 2)},
			{"Random Policy", ftoa(r.AvgRandomSec, 2)},
			{"Optimal Policy", ftoa(r.AvgOptimalSec, 2)},
		}))
	b.WriteString("\nCDF of time cost per image (s -> P):\n")
	b.WriteString(seriesTable("time", r.CDFOptimal.x, []curve{
		{name: "Optimal", y: r.CDFOptimal.p},
	}, 2))
	b.WriteString(seriesTable("time", r.CDFRandom.x, []curve{
		{name: "Random", y: r.CDFRandom.p},
	}, 2))
	return b.String()
}

// --- Fig. 4 / Fig. 5: recall sweeps --------------------------------------

// SweepResult holds, per policy and per recall threshold, the average
// number of executed models (Fig. 4) and the average execution time in
// seconds (Fig. 5) on one dataset's test split.
type SweepResult struct {
	Dataset    string
	Thresholds []float64
	Policies   []string
	Counts     [][]float64 // [policy][threshold]
	Times      [][]float64 // [policy][threshold], seconds
}

// trajPoint is one step of an execution trajectory.
type trajPoint struct {
	cumTimeMS float64
	recall    float64
}

// trajectory runs the policy to exhaustion on one scene and replays the
// schedule for the cumulative (time, recall) after every execution.
func trajectory(st *oracle.Store, scene int, p sim.Policy) []trajPoint {
	executed := sim.RunDeadline(st, scene, p, math.Inf(1)).Executed
	t := oracle.NewTracker(st, scene)
	pts := make([]trajPoint, 0, len(executed))
	var cum float64
	for _, m := range executed {
		t.Execute(m)
		cum += st.Zoo.Models[m].TimeMS
		pts = append(pts, trajPoint{cumTimeMS: cum, recall: t.Recall()})
	}
	return pts
}

// metricsAt returns the executed-model count and time needed to reach the
// threshold on one trajectory (the full trajectory if never reached,
// which cannot happen for exhaustive policies).
func metricsAt(pts []trajPoint, threshold float64) (count int, timeMS float64) {
	for i, p := range pts {
		if p.recall >= threshold-1e-12 {
			return i + 1, p.cumTimeMS
		}
	}
	if len(pts) == 0 {
		return 0, 0
	}
	return len(pts), pts[len(pts)-1].cumTimeMS
}

// namedOrderPolicy couples a display name with a policy factory so sweeps
// can instantiate fresh policies.
type namedOrderPolicy struct {
	name   string
	policy sim.Policy
}

// sweep evaluates order policies over every test scene of a dataset.
func (l *Lab) sweep(dataset string, policies []namedOrderPolicy) *SweepResult {
	st := l.TestStore(dataset)
	grid := l.Cfg.RecallGrid
	res := &SweepResult{
		Dataset:    dataset,
		Thresholds: grid,
		Policies:   make([]string, len(policies)),
		Counts:     make([][]float64, len(policies)),
		Times:      make([][]float64, len(policies)),
	}
	for pi, np := range policies {
		res.Policies[pi] = np.name
		counts := make([]float64, len(grid))
		times := make([]float64, len(grid))
		for i := 0; i < st.NumScenes(); i++ {
			pts := trajectory(st, i, np.policy)
			for ti, th := range grid {
				c, tm := metricsAt(pts, th)
				counts[ti] += float64(c)
				times[ti] += tm / 1000
			}
		}
		n := float64(st.NumScenes())
		for ti := range grid {
			counts[ti] /= n
			times[ti] /= n
		}
		res.Counts[pi] = counts
		res.Times[pi] = times
	}
	return res
}

// RecallSweep runs (and caches) the §VI-B sweep on one dataset: the four
// DRL agents, the random baseline, and the optimal policy.
func (l *Lab) RecallSweep(dataset string) *SweepResult {
	if r, ok := l.sweeps[dataset]; ok {
		return r
	}
	st := l.TestStore(dataset)
	rng := tensor.NewRNG(l.seedFor("sweep/" + dataset))
	var policies []namedOrderPolicy
	for _, algo := range rl.Algorithms() {
		agent := l.Agent(algo, dataset)
		policies = append(policies, namedOrderPolicy{
			name:   algo.String(),
			policy: sched.NewQGreedy(agent, l.Zoo),
		})
	}
	policies = append(policies,
		namedOrderPolicy{name: "Random", policy: sched.NewRandom(l.Zoo, rng)},
		namedOrderPolicy{name: "Optimal", policy: sched.NewOptimal(st)},
	)
	l.logf("sweeping %s (%d scenes, %d policies)", dataset, st.NumScenes(), len(policies))
	r := l.sweep(dataset, policies)
	l.sweeps[dataset] = r
	return r
}

// Fig4 returns the executed-model-count sweeps of the three datasets.
func (l *Lab) Fig4() []*SweepResult {
	var rs []*SweepResult
	for _, name := range SweepDatasets() {
		rs = append(rs, l.RecallSweep(name))
	}
	return rs
}

// Fig5 returns the execution-time sweeps (same computation as Fig. 4).
func (l *Lab) Fig5() []*SweepResult { return l.Fig4() }

// FormatCounts renders the Fig. 4 view of the sweep.
func (r *SweepResult) FormatCounts() string {
	series := make([]curve, len(r.Policies))
	for i, p := range r.Policies {
		series[i] = curve{name: p, y: r.Counts[i]}
	}
	return fmt.Sprintf("Fig. 4 (%s) — avg executed models vs recall rate\n%s",
		r.Dataset, seriesTable("recall", r.Thresholds, series, 2))
}

// FormatTimes renders the Fig. 5 view of the sweep.
func (r *SweepResult) FormatTimes() string {
	series := make([]curve, len(r.Policies))
	for i, p := range r.Policies {
		series[i] = curve{name: p, y: r.Times[i]}
	}
	return fmt.Sprintf("Fig. 5 (%s) — avg execution time (s) vs recall rate\n%s",
		r.Dataset, seriesTable("recall", r.Thresholds, series, 2))
}

// PolicyRow returns the Y-series of one named policy (counts or times).
func (r *SweepResult) PolicyRow(name string, times bool) ([]float64, bool) {
	for i, p := range r.Policies {
		if p == name {
			if times {
				return r.Times[i], true
			}
			return r.Counts[i], true
		}
	}
	return nil, false
}

// --- Fig. 6: handcrafted rules vs agent ----------------------------------

// Fig6 compares the rule-based policy against DuelingDQN, random and
// optimal on MSCOCO, mirroring §VI-C.
func (l *Lab) Fig6() *SweepResult {
	dataset := DSMSCOCO
	st := l.TestStore(dataset)
	rng := tensor.NewRNG(l.seedFor("fig6"))
	agent := l.Agent(rl.DuelingDQN, dataset)
	policies := []namedOrderPolicy{
		{name: "Rule", policy: sched.NewRule(l.Zoo, rng.Split())},
		{name: "DuelingDQN", policy: sched.NewQGreedy(agent, l.Zoo)},
		{name: "Random", policy: sched.NewRandom(l.Zoo, rng)},
		{name: "Optimal", policy: sched.NewOptimal(st)},
	}
	l.logf("fig6: rules vs agent on %s", dataset)
	r := l.sweep(dataset, policies)
	return r
}

// --- Fig. 7: a scheduled execution sequence ------------------------------

// Fig7Step is one executed model with the valuable labels it surfaced.
type Fig7Step struct {
	Model  string
	Labels []string // "name (conf)" of new valuable labels
}

// Fig7Result is the model execution sequence for one sample image.
type Fig7Result struct {
	Dataset string
	Scene   int
	Steps   []Fig7Step
}

// Fig7 walks the DuelingDQN Q-greedy policy over one content-rich
// MirFlickr test scene, recording the model order and the fresh valuable
// labels each step contributed — the counterpart of the paper's pub/cup/
// drinking-beer example.
func (l *Lab) Fig7() Fig7Result {
	dataset := DSMirFlickr
	st := l.TestStore(dataset)
	agent := l.Agent(rl.DuelingDQN, dataset)

	// Choose the test scene with the most valuable models, i.e. the
	// richest story to tell.
	best, bestN := 0, -1
	for i := 0; i < st.NumScenes(); i++ {
		if n := len(st.ValuableModels(i)); n > bestN {
			best, bestN = i, n
		}
	}

	t := oracle.NewTracker(st, best)
	res := Fig7Result{Dataset: dataset, Scene: best}
	for _, m := range sim.RunToRecall(st, best, sched.NewQGreedy(agent, l.Zoo), 1).Executed {
		step := Fig7Step{Model: st.Zoo.Models[m].Name}
		_, fresh := t.Execute(m)
		for _, lc := range fresh {
			if lc.Conf >= zoo.ValuableThreshold {
				step.Labels = append(step.Labels,
					fmt.Sprintf("%s (%.2f)", l.Vocab.Label(lc.ID).Name, lc.Conf))
			}
		}
		res.Steps = append(res.Steps, step)
	}
	return res
}

// Format renders the execution sequence.
func (r Fig7Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7 — DuelingDQN Q-greedy execution sequence (%s scene %d)\n",
		r.Dataset, r.Scene)
	for i, s := range r.Steps {
		fmt.Fprintf(&b, "%2d. %-20s %s\n", i+1, s.Model, strings.Join(s.Labels, ", "))
	}
	return b.String()
}

// --- Fig. 8: knowledge transferability -----------------------------------

// Fig8Result reports, for each (agent, dataset) pair, the average time to
// recall all valuable labels, plus random and optimal references.
type Fig8Result struct {
	// Rows: Agent1, Agent2, Random, Optimal. Columns: Dataset1, Dataset2.
	Names   []string
	AvgSec  [][]float64 // [policy][dataset]
	NoPol   float64     // no-policy seconds, for reference
	Headers []string
}

// Fig8 trains Agent1 on Stanford40 and Agent2 on VOC2012 and evaluates
// both on both test sets (§VI-D).
func (l *Lab) Fig8() Fig8Result {
	agent1 := l.Agent(rl.DuelingDQN, DSStanford)
	agent2 := l.Agent(rl.DuelingDQN, DSVOC)
	datasets := []string{DSStanford, DSVOC}
	rng := tensor.NewRNG(l.seedFor("fig8"))

	res := Fig8Result{
		Names:   []string{"Agent1", "Agent2", "Random", "Optimal"},
		Headers: []string{"Dataset1 (Stanford40)", "Dataset2 (VOC2012)"},
		AvgSec:  make([][]float64, 4),
		NoPol:   l.Zoo.TotalTimeMS() / 1000,
	}
	for i := range res.AvgSec {
		res.AvgSec[i] = make([]float64, len(datasets))
	}
	for di, ds := range datasets {
		st := l.TestStore(ds)
		policies := []sim.Policy{
			sched.NewQGreedy(agent1, l.Zoo),
			sched.NewQGreedy(agent2, l.Zoo),
			sched.NewRandom(l.Zoo, rng),
			sched.NewOptimal(st),
		}
		for pi, p := range policies {
			var times []float64
			for i := 0; i < st.NumScenes(); i++ {
				times = append(times, sim.RunToRecall(st, i, p, 1.0).TimeMS/1000)
			}
			res.AvgSec[pi][di] = mean(times)
		}
	}
	return res
}

// Format renders the Fig. 8 averages.
func (r Fig8Result) Format() string {
	rows := make([][]string, len(r.Names))
	for i, n := range r.Names {
		rows[i] = []string{n,
			ftoa(r.AvgSec[i][0], 2),
			ftoa(r.AvgSec[i][1], 2)}
	}
	rows = append(rows, []string{"No Policy",
		ftoa(r.NoPol, 2), ftoa(r.NoPol, 2)})
	return "Fig. 8 — avg time (s) to recall all valuable labels\n" +
		table(append([]string{"policy"}, r.Headers...), rows)
}

// --- Fig. 9: model priority (theta) --------------------------------------

// Fig9Result reports, per algorithm and per theta, the average selection
// order of the prioritized face-detection model and the average total
// execution time at full recall.
type Fig9Result struct {
	Thetas   []float64
	Algos    []string
	AvgOrder [][]float64 // [algo][theta]
	AvgTime  [][]float64 // [algo][theta], seconds
	Random   struct {
		AvgOrder float64
		AvgTime  float64
	}
	FaceModel string
}

// PriorityModel is the face-detection model whose theta Fig. 9 sweeps.
const PriorityModel = "facedet-mtcnn"

// Fig9 trains agents with the face detector's theta set to each value in
// the grid and measures how early the model is scheduled (§VI-E).
func (l *Lab) Fig9() Fig9Result {
	dataset := DSMSCOCO
	st := l.TestStore(dataset)
	faceModel, ok := l.Zoo.ByName(PriorityModel)
	if !ok {
		panic("experiments: priority model missing from zoo")
	}
	res := Fig9Result{
		Thetas:    l.Cfg.Thetas,
		FaceModel: PriorityModel,
	}
	for _, algo := range rl.Algorithms() {
		res.Algos = append(res.Algos, algo.String())
		orders := make([]float64, len(res.Thetas))
		times := make([]float64, len(res.Thetas))
		for ti, theta := range res.Thetas {
			var thetaVec []float64
			var thetaKey string
			if theta != 1 {
				thetaVec = make([]float64, zoo.NumModels)
				for i := range thetaVec {
					thetaVec[i] = 1
				}
				thetaVec[faceModel.ID] = theta
				thetaKey = fmt.Sprintf("%.0f", theta)
			}
			agent := l.AgentTheta(algo, dataset, thetaKey, thetaVec)
			policy := sched.NewQGreedy(agent, l.Zoo)
			var orderSum, timeSum float64
			for i := 0; i < st.NumScenes(); i++ {
				orderSum += float64(position(sim.RunDeadline(st, i, policy, math.Inf(1)).Executed, faceModel.ID))
				_, tm := metricsAt(trajectory(st, i, policy), 1.0)
				timeSum += tm / 1000
			}
			n := float64(st.NumScenes())
			orders[ti] = orderSum / n
			times[ti] = timeSum / n
		}
		res.AvgOrder = append(res.AvgOrder, orders)
		res.AvgTime = append(res.AvgTime, times)
	}
	// Random reference: expected position of a fixed model in a random
	// permutation of 30 is (30+1)/2; measure it empirically anyway.
	rng := tensor.NewRNG(l.seedFor("fig9-random"))
	random := sched.NewRandom(l.Zoo, rng)
	var orderSum, timeSum float64
	for i := 0; i < st.NumScenes(); i++ {
		orderSum += float64(position(sim.RunDeadline(st, i, random, math.Inf(1)).Executed, faceModel.ID))
		_, tm := metricsAt(trajectory(st, i, random), 1.0)
		timeSum += tm / 1000
	}
	res.Random.AvgOrder = orderSum / float64(st.NumScenes())
	res.Random.AvgTime = timeSum / float64(st.NumScenes())
	return res
}

// position returns the 1-based position of model in the order (len+1 when
// absent).
func position(order []int, model int) int {
	for i, m := range order {
		if m == model {
			return i + 1
		}
	}
	return len(order) + 1
}

// Format renders both panels of Fig. 9.
func (r Fig9Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9 — effect of priority theta on %q\n", r.FaceModel)
	b.WriteString("(a) average selection order\n")
	hdr := []string{"algo"}
	for _, th := range r.Thetas {
		hdr = append(hdr, fmt.Sprintf("theta=%.0f", th))
	}
	var rows [][]string
	for i, a := range r.Algos {
		row := []string{a}
		for _, v := range r.AvgOrder[i] {
			row = append(row, ftoa(v, 1))
		}
		rows = append(rows, row)
	}
	randRow := []string{"Random"}
	for range r.Thetas {
		randRow = append(randRow, ftoa(r.Random.AvgOrder, 1))
	}
	rows = append(rows, randRow)
	b.WriteString(table(hdr, rows))
	b.WriteString("(b) average execution time at full recall (s)\n")
	rows = rows[:0]
	for i, a := range r.Algos {
		row := []string{a}
		for _, v := range r.AvgTime[i] {
			row = append(row, ftoa(v, 2))
		}
		rows = append(rows, row)
	}
	randRow = []string{"Random"}
	for range r.Thetas {
		randRow = append(randRow, ftoa(r.Random.AvgTime, 2))
	}
	rows = append(rows, randRow)
	b.WriteString(table(hdr, rows))
	return b.String()
}

// --- Headline numbers ------------------------------------------------------

// HeadlineResult carries the introduction's summary statistics.
type HeadlineResult struct {
	SavedAtFullRecall float64 // fraction of time saved vs random at recall 1.0
	SavedAt80Recall   float64 // fraction saved vs random at recall 0.8
}

// Headline derives the paper's headline claims from the Fig. 5 data,
// averaged over the three sweep datasets: time saved by the best DRL
// agent versus the random policy at 100% and 80% recall.
func (l *Lab) Headline() HeadlineResult {
	var s100, s80 []float64
	for _, name := range SweepDatasets() {
		sw := l.RecallSweep(name)
		agent, ok1 := sw.PolicyRow("DuelingDQN", true)
		random, ok2 := sw.PolicyRow("Random", true)
		if !ok1 || !ok2 {
			panic("experiments: sweep missing required policies")
		}
		idx100 := indexOf(sw.Thresholds, 1.0)
		idx80 := indexOf(sw.Thresholds, 0.8)
		s100 = append(s100, 1-agent[idx100]/random[idx100])
		s80 = append(s80, 1-agent[idx80]/random[idx80])
	}
	return HeadlineResult{
		SavedAtFullRecall: mean(s100),
		SavedAt80Recall:   mean(s80),
	}
}

// Format renders the headline numbers.
func (r HeadlineResult) Format() string {
	return fmt.Sprintf(
		"Headline — execution time saved vs random policy\n"+
			"  at 100%% recall of valuable labels: %.1f%% (paper: ~53%%)\n"+
			"  at  80%% recall of valuable labels: %.1f%% (paper: ~70%% vs no-policy baseline)\n",
		100*r.SavedAtFullRecall, 100*r.SavedAt80Recall)
}

func indexOf(xs []float64, x float64) int {
	best, bestD := 0, -1.0
	for i, v := range xs {
		d := v - x
		if d < 0 {
			d = -d
		}
		if bestD < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
