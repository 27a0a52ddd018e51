package experiments

import (
	"fmt"
	"strings"

	"ams/internal/core"
	"ams/internal/graph"
	"ams/internal/rl"
	"ams/internal/sched"
	"ams/internal/sim"
	"ams/internal/tensor"
)

// --- Ablation: the END action (§IV-B) -------------------------------------

// AblationENDResult compares training with and without the END action.
type AblationENDResult struct {
	Epochs         int
	RewardWithEnd  []float64 // mean per-step reward per epoch
	RewardNoEnd    []float64
	ModelsWithEnd  float64 // avg executed models at full recall (test set)
	ModelsNoEnd    float64
	FinalRewardGap float64 // with - without, positive favours END
}

// AblationEND trains two DuelingDQN agents on MSCOCO, one with the END
// action and one without, and compares convergence. The paper argues END
// "effectively quickens the velocity of convergence" by letting the agent
// avoid the -1 punishments that pile up once nothing valuable remains.
func (l *Lab) AblationEND() AblationENDResult {
	st := l.TrainStore(DSMSCOCO)
	test := l.TestStore(DSMSCOCO)
	res := AblationENDResult{Epochs: l.Cfg.Epochs}

	train := func(disable bool, rewards *[]float64) *core.Agent {
		return core.Train(st, core.TrainConfig{
			Algo:       rl.DuelingDQN,
			Epochs:     l.Cfg.Epochs,
			Hidden:     l.Cfg.Hidden,
			DisableEnd: disable,
			Seed:       l.seedFor("ablation-end"),
			Progress: func(_ int, _, meanReward float64) {
				*rewards = append(*rewards, meanReward)
			},
		})
	}
	l.logf("ablation: training with END action")
	withEnd := train(false, &res.RewardWithEnd)
	l.logf("ablation: training without END action")
	noEnd := train(true, &res.RewardNoEnd)

	evalModels := func(a *core.Agent) float64 {
		var sum float64
		p := sched.NewQGreedy(a, l.Zoo)
		for i := 0; i < test.NumScenes(); i++ {
			sum += float64(len(sim.RunToRecall(test, i, p, 1.0).Executed))
		}
		return sum / float64(test.NumScenes())
	}
	res.ModelsWithEnd = evalModels(withEnd)
	res.ModelsNoEnd = evalModels(noEnd)
	if n := len(res.RewardWithEnd); n > 0 && len(res.RewardNoEnd) == n {
		res.FinalRewardGap = res.RewardWithEnd[n-1] - res.RewardNoEnd[n-1]
	}
	return res
}

// Format renders the END ablation.
func (r AblationENDResult) Format() string {
	var b strings.Builder
	b.WriteString("Ablation — END action (§IV-B)\n")
	b.WriteString("mean per-step training reward by epoch:\n")
	xs := make([]float64, len(r.RewardWithEnd))
	for i := range xs {
		xs[i] = float64(i)
	}
	b.WriteString(seriesTable("epoch", xs, []curve{
		{name: "with END", y: r.RewardWithEnd},
		{name: "without END", y: r.RewardNoEnd},
	}, 3))
	fmt.Fprintf(&b, "avg executed models at full recall: with END %.2f, without %.2f\n",
		r.ModelsWithEnd, r.ModelsNoEnd)
	return b.String()
}

// --- Ablation: discount factor -------------------------------------------

// AblationGammaResult sweeps the discount factor and reports Algorithm 1
// recall at two deadlines.
type AblationGammaResult struct {
	Gammas      []float64
	RecallHalfS []float64 // 0.5 s deadline
	RecallOneS  []float64 // 1.0 s deadline
}

// AblationGamma quantifies the design choice documented in
// core.TrainConfig: small discounts keep Q close to each model's
// immediate profit, which is what Algorithm 1's Q/time density needs.
func (l *Lab) AblationGamma() AblationGammaResult {
	st := l.TrainStore(DSMSCOCO)
	test := l.TestStore(DSMSCOCO)
	res := AblationGammaResult{Gammas: []float64{0.1, 0.3, 0.6, 0.9}}
	for _, gamma := range res.Gammas {
		l.logf("ablation: gamma=%v", gamma)
		agent := core.Train(st, core.TrainConfig{
			Algo:   rl.DuelingDQN,
			Epochs: l.Cfg.Epochs,
			Hidden: l.Cfg.Hidden,
			Gamma:  gamma,
			Seed:   l.seedFor("ablation-gamma"),
		})
		p := sched.NewCostQGreedy(agent, l.Zoo)
		var half, one float64
		for i := 0; i < test.NumScenes(); i++ {
			half += sim.RunDeadline(test, i, p, 500).Recall
			one += sim.RunDeadline(test, i, p, 1000).Recall
		}
		n := float64(test.NumScenes())
		res.RecallHalfS = append(res.RecallHalfS, half/n)
		res.RecallOneS = append(res.RecallOneS, one/n)
	}
	return res
}

// Format renders the gamma ablation.
func (r AblationGammaResult) Format() string {
	return "Ablation — discount factor for Algorithm 1 (Cost-Q density)\n" +
		seriesTable("gamma", r.Gammas, []curve{
			{name: "recall@0.5s", y: r.RecallHalfS},
			{name: "recall@1.0s", y: r.RecallOneS},
		}, 3)
}

// --- Ablation: reward smoothing (§IV-A) -----------------------------------

// AblationRewardResult compares the reward smoothing shapes.
type AblationRewardResult struct {
	Shapes    []string
	AvgModels []float64 // executed models at full recall
	AvgTimeS  []float64
}

// AblationReward trains one agent per reward shape. The paper argues the
// logarithm (or any smoothing keeping model rewards within an order of
// magnitude, like the per-label average) prevents many-label models from
// dominating; the linear shape is the strawman.
func (l *Lab) AblationReward() AblationRewardResult {
	st := l.TrainStore(DSMSCOCO)
	test := l.TestStore(DSMSCOCO)
	var res AblationRewardResult
	for _, shape := range []core.RewardShape{core.RewardLog, core.RewardLinear, core.RewardAverage} {
		l.logf("ablation: reward shape %v", shape)
		agent := core.Train(st, core.TrainConfig{
			Algo:   rl.DuelingDQN,
			Epochs: l.Cfg.Epochs,
			Hidden: l.Cfg.Hidden,
			Shape:  shape,
			Seed:   l.seedFor("ablation-reward"),
		})
		p := sched.NewQGreedy(agent, l.Zoo)
		var models, time float64
		for i := 0; i < test.NumScenes(); i++ {
			r := sim.RunToRecall(test, i, p, 1.0)
			models += float64(len(r.Executed))
			time += r.TimeMS / 1000
		}
		n := float64(test.NumScenes())
		res.Shapes = append(res.Shapes, shape.String())
		res.AvgModels = append(res.AvgModels, models/n)
		res.AvgTimeS = append(res.AvgTimeS, time/n)
	}
	return res
}

// Format renders the reward ablation.
func (r AblationRewardResult) Format() string {
	rows := make([][]string, len(r.Shapes))
	for i, s := range r.Shapes {
		rows[i] = []string{s,
			ftoa(r.AvgModels[i], 2),
			ftoa(r.AvgTimeS[i], 2)}
	}
	return "Ablation — reward smoothing (§IV-A), full-recall cost\n" +
		table([]string{"shape", "avg models", "avg time (s)"}, rows)
}

// --- Extension: model-relationship graph (§VIII future work) ---------------

// GraphExtResult compares the statistical model-relationship-graph policy
// against the DRL agent and baselines, and lists the strongest mined
// relationships.
type GraphExtResult struct {
	Sweep    *SweepResult
	TopEdges string
}

// ExtGraph builds the model-relationship graph from the MSCOCO training
// ground truth and evaluates its belief-driven policy on the test split —
// the fast-construction component the paper's conclusion proposes.
func (l *Lab) ExtGraph() GraphExtResult {
	st := l.TrainStore(DSMSCOCO)
	test := l.TestStore(DSMSCOCO)
	g := graph.Build(st)
	agent := l.Agent(rl.DuelingDQN, DSMSCOCO)
	rng := tensor.NewRNG(l.seedFor("ext-graph"))
	l.logf("extension: model-relationship graph policy")
	sweep := l.sweep(DSMSCOCO, []namedOrderPolicy{
		{name: "Graph", policy: graph.NewValuePolicy(g, l.Zoo)},
		{name: "DuelingDQN", policy: sched.NewQGreedy(agent, l.Zoo)},
		{name: "Random", policy: sched.NewRandom(l.Zoo, rng)},
		{name: "Optimal", policy: sched.NewOptimal(test)},
	})
	names := make([]string, len(l.Zoo.Models))
	for i, m := range l.Zoo.Models {
		names[i] = m.Name
	}
	return GraphExtResult{Sweep: sweep, TopEdges: g.Format(names, 12)}
}

// Format renders the graph extension.
func (r GraphExtResult) Format() string {
	series := make([]curve, len(r.Sweep.Policies))
	for i, p := range r.Sweep.Policies {
		series[i] = curve{name: p, y: r.Sweep.Counts[i]}
	}
	return "Extension — model-relationship graph policy (avg executed models)\n" +
		seriesTable("recall", r.Sweep.Thresholds, series, 2) +
		"\n" + r.TopEdges
}
