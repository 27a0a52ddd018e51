// Package sched implements the scheduling policies of the paper: the
// random and optimal baselines, the plain Q-greedy policy, the
// handcrafted-rule policy (§VI-C), Algorithm 1 (cost-Q greedy under a
// deadline), Algorithm 2 (deadline+memory batch packing), the relaxed
// optimal* upper bounds of §V-C, and the explore–exploit policy for
// chunked (video-like) streams sketched in the paper's introduction.
//
// Every policy implements the single sim.Policy contract: Next receives
// the labeling state — whose Candidates are the models neither run nor
// in flight — plus the sim.Constraints in force (remaining time,
// available memory) and returns one model, so the same implementation
// runs under every limit of the one executor (sim.Execute): unconstrained,
// deadline, and deadline+memory with overlapping launches. The
// explore–exploit policy is one too: RunExploreExploit runs it on that
// executor with no deadline. The two optimal* bounds are one fractional
// greedy over two costs — time within the deadline, time x memory within
// the deadline x memory area — and are computed, not scheduled.
package sched

import (
	"ams/internal/oracle"
	"ams/internal/sim"
	"ams/internal/tensor"
	"ams/internal/zoo"
)

// Predictor estimates per-model values from the sparse labeling state.
// The DRL agent is the canonical implementation; Predict must return at
// least NumModels entries (entries beyond the model count — e.g. the END
// action — are ignored by policies).
type Predictor interface {
	Predict(state []int) []float64
}

// anyFits reports whether c allows any of t's candidates. The
// predictor-driven policies ask it before they predict: when nothing
// fits they return -1 whatever the Q-values say and change no state of
// their own, so the forward pass would be computed for no reader. Every
// item's last select is such an ask: after its last commit the
// remaining deadline fits no model still unexecuted.
func anyFits(t *oracle.Tracker, z *zoo.Zoo, c sim.Constraints) bool {
	for m := range t.Candidates() {
		if c.Allows(z.Models[m]) {
			return true
		}
	}
	return false
}

// --- Baseline and serial policies ---------------------------------------

// Random executes a uniformly random feasible model — the paper's
// "random policy", constraint-aware: only unexecuted models that fit the
// remaining time and available memory are drawn.
type Random struct {
	z   *zoo.Zoo
	rng *tensor.RNG
}

// NewRandom returns a random policy with its own RNG stream.
func NewRandom(z *zoo.Zoo, rng *tensor.RNG) *Random { return &Random{z: z, rng: rng} }

// Name implements sim.Policy.
func (p *Random) Name() string { return "Random" }

// Reset implements sim.Policy.
func (p *Random) Reset(int) {}

// Seed restarts the policy's stream at seed.
func (p *Random) Seed(seed uint64) { p.rng.Seed(seed) }

// Next implements sim.Policy.
func (p *Random) Next(t *oracle.Tracker, c sim.Constraints) int {
	var feasible []int
	for m := range t.Candidates() {
		if c.Allows(p.z.Models[m]) {
			feasible = append(feasible, m)
		}
	}
	if len(feasible) == 0 {
		return -1
	}
	return feasible[p.rng.Intn(len(feasible))]
}

// Observe implements sim.Policy.
func (p *Random) Observe(int, zoo.Output) {}

// Optimal executes models in descending order of their true output
// value — the paper's "optimal policy", which needs ground truth.
type Optimal struct {
	st    *oracle.Store
	order []int
}

// NewOptimal returns the optimal policy over the store.
func NewOptimal(st *oracle.Store) *Optimal { return &Optimal{st: st} }

// Name implements sim.Policy.
func (p *Optimal) Name() string { return "Optimal" }

// Reset implements sim.Policy.
func (p *Optimal) Reset(scene int) { p.order = p.st.OptimalOrder(scene) }

// Next implements sim.Policy.
func (p *Optimal) Next(t *oracle.Tracker, c sim.Constraints) int {
	for _, m := range p.order {
		if !t.Candidate(m) || !c.Allows(p.st.Zoo.Models[m]) {
			continue
		}
		return m
	}
	return -1
}

// Observe implements sim.Policy.
func (p *Optimal) Observe(int, zoo.Output) {}

// QGreedy executes the feasible model with the maximal predicted Q
// value — the paper's "Q-value greedy policy" ("Q Greedy" in Fig. 10
// when a deadline is in force).
type QGreedy struct {
	pred Predictor
	z    *zoo.Zoo
}

// NewQGreedy returns a Q-greedy policy over the zoo's models.
func NewQGreedy(pred Predictor, z *zoo.Zoo) *QGreedy {
	return &QGreedy{pred: pred, z: z}
}

// Name implements sim.Policy.
func (p *QGreedy) Name() string { return "Q-Greedy" }

// Reset implements sim.Policy.
func (p *QGreedy) Reset(int) { invalidatePrediction(p.pred) }

// Next implements sim.Policy.
func (p *QGreedy) Next(t *oracle.Tracker, c sim.Constraints) int {
	if !anyFits(t, p.z, c) {
		return -1
	}
	return p.pick(t, c, p.pred.Predict(t.State()))
}

// pick is Next's choice given the Q-values q of t's state.
func (p *QGreedy) pick(t *oracle.Tracker, c sim.Constraints, q []float64) int {
	best, bestQ := -1, 0.0
	for m := range t.Candidates() {
		if !c.Allows(p.z.Models[m]) {
			continue
		}
		if best < 0 || q[m] > bestQ {
			best, bestQ = m, q[m]
		}
	}
	return best
}

// Observe implements sim.Policy.
func (p *QGreedy) Observe(int, zoo.Output) {}
