package sched

import (
	"ams/internal/oracle"
	"ams/internal/sim"
	"ams/internal/zoo"
)

// --- Algorithm 1 (§VI-F) ------------------------------------------------

// CostQGreedy is Algorithm 1: at each iteration filter the models that no
// longer fit in the budget and execute the one maximizing Q(m,d)/m.time.
// When every remaining feasible model has a non-positive Q the ratio
// ordering degenerates, so the policy falls back to plain argmax Q — the
// least-bad action, mirroring how a Q/time ratio over positive values
// behaves. Feasibility covers both constraint dimensions, so under a
// live memory cap the policy skips models that do not fit right now and
// keeps scheduling the ones that do. The cost is always the nominal
// TimeMS, so a batched run reproduces the unbatched schedule exactly.
type CostQGreedy struct {
	pred Predictor
	z    *zoo.Zoo
}

// NewCostQGreedy returns Algorithm 1.
func NewCostQGreedy(pred Predictor, z *zoo.Zoo) *CostQGreedy {
	return &CostQGreedy{pred: pred, z: z}
}

// Name implements sim.Policy.
func (p *CostQGreedy) Name() string { return "Cost-Q Greedy" }

// Reset implements sim.Policy.
func (p *CostQGreedy) Reset(int) { invalidatePrediction(p.pred) }

// Next implements sim.Policy.
func (p *CostQGreedy) Next(t *oracle.Tracker, c sim.Constraints) int {
	q := p.pred.Predict(t.State())
	bestRatio, bestRatioM := 0.0, -1
	bestQ, bestQM := 0.0, -1
	for _, m := range t.Candidates() {
		mod := p.z.Models[m]
		if !c.Allows(mod) {
			continue
		}
		if q[m] > 0 {
			if ratio := q[m] / mod.TimeMS; bestRatioM < 0 || ratio > bestRatio {
				bestRatio, bestRatioM = ratio, m
			}
		}
		if bestQM < 0 || q[m] > bestQ {
			bestQ, bestQM = q[m], m
		}
	}
	if bestRatioM >= 0 {
		return bestRatioM
	}
	return bestQM
}

// Observe implements sim.Policy.
func (p *CostQGreedy) Observe(int, zoo.Output) {}

// --- Relaxed optimal* upper bound (§V-C) --------------------------------

// OptimalStarDeadline computes the relaxed optimal* value for a scene
// under a serial deadline, exactly as §V-C defines it: greedily take the
// model with the maximal marginal-value/time density; the final model
// that no longer fits contributes the corresponding fraction of its
// marginal value. Because marginals shrink as the set grows (the function
// is submodular, not modular), the greedy relaxation is the paper's
// reference bound rather than a provable one — a feasible policy can
// exceed it by a hair on rare scenes. Returned as a recall rate.
func OptimalStarDeadline(st *oracle.Store, scene int, deadlineMS float64) float64 {
	total := st.TotalValue(scene)
	if total <= 0 {
		return 1
	}
	t := oracle.NewTracker(st, scene)
	remaining := deadlineMS
	var value float64
	for remaining > 0 && t.ExecutedCount() < st.NumModels() {
		best, bestDensity := -1, 0.0
		for _, m := range t.Unexecuted() {
			mv := t.MarginalValue(m)
			if mv <= 0 {
				continue
			}
			d := mv / st.Zoo.Models[m].TimeMS
			if best < 0 || d > bestDensity {
				best, bestDensity = m, d
			}
		}
		if best < 0 {
			break
		}
		mt := st.Zoo.Models[best].TimeMS
		mv := t.MarginalValue(best)
		if mt <= remaining {
			value += mv
			remaining -= mt
			t.Execute(best)
			continue
		}
		// Fractional tail: the relaxation credits the proportional value.
		value += mv * remaining / mt
		break
	}
	r := value / total
	if r > 1 {
		r = 1
	}
	return r
}

// OptimalStarMemory computes the relaxed optimal* value under joint
// deadline and memory budgets. Any feasible parallel schedule packs each
// model's time x memory rectangle into the deadline x memory area, so the
// fractional greedy over marginal-value/(time*mem) density bounded by that
// area upper-bounds every feasible policy. Returned as a recall rate.
func OptimalStarMemory(st *oracle.Store, scene int, deadlineMS, memMB float64) float64 {
	total := st.TotalValue(scene)
	if total <= 0 {
		return 1
	}
	area := deadlineMS * memMB
	t := oracle.NewTracker(st, scene)
	var value float64
	for area > 0 && t.ExecutedCount() < st.NumModels() {
		best, bestDensity := -1, 0.0
		for _, m := range t.Unexecuted() {
			mv := t.MarginalValue(m)
			if mv <= 0 {
				continue
			}
			mod := st.Zoo.Models[m]
			d := mv / (mod.TimeMS * mod.MemMB)
			if best < 0 || d > bestDensity {
				best, bestDensity = m, d
			}
		}
		if best < 0 {
			break
		}
		mod := st.Zoo.Models[best]
		need := mod.TimeMS * mod.MemMB
		mv := t.MarginalValue(best)
		if need <= area {
			value += mv
			area -= need
			t.Execute(best)
			continue
		}
		value += mv * area / need
		break
	}
	r := value / total
	if r > 1 {
		r = 1
	}
	return r
}
