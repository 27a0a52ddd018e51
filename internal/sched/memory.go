package sched

import (
	"slices"

	"ams/internal/oracle"
	"ams/internal/sim"
	"ams/internal/tensor"
	"ams/internal/zoo"
)

// --- Parallel deadline+memory policies (§VI-G, Algorithm 2) -------------

// MemoryPacker is Algorithm 2: at each scheduling point (a completion,
// or the start of the schedule) it first launches the eligible model
// with the highest Q per unit resource area (Q / (m.time * m.mem)),
// takes that model's completion as a temporary deadline, then keeps
// launching models with the highest Q/m.mem ratio that fit in the
// remaining memory and finish by the temporary deadline. Each Observe
// opens a new scheduling point; within one point, successive Next calls
// emit the anchor followed by its packed followers, declining when the
// point's batch is complete.
type MemoryPacker struct {
	pred Predictor
	z    *zoo.Zoo

	packing   bool    // this scheduling point's anchor has launched
	horizonMS float64 // anchor duration: followers must finish within it
}

// NewMemoryPacker returns Algorithm 2.
func NewMemoryPacker(pred Predictor, z *zoo.Zoo) *MemoryPacker {
	return &MemoryPacker{pred: pred, z: z}
}

// Name implements sim.Policy.
func (p *MemoryPacker) Name() string { return "Agent" }

// Reset implements sim.Policy.
func (p *MemoryPacker) Reset(int) {
	p.packing = false
	invalidatePrediction(p.pred)
}

// Next implements sim.Policy.
func (p *MemoryPacker) Next(t *oracle.Tracker, c sim.Constraints) int {
	if !anyFits(t, p.z, c) {
		return -1 // in either phase, and with packing unchanged
	}
	return p.pick(t, c, p.pred.Predict(t.State()))
}

// pick is Next's choice given the Q-values q of t's state.
func (p *MemoryPacker) pick(t *oracle.Tracker, c sim.Constraints, q []float64) int {
	candidates := t.Candidates()
	if !p.packing {
		// Anchor: highest value per resource area within the budgets.
		anchor, bestDensity := -1, 0.0
		for m := range candidates {
			if q[m] <= 0 {
				continue
			}
			mod := p.z.Models[m]
			if !c.Allows(mod) {
				continue
			}
			d := q[m] / (mod.TimeMS * mod.MemMB)
			if anchor < 0 || d > bestDensity {
				anchor, bestDensity = m, d
			}
		}
		if anchor >= 0 {
			p.packing = true
			p.horizonMS = p.z.Models[anchor].TimeMS
			return anchor
		}
		// No positive-value model fits; while something is running,
		// wait for its completion. On an idle GPU, fall back to the
		// least-bad feasible model so the budget is not wasted.
		if t.InFlightCount() > 0 {
			return -1
		}
		fallback, bestQ := -1, 0.0
		for m := range candidates {
			if !c.Allows(p.z.Models[m]) {
				continue
			}
			if fallback < 0 || q[m] > bestQ {
				fallback, bestQ = m, q[m]
			}
		}
		if fallback >= 0 {
			p.packing = true
			p.horizonMS = 0 // nothing packs behind a fallback
		}
		return fallback
	}
	// Pack by Q/mem under the temporary deadline (Algorithm 2 lines 8-12).
	best, bestRatio := -1, 0.0
	for m := range candidates {
		if q[m] <= 0 {
			continue
		}
		mod := p.z.Models[m]
		if mod.TimeMS > p.horizonMS+1e-9 || !c.Allows(mod) {
			continue
		}
		ratio := q[m] / mod.MemMB
		if best < 0 || ratio > bestRatio {
			best, bestRatio = m, ratio
		}
	}
	return best
}

// Observe implements sim.Policy: a completion opens the next scheduling
// point, so the anchor selection runs again.
func (p *MemoryPacker) Observe(int, zoo.Output) { p.packing = false }

// RandomPacker is the random baseline of §VI-G: it launches randomly
// chosen models that fit in memory and finish by the deadline, keeping
// the GPU packed. One shuffle is drawn per scheduling point and consumed
// across that point's launches.
type RandomPacker struct {
	z   *zoo.Zoo
	rng *tensor.RNG

	order []int // this scheduling point's shuffled candidates
	drawn bool
}

// NewRandomPacker returns the random deadline+memory baseline.
func NewRandomPacker(z *zoo.Zoo, rng *tensor.RNG) *RandomPacker {
	return &RandomPacker{z: z, rng: rng}
}

// Name implements sim.Policy.
func (p *RandomPacker) Name() string { return "Random" }

// Reset implements sim.Policy.
func (p *RandomPacker) Reset(int) { p.drawn = false }

// Next implements sim.Policy.
func (p *RandomPacker) Next(t *oracle.Tracker, c sim.Constraints) int {
	if !p.drawn {
		p.order = slices.AppendSeq(p.order[:0], t.Unexecuted())
		p.rng.Shuffle(p.order)
		p.drawn = true
	}
	for _, m := range p.order {
		if !t.Candidate(m) || !c.Allows(p.z.Models[m]) {
			continue
		}
		return m
	}
	return -1
}

// Observe implements sim.Policy.
func (p *RandomPacker) Observe(int, zoo.Output) { p.drawn = false }
