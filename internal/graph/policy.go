package graph

import (
	"ams/internal/oracle"
	"ams/internal/sim"
	"ams/internal/zoo"
)

// beliefPolicy runs, among the candidates that fit the constraints, the
// model with the highest score under the graph belief, and updates the
// belief with whether each executed model was valuable.
type beliefPolicy struct {
	g      *Graph
	z      *zoo.Zoo
	score  func(b *Belief, m int, mod *zoo.Model) float64
	belief *Belief
}

// NewValuePolicy returns the graph-driven policy that schedules models by
// descending expected value under the graph belief — a DRL-free
// counterpart of the Q-greedy policy.
func NewValuePolicy(g *Graph, z *zoo.Zoo) sim.Policy {
	return &beliefPolicy{g: g, z: z, score: func(b *Belief, m int, _ *zoo.Model) float64 {
		return b.ExpectedValue(m)
	}}
}

// NewDensityPolicy returns the graph analogue of Algorithm 1: expected
// value per unit time among models that still fit the budget.
func NewDensityPolicy(g *Graph, z *zoo.Zoo) sim.Policy {
	return &beliefPolicy{g: g, z: z, score: func(b *Belief, m int, mod *zoo.Model) float64 {
		return b.ExpectedValue(m) / mod.TimeMS
	}}
}

// Name implements sim.Policy.
func (p *beliefPolicy) Name() string { return "Graph" }

// Reset implements sim.Policy.
func (p *beliefPolicy) Reset(int) { p.belief = p.g.NewBelief() }

// Next implements sim.Policy.
func (p *beliefPolicy) Next(t *oracle.Tracker, c sim.Constraints) int {
	best, bestS := -1, 0.0
	for m := range t.Candidates() {
		mod := p.z.Models[m]
		if !c.Allows(mod) {
			continue
		}
		if s := p.score(p.belief, m, mod); best < 0 || s > bestS {
			best, bestS = m, s
		}
	}
	return best
}

// Observe implements sim.Policy: the model was valuable when it
// emitted any label at or above the threshold.
func (p *beliefPolicy) Observe(m int, out zoo.Output) {
	p.belief.Observe(m, out.Value(zoo.ValuableThreshold) > 0)
}
