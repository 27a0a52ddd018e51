package graph

import (
	"ams/internal/oracle"
	"ams/internal/sim"
	"ams/internal/zoo"
)

// ValuePolicy schedules models by descending expected value under the
// graph belief — a DRL-free counterpart of the Q-greedy policy. It
// implements sim.Policy.
type ValuePolicy struct {
	g      *Graph
	z      *zoo.Zoo
	belief *Belief
}

// NewValuePolicy returns a fresh graph-driven policy.
func NewValuePolicy(g *Graph, z *zoo.Zoo) *ValuePolicy { return &ValuePolicy{g: g, z: z} }

// Name implements sim.Policy.
func (p *ValuePolicy) Name() string { return "Graph" }

// Reset implements sim.Policy.
func (p *ValuePolicy) Reset(int) { p.belief = p.g.NewBelief() }

// Next implements sim.Policy.
func (p *ValuePolicy) Next(t *oracle.Tracker, c sim.Constraints) int {
	best, bestV := -1, 0.0
	for m := range t.Candidates() {
		if !c.Allows(p.z.Models[m]) {
			continue
		}
		v := p.belief.ExpectedValue(m)
		if best < 0 || v > bestV {
			best, bestV = m, v
		}
	}
	return best
}

// Observe implements sim.Policy: the model was valuable when it
// emitted any label at or above the threshold.
func (p *ValuePolicy) Observe(m int, out zoo.Output) {
	p.belief.Observe(m, out.Value(zoo.ValuableThreshold) > 0)
}

// DensityPolicy is the graph analogue of Algorithm 1: expected value per
// unit time among models that still fit the budget. It implements
// sim.Policy.
type DensityPolicy struct {
	g      *Graph
	z      *zoo.Zoo
	belief *Belief
}

// NewDensityPolicy returns the graph-driven cost-aware policy.
func NewDensityPolicy(g *Graph, z *zoo.Zoo) *DensityPolicy {
	return &DensityPolicy{g: g, z: z}
}

// Name implements sim.Policy.
func (p *DensityPolicy) Name() string { return "Graph" }

// Reset implements sim.Policy.
func (p *DensityPolicy) Reset(int) { p.belief = p.g.NewBelief() }

// Next implements sim.Policy.
func (p *DensityPolicy) Next(t *oracle.Tracker, c sim.Constraints) int {
	best, bestD := -1, 0.0
	for m := range t.Candidates() {
		mod := p.z.Models[m]
		if !c.Allows(mod) {
			continue
		}
		d := p.belief.ExpectedValue(m) / mod.TimeMS
		if best < 0 || d > bestD {
			best, bestD = m, d
		}
	}
	return best
}

// Observe implements sim.Policy.
func (p *DensityPolicy) Observe(m int, out zoo.Output) {
	p.belief.Observe(m, out.Value(zoo.ValuableThreshold) > 0)
}
