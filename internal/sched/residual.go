package sched

import (
	"ams/internal/oracle"
)

// Residual value: the serving layer's ground-truth-free quality proxy
// (the ROADMAP's first half of the quality signal) asks each
// predictor-backed policy what value it believes is still unharvested
// for an item — the best positive Q among the unexecuted models at the
// item's final state. A committed schedule with near-zero residual
// exhausted the value the agent could see; a large residual means the
// deadline or the memory budget left predicted value on the table.
//
// ResidualValue only reads a prediction. Predictions are deterministic
// in the agent's weights, and the caching layers memoize values without
// changing them, so calling this after a schedule cannot perturb any
// future scheduling decision — the serve layer's bit-identity guarantee
// is preserved.
func residualFromQ(pred Predictor, t *oracle.Tracker) float64 {
	q := pred.Predict(t.State())
	best := 0.0
	for m := range t.Unexecuted() {
		if m < len(q) && q[m] > best {
			best = q[m]
		}
	}
	return best
}

// ResidualValue implements the serve layer's residualValuer contract.
func (p *CostQGreedy) ResidualValue(t *oracle.Tracker) float64 {
	return residualFromQ(p.pred, t)
}

// ResidualValue implements the serve layer's residualValuer contract.
func (p *MemoryPacker) ResidualValue(t *oracle.Tracker) float64 {
	return residualFromQ(p.pred, t)
}

// ResidualValue implements the serve layer's residualValuer contract.
func (p *QGreedy) ResidualValue(t *oracle.Tracker) float64 {
	return residualFromQ(p.pred, t)
}
