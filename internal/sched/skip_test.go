package sched

import (
	"slices"
	"testing"

	"ams/internal/labels"
	"ams/internal/nn"
	"ams/internal/oracle"
	"ams/internal/sim"
	"ams/internal/tensor"
)

// tallyPredictor counts the asks it passes on to pred.
type tallyPredictor struct {
	pred  Predictor
	calls int
}

func (p *tallyPredictor) Predict(state []int) []float64 {
	p.calls++
	return p.pred.Predict(state)
}

// frozenPredictor is a frozen network's forward pass on one scratch.
type frozenPredictor struct {
	f *nn.Frozen
	s tensor.Vec
}

func (p frozenPredictor) Predict(state []int) []float64 { return p.f.Forward(p.s, state) }

// TestPoliciesSkipThePredictionWhenNothingFits: the predictor-driven
// policies predict only when some candidate fits the constraints. Over
// random trackers (executed and in-flight models), constraints and
// Q-values (a random vector, or a random dueling network's answer for
// the tracker's state), each Next must return what an eager copy that
// predicts first and then picks returns, leave the policy in the state
// the eager copy is left in, and, when no candidate fits, never ask the
// predictor and leave the policy's state as it was. The memory packer runs from
// both phases: choosing an anchor, and packing behind one.
func TestPoliciesSkipThePredictionWhenNothingFits(t *testing.T) {
	rng := tensor.NewRNG(59)
	var maxMS, maxMB float64
	for _, m := range z.Models {
		maxMS, maxMB = max(maxMS, m.TimeMS), max(maxMB, m.MemMB)
	}
	net := nn.NewNet(nn.Config{In: labels.Total, Hidden: []int{48}, Out: len(z.Models) + 1, Dueling: true}, rng)
	f, err := nn.Freeze(net)
	if err != nil {
		t.Fatal(err)
	}
	byNet := frozenPredictor{f, f.NewScratch()}
	fixed := fixedPredictor{make([]float64, len(z.Models)+1)}
	pred := &tallyPredictor{}
	seen := map[int]int{} // allowed candidates (capped at 2) -> trials
	for trial := 0; trial < 3000; trial++ {
		tr := oracle.NewTracker(store, rng.Intn(store.NumScenes()))
		for m := range z.Models {
			switch r := rng.Float64(); {
			case r < 0.45:
				tr.Execute(m)
			case r < 0.6:
				tr.Launch(m)
			}
		}
		c := sim.Constraints{RemainingMS: rng.Range(0, maxMS/2), AvailMemMB: rng.Range(0, maxMB)}
		if rng.Bool(0.1) {
			c.AvailMemMB = 0 // no memory limit
		}
		pred.pred = byNet
		if rng.Bool(0.5) {
			pred.pred = fixed
			for i := range fixed.q {
				fixed.q[i] = rng.Range(-1, 1)
			}
			if rng.Bool(0.3) {
				for i := range fixed.q {
					fixed.q[i] = -rng.Float64() // MemoryPacker's fallback
				}
			}
		}
		q := slices.Clone(pred.pred.Predict(tr.State()))
		allowed := 0
		for m := range z.Models {
			if tr.Candidate(m) && c.Allows(z.Models[m]) {
				allowed++
			}
		}
		seen[min(allowed, 2)]++

		check := func(name string, next func() int, eager func() int, same func() bool) {
			t.Helper()
			pred.calls = 0
			got := next()
			if calls := pred.calls; allowed == 0 && calls != 0 {
				t.Fatalf("trial %d, %s: no candidate fits and Next predicted %d times", trial, name, calls)
			}
			if want := eager(); got != want {
				t.Fatalf("trial %d, %s: %d of %d candidates fit; Next chose %d, the eager copy %d",
					trial, name, allowed, tr.CandidateCount(), got, want)
			}
			if !same() {
				t.Fatalf("trial %d, %s: Next left the policy in another state than the eager copy", trial, name)
			}
		}

		cq := NewCostQGreedy(pred, z)
		check("CostQGreedy", func() int { return cq.Next(tr, c) },
			func() int { return cq.pick(tr, c, q) }, func() bool { return true })
		qg := NewQGreedy(pred, z)
		check("QGreedy", func() int { return qg.Next(tr, c) },
			func() int { return qg.pick(tr, c, q) }, func() bool { return true })
		for _, packing := range []bool{false, true} {
			mp := NewMemoryPacker(pred, z)
			mp.packing, mp.horizonMS = packing, rng.Range(0, maxMS)
			before, eager := *mp, *mp
			check("MemoryPacker", func() int { return mp.Next(tr, c) },
				func() int { return eager.pick(tr, c, q) },
				func() bool { return *mp == eager && (allowed > 0 || *mp == before) })
		}
	}
	// The trials must reach both sides of the skip: nothing fits, and
	// exactly one model fits, where skipping would be wrong.
	if seen[0] < 100 || seen[1] < 100 || seen[2] < 100 {
		t.Fatalf("trials by allowed candidates (0, 1, 2+): %d, %d, %d; want 100 of each", seen[0], seen[1], seen[2])
	}
}
