package experiments

import (
	"strings"
	"testing"
)

func TestAblationEND(t *testing.T) {
	l := newMicroLab(t)
	r := l.AblationEND()
	if len(r.RewardWithEnd) != l.Cfg.Epochs || len(r.RewardNoEnd) != l.Cfg.Epochs {
		t.Fatalf("reward trajectories wrong length: %d/%d",
			len(r.RewardWithEnd), len(r.RewardNoEnd))
	}
	if r.ModelsWithEnd <= 0 || r.ModelsNoEnd <= 0 {
		t.Fatalf("eval missing: %+v", r)
	}
	// With END available, late-training mean reward must be at least as
	// good as without it (END avoids the -1 pile-up).
	lastWith := r.RewardWithEnd[len(r.RewardWithEnd)-1]
	lastNo := r.RewardNoEnd[len(r.RewardNoEnd)-1]
	if lastWith < lastNo-0.05 {
		t.Fatalf("END hurt final reward: with %v, without %v", lastWith, lastNo)
	}
	if !strings.Contains(r.Format(), "END action") {
		t.Fatal("format header wrong")
	}
}

func TestAblationGamma(t *testing.T) {
	l := newMicroLab(t)
	r := l.AblationGamma()
	if len(r.Gammas) != 4 || len(r.RecallHalfS) != 4 || len(r.RecallOneS) != 4 {
		t.Fatalf("shape wrong: %+v", r)
	}
	for i := range r.Gammas {
		if r.RecallHalfS[i] < 0 || r.RecallHalfS[i] > 1 ||
			r.RecallOneS[i] < r.RecallHalfS[i]-0.05 {
			t.Fatalf("recall curves implausible at gamma %v: %v / %v",
				r.Gammas[i], r.RecallHalfS[i], r.RecallOneS[i])
		}
	}
	// The design claim: a small gamma must not lose to gamma=0.9 for the
	// density-based scheduler (allowing micro-training noise).
	small := (r.RecallHalfS[0] + r.RecallHalfS[1]) / 2
	large := r.RecallHalfS[len(r.RecallHalfS)-1]
	if small < large-0.1 {
		t.Fatalf("small gammas (%v) unexpectedly far below 0.9 (%v)", small, large)
	}
	if !strings.Contains(r.Format(), "discount factor") {
		t.Fatal("format header wrong")
	}
}

func TestAblationReward(t *testing.T) {
	l := newMicroLab(t)
	r := l.AblationReward()
	if len(r.Shapes) != 3 {
		t.Fatalf("shapes: %v", r.Shapes)
	}
	for i := range r.Shapes {
		if r.AvgModels[i] <= 0 || r.AvgModels[i] > 30 {
			t.Fatalf("avg models out of range for %s: %v", r.Shapes[i], r.AvgModels[i])
		}
	}
	if !strings.Contains(r.Format(), "reward smoothing") {
		t.Fatal("format header wrong")
	}
}

func TestExtGraph(t *testing.T) {
	l := newMicroLab(t)
	r := l.ExtGraph()
	if len(r.Sweep.Policies) != 4 {
		t.Fatalf("policies: %v", r.Sweep.Policies)
	}
	last := len(r.Sweep.Thresholds) - 1
	graphRow, ok := r.Sweep.PolicyRow("Graph", false)
	if !ok {
		t.Fatal("graph policy missing")
	}
	randRow, _ := r.Sweep.PolicyRow("Random", false)
	optRow, _ := r.Sweep.PolicyRow("Optimal", false)
	// The graph policy sits between optimal and random.
	if graphRow[last] >= randRow[last] {
		t.Fatalf("graph (%v) not better than random (%v)", graphRow[last], randRow[last])
	}
	if graphRow[last] < optRow[last]-1e-9 {
		t.Fatalf("graph (%v) beats optimal (%v)?", graphRow[last], optRow[last])
	}
	if !strings.Contains(r.TopEdges, "lift") {
		t.Fatal("edges missing")
	}
	if !strings.Contains(r.Format(), "model-relationship graph") {
		t.Fatal("format header wrong")
	}
}
