package ams

import (
	"math"
	"slices"
	"strings"
	"testing"

	"ams/internal/sched"
	"ams/internal/sim"
)

func TestPolicyRegistry(t *testing.T) {
	names := PolicyNames()
	want := []string{"algorithm1", "algorithm2", "qgreedy", "random"}
	if len(names) != len(want) {
		t.Fatalf("PolicyNames() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("PolicyNames() = %v, want %v", names, want)
		}
	}
	for _, n := range want {
		p, err := PolicyByName(n)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", n, err)
		}
		if p.Name() != n {
			t.Fatalf("policy %q reports name %q", n, p.Name())
		}
	}
}

func TestPolicyByNameUnknownErrors(t *testing.T) {
	for _, n := range []string{"", "nope", "Algorithm1", "ALGORITHM2"} {
		if _, err := PolicyByName(n); err == nil {
			t.Fatalf("PolicyByName(%q) accepted", n)
		} else if !strings.Contains(err.Error(), "unknown policy") {
			t.Fatalf("PolicyByName(%q) error %v does not name the problem", n, err)
		}
	}
}

func TestLabelWithValidation(t *testing.T) {
	// Zero Policy value is rejected.
	if _, err := testSys.LabelWith(bg, Policy{}, testAgent, testSys.TestItem(0), Budget{}); err == nil {
		t.Fatal("zero Policy accepted")
	}
	// Agent-driven policies need an agent.
	if _, err := testSys.LabelWith(bg, PolicyAlgorithm1, nil, testSys.TestItem(0), Budget{DeadlineSec: 0.5}); err == nil {
		t.Fatal("algorithm1 without an agent accepted")
	}
	// The random baseline does not.
	if _, err := testSys.LabelWith(bg, PolicyRandom, nil, testSys.TestItem(0), Budget{DeadlineSec: 0.5}); err != nil {
		t.Fatalf("random without an agent: %v", err)
	}
	// Budget validation is shared.
	if _, err := testSys.LabelWith(bg, PolicyAlgorithm2, testAgent, testSys.TestItem(0), Budget{MemoryGB: 8}); err == nil {
		t.Fatal("memory-without-deadline accepted")
	}
	if _, err := testSys.LabelWith(bg, PolicyAlgorithm1, testAgent, testSys.TestItem(0), Budget{DeadlineSec: -1}); err == nil {
		t.Fatal("negative deadline accepted")
	}
	if _, err := testSys.LabelWith(bg, PolicyAlgorithm1, testAgent, testSys.TestItem(-1), Budget{}); err == nil {
		t.Fatal("bad image accepted")
	}
}

// TestLabelWithMatchesLabel: Label is LabelWith(DefaultPolicy(b)), so
// the two surfaces must agree exactly for every budget shape.
func TestLabelWithMatchesLabel(t *testing.T) {
	for _, b := range []Budget{
		{},
		{DeadlineSec: 0.5},
		{DeadlineSec: 0.8, MemoryGB: 8},
	} {
		got, err := testSys.LabelWith(bg, DefaultPolicy(b), testAgent, testSys.TestItem(1), b)
		if err != nil {
			t.Fatalf("LabelWith(%+v): %v", b, err)
		}
		want, err := testSys.Label(bg, testAgent, testSys.TestItem(1), b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Recall != want.Recall || got.TimeSec != want.TimeSec ||
			len(got.ModelsRun) != len(want.ModelsRun) {
			t.Fatalf("budget %+v: LabelWith %+v diverges from Label %+v", b, got, want)
		}
	}
}

// TestAnyPolicyUnderAnyBudget: the unified contract means every
// registry policy runs under every executor shape.
func TestAnyPolicyUnderAnyBudget(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p = p.WithSeed(7)
		for _, b := range []Budget{
			{},
			{DeadlineSec: 0.5},
			{DeadlineSec: 0.8, MemoryGB: 8},
		} {
			res, err := testSys.LabelWith(bg, p, testAgent, testSys.TestItem(2), b)
			if err != nil {
				t.Fatalf("policy %q budget %+v: %v", name, b, err)
			}
			if res.Recall < 0 || res.Recall > 1+1e-9 {
				t.Fatalf("policy %q budget %+v: recall %v", name, b, res.Recall)
			}
			if b.DeadlineSec > 0 && res.TimeSec > b.DeadlineSec+1e-9 {
				t.Fatalf("policy %q budget %+v: time %v over deadline", name, b, res.TimeSec)
			}
		}
	}
}

func TestServePolicyValidation(t *testing.T) {
	// Algorithm 2 serving requires a memory budget.
	if _, err := testSys.NewServer(testAgent, ServeConfig{
		Workers: 1, DeadlineSec: 0.5, TimeScale: 0.001, Policy: PolicyAlgorithm2,
	}); err == nil {
		t.Fatal("algorithm2 serving without a memory budget accepted")
	}
	// The zero policy defaults to algorithm1 and needs an agent.
	if _, err := testSys.NewServer(nil, ServeConfig{
		Workers: 1, DeadlineSec: 0.5, TimeScale: 0.001,
	}); err == nil {
		t.Fatal("nil agent accepted for the default policy")
	}
	// The random policy serves without an agent.
	cfg := ServeConfig{Workers: 1, DeadlineSec: 0.5, TimeScale: 0.001, Policy: PolicyRandom.WithSeed(3)}
	srv, err := testSys.NewServer(nil, cfg)
	if err != nil {
		t.Fatalf("random policy without agent: %v", err)
	}
	closeAtCleanup(t, srv, cfg)
	tk, err := srv.Submit(testSys.TestItem(0))
	if err != nil {
		t.Fatal(err)
	}
	if res := mustWait(t, tk); res.Recall < 0 || res.Recall > 1+1e-9 {
		t.Fatalf("bad result %+v", res)
	}
}

// TestServeReportsSelectOverhead: the real server must quantify the
// per-item policy selection overhead; the virtual-time sim models it as
// free.
func TestServeReportsSelectOverhead(t *testing.T) {
	cfg := serveCfg(2)
	trace := ServeTrace{ArrivalRateHz: 1000, Items: 20, Seed: 9}
	real, err := replayTrace(bg, testAgent, cfg, trace, nil)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if real.AvgSelectSec <= 0 {
		t.Fatalf("real AvgSelectSec %v, want > 0", real.AvgSelectSec)
	}
	sim, err := testSys.SimulateServe(testAgent, cfg, trace)
	if err != nil {
		t.Fatalf("SimulateServe: %v", err)
	}
	if sim.AvgSelectSec != 0 {
		t.Fatalf("sim AvgSelectSec %v, want 0", sim.AvgSelectSec)
	}
}

// recordingPredictor notes every labeling state a policy asks about.
type recordingPredictor struct {
	sched.Predictor
	states *[][]int
}

func (r recordingPredictor) Predict(state []int) []float64 {
	*r.states = append(*r.states, slices.Clone(state))
	return r.Predictor.Predict(state)
}

// TestPredictValuesMatchesNetForward: the frozen kernel behind every
// serving prediction returns, bit for bit, what the training network's
// forward pass returns, on every labeling state the paper's two
// algorithms visit while labeling the test split.
func TestPredictValuesMatchesNetForward(t *testing.T) {
	for _, tc := range []struct {
		policy Policy
		budget Budget
		wrap   func(sched.Predictor, *System) sim.Policy
	}{
		{PolicyAlgorithm1, Budget{DeadlineSec: 0.5},
			func(p sched.Predictor, s *System) sim.Policy { return sched.NewCostQGreedy(p, s.Zoo) }},
		{PolicyAlgorithm2, Budget{DeadlineSec: 0.8, MemoryGB: 8},
			func(p sched.Predictor, s *System) sim.Policy { return sched.NewMemoryPacker(p, s.Zoo) }},
	} {
		var states [][]int
		recorded := Policy{name: tc.policy.name + "-recorded", parallel: tc.policy.parallel, needsAgent: true,
			build: func(s *System, ag *Agent, _ uint64, cache *sched.SharedCache) sim.Policy {
				return tc.wrap(recordingPredictor{ag.workerPredictor(cache), &states}, s)
			}}
		for i := 0; i < testSys.NumTestImages(); i++ {
			got, err := testSys.LabelWith(bg, recorded, testAgent, testSys.TestItem(i), tc.budget)
			if err != nil {
				t.Fatal(err)
			}
			want, err := testSys.LabelWith(bg, tc.policy, testAgent, testSys.TestItem(i), tc.budget)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.ModelsRun, want.ModelsRun) {
				t.Fatalf("%s, image %d: the recorded policy ran %v, the registry policy %v",
					tc.policy.name, i, got.ModelsRun, want.ModelsRun)
			}
		}
		if len(states) < testSys.NumTestImages() {
			t.Fatalf("%s: recorded only %d states", tc.policy.name, len(states))
		}
		net := testAgent.inner.Net.Clone()
		for _, state := range states {
			want := net.Forward(state)[:testAgent.inner.NumModels]
			got := testAgent.PredictValues(state)
			if len(got) != len(want) {
				t.Fatalf("PredictValues returned %d values, want %d", len(got), len(want))
			}
			for m := range want {
				if math.Float64bits(got[m]) != math.Float64bits(want[m]) {
					t.Fatalf("%s, state %v, model %d: PredictValues %v, Net.Forward %v",
						tc.policy.name, state, m, got[m], want[m])
				}
			}
		}
	}
}
