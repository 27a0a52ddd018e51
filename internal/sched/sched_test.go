package sched

import (
	"math"
	"testing"

	"ams/internal/labels"
	"ams/internal/oracle"
	"ams/internal/rules"
	"ams/internal/sim"
	"ams/internal/synth"
	"ams/internal/tensor"
	"ams/internal/zoo"
)

var (
	vocab = labels.NewVocabulary()
	z     = zoo.NewZoo(vocab)
	ds    = synth.NewDataset(vocab, synth.MSCOCO(), 40, 51)
	store = oracle.Build(z, ds.Scenes)
)

// fixedPredictor returns the same value vector regardless of state.
type fixedPredictor struct{ q []float64 }

func (p fixedPredictor) Predict([]int) []float64 { return p.q }

// cheatPredictor returns the true static model values of one scene — a
// stand-in for a perfectly trained agent in policy unit tests.
type cheatPredictor struct{ scene int }

func (p cheatPredictor) Predict([]int) []float64 {
	q := make([]float64, store.NumModels()+1)
	for m := 0; m < store.NumModels(); m++ {
		q[m] = store.ModelValue(p.scene, m)
	}
	return q
}

func TestRandomOrderCoversAllModels(t *testing.T) {
	p := NewRandom(z, tensor.NewRNG(1))
	res := sim.RunToRecall(store, 0, p, 1.0)
	if res.Recall < 1-1e-9 {
		t.Fatalf("random policy never reached full recall: %v", res.Recall)
	}
	seen := map[int]bool{}
	for _, m := range res.Executed {
		if seen[m] {
			t.Fatalf("model %d executed twice", m)
		}
		seen[m] = true
	}
}

func TestOptimalBeatsRandomOnAverage(t *testing.T) {
	rng := tensor.NewRNG(2)
	var randomTime, optimalTime float64
	for i := 0; i < store.NumScenes(); i++ {
		randomTime += sim.RunToRecall(store, i, NewRandom(z, rng), 1.0).TimeMS
		optimalTime += sim.RunToRecall(store, i, NewOptimal(store), 1.0).TimeMS
	}
	if optimalTime >= randomTime {
		t.Fatalf("optimal (%v) not faster than random (%v)", optimalTime, randomTime)
	}
	if optimalTime >= 0.6*randomTime {
		t.Fatalf("optimal (%v) should be well under random (%v)", optimalTime, randomTime)
	}
}

func TestOptimalOrderReachesThreshold(t *testing.T) {
	for i := 0; i < 10; i++ {
		for _, th := range []float64{0.2, 0.5, 0.8, 1.0} {
			res := sim.RunToRecall(store, i, NewOptimal(store), th)
			if res.Recall < th-1e-9 {
				t.Fatalf("scene %d: optimal recall %v below threshold %v", i, res.Recall, th)
			}
		}
	}
}

func TestQGreedyWithCheatMatchesOptimalCount(t *testing.T) {
	// With the true static values as Q, Q-greedy must execute no more
	// models than random needs on average.
	rng := tensor.NewRNG(3)
	var cheatN, randN int
	for i := 0; i < store.NumScenes(); i++ {
		cheatN += len(sim.RunToRecall(store, i, NewQGreedy(cheatPredictor{i}, z), 1.0).Executed)
		randN += len(sim.RunToRecall(store, i, NewRandom(z, rng), 1.0).Executed)
	}
	if cheatN >= randN {
		t.Fatalf("cheating Q-greedy (%d) not better than random (%d)", cheatN, randN)
	}
}

func TestRuleOrderValid(t *testing.T) {
	engine := rules.NewEngine(vocab, z, rules.TableII())
	p := NewRule(engine, z, tensor.NewRNG(5))
	for i := 0; i < 10; i++ {
		res := sim.RunToRecall(store, i, p, 1.0)
		if res.Recall < 1-1e-9 {
			t.Fatalf("rule policy stalled on scene %d", i)
		}
	}
}

func TestRunDeadlineRespectsBudget(t *testing.T) {
	rng := tensor.NewRNG(7)
	for _, deadline := range []float64{100, 500, 1000, 3000} {
		for i := 0; i < 10; i++ {
			for _, p := range []sim.Policy{
				NewRandom(z, rng),
				NewQGreedy(cheatPredictor{i}, z),
				NewCostQGreedy(cheatPredictor{i}, z),
			} {
				res := sim.RunDeadline(store, i, p, deadline)
				if res.TimeMS > deadline+1e-9 {
					t.Fatalf("%s exceeded deadline %v: used %v", p.Name(), deadline, res.TimeMS)
				}
			}
		}
	}
}

func TestCostQGreedyBeatsRandomUnderTightDeadline(t *testing.T) {
	rng := tensor.NewRNG(9)
	const deadline = 500 // ms, the paper's headline budget
	var costQ, random float64
	for i := 0; i < store.NumScenes(); i++ {
		costQ += sim.RunDeadline(store, i, NewCostQGreedy(cheatPredictor{i}, z), deadline).Recall
		random += sim.RunDeadline(store, i, NewRandom(z, rng), deadline).Recall
	}
	if costQ <= random {
		t.Fatalf("cost-Q (%v) not better than random (%v) at 0.5 s", costQ, random)
	}
}

func TestCostQGreedyPrefersDenseModel(t *testing.T) {
	// With Q values {m0: 1.0 over 90ms (objdet-fast), m1: 2.0 over 380ms},
	// density picks m0 first.
	q := make([]float64, store.NumModels()+1)
	q[0] = 1.0 // objdet-fast, 90 ms
	q[1] = 2.0 // objdet-accurate, 380 ms
	p := NewCostQGreedy(fixedPredictor{q}, z)
	tr := oracle.NewTracker(store, 0)
	if got := p.Next(tr, sim.Constraints{RemainingMS: 5000}); got != 0 {
		t.Fatalf("cost-Q picked %d, want the denser model 0", got)
	}
	// Plain Q-greedy picks the bigger Q.
	g := NewQGreedy(fixedPredictor{q}, z)
	if got := g.Next(tr, sim.Constraints{RemainingMS: 5000}); got != 1 {
		t.Fatalf("Q-greedy picked %d, want 1", got)
	}
}

func TestCostQGreedyFallbackWhenAllNegative(t *testing.T) {
	q := make([]float64, store.NumModels()+1)
	for i := range q {
		q[i] = -1
	}
	q[4] = -0.1 // least bad
	p := NewCostQGreedy(fixedPredictor{q}, z)
	tr := oracle.NewTracker(store, 0)
	if got := p.Next(tr, sim.Constraints{RemainingMS: 5000}); got != 4 {
		t.Fatalf("fallback picked %d, want 4", got)
	}
}

func TestOptimalStarDeadlineBounds(t *testing.T) {
	for i := 0; i < store.NumScenes(); i++ {
		prev := 0.0
		for _, d := range []float64{100, 250, 500, 1000, 2000, 4000, 6000} {
			r := OptimalStarDeadline(store, i, d)
			if r < prev-1e-9 {
				t.Fatalf("optimal* not monotone in deadline on scene %d", i)
			}
			if r < 0 || r > 1 {
				t.Fatalf("optimal* out of range: %v", r)
			}
			prev = r
			// Reference bound: a feasible serial policy may beat the greedy
			// relaxation only by a sliver (submodular marginals).
			feas := sim.RunDeadline(store, i, NewCostQGreedy(cheatPredictor{i}, z), d)
			if feas.Recall > r+0.05 {
				t.Fatalf("scene %d deadline %v: feasible %v beats optimal* %v",
					i, d, feas.Recall, r)
			}
		}
		// With the full no-policy budget, optimal* recalls everything.
		if r := OptimalStarDeadline(store, i, z.TotalTimeMS()); r < 1-1e-9 {
			t.Fatalf("scene %d: optimal* at full budget = %v", i, r)
		}
	}
}

func TestOptimalStarMemoryBoundsParallel(t *testing.T) {
	for i := 0; i < 15; i++ {
		for _, mem := range []float64{8000, 12000, 16000} {
			for _, d := range []float64{400, 800, 1600} {
				bound := OptimalStarMemory(store, i, d, mem)
				got := sim.RunParallel(store, i, NewMemoryPacker(cheatPredictor{i}, z), d, mem)
				if got.Recall > bound+0.05 {
					t.Fatalf("scene %d d=%v mem=%v: packer %v beats optimal* %v",
						i, d, mem, got.Recall, bound)
				}
			}
		}
	}
}

func TestParallelRespectsBudgets(t *testing.T) {
	rng := tensor.NewRNG(11)
	for i := 0; i < 15; i++ {
		for _, mem := range []float64{8000, 12000} {
			for _, d := range []float64{400, 800} {
				for _, sel := range []sim.Policy{
					NewMemoryPacker(cheatPredictor{i}, z),
					NewRandomPacker(z, rng),
				} {
					res := sim.RunParallel(store, i, sel, d, mem)
					if res.MakespanMS > d+1e-9 {
						t.Fatalf("%s makespan %v exceeds deadline %v", sel.Name(), res.MakespanMS, d)
					}
					if res.PeakMemMB > mem+1e-9 {
						t.Fatalf("%s peak memory %v exceeds %v", sel.Name(), res.PeakMemMB, mem)
					}
				}
			}
		}
	}
}

func TestParallelPackerBeatsRandomTight(t *testing.T) {
	rng := tensor.NewRNG(13)
	var agent, random float64
	const d, mem = 800, 8000
	for i := 0; i < store.NumScenes(); i++ {
		agent += sim.RunParallel(store, i, NewMemoryPacker(cheatPredictor{i}, z), d, mem).Recall
		random += sim.RunParallel(store, i, NewRandomPacker(z, rng), d, mem).Recall
	}
	if agent <= random {
		t.Fatalf("memory packer (%v) not better than random (%v)", agent, random)
	}
}

func TestParallelRunsModelsConcurrently(t *testing.T) {
	// With a generous memory budget the makespan must be well below the
	// serial sum for at least one scene.
	concurrent := false
	for i := 0; i < 10; i++ {
		res := sim.RunParallel(store, i, NewRandomPacker(z, tensor.NewRNG(17)), 3000, 16000)
		var serial float64
		for _, m := range res.Executed {
			serial += z.Models[m].TimeMS
		}
		if len(res.Executed) >= 4 && res.MakespanMS < 0.8*serial {
			concurrent = true
		}
	}
	if !concurrent {
		t.Fatal("parallel executor never overlapped executions")
	}
}

func TestExploreExploitOnChunkedStream(t *testing.T) {
	chunked := ds.Chunked(vocab, 10, 99)
	cst := oracle.Build(z, chunked.Scenes)
	results := RunExploreExploit(cst, ExploreExploitConfig{ChunkLen: 10, ExploreN: 1})
	if len(results) != cst.NumScenes() {
		t.Fatalf("got %d results", len(results))
	}
	var total, full float64
	var recall float64
	for _, r := range results {
		total += r.TimeMS
		full += z.TotalTimeMS()
		recall += r.Recall
	}
	if total >= 0.7*full {
		t.Fatalf("explore-exploit saved too little: %v vs %v", total, full)
	}
	avgRecall := recall / float64(len(results))
	if avgRecall < 0.85 {
		t.Fatalf("explore-exploit average recall %v too low", avgRecall)
	}
}

func TestExploreExploitConfigValidation(t *testing.T) {
	for _, cfg := range []ExploreExploitConfig{
		{ChunkLen: 0, ExploreN: 1},
		{ChunkLen: 5, ExploreN: 0},
		{ChunkLen: 5, ExploreN: 6},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v did not panic", cfg)
				}
			}()
			RunExploreExploit(store, cfg)
		}()
	}
}

func TestRunToRecallThresholdValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid threshold did not panic")
		}
	}()
	sim.RunToRecall(store, 0, NewRandom(z, tensor.NewRNG(1)), 1.5)
}

func TestSerialResultTimeMatchesModels(t *testing.T) {
	res := sim.RunToRecall(store, 2, NewOptimal(store), 1.0)
	var want float64
	for _, m := range res.Executed {
		want += z.Models[m].TimeMS
	}
	if math.Abs(res.TimeMS-want) > 1e-9 {
		t.Fatalf("result time %v != summed model time %v", res.TimeMS, want)
	}
}

// --- Unified-contract tests ----------------------------------------------

// TestPoliciesSkipModelsOverMemoryCap: under a memory constraint every
// policy must skip models that do not fit the available headroom and
// keep scheduling the ones that do — the contract that lets the real
// server feed live availability into Next.
func TestPoliciesSkipModelsOverMemoryCap(t *testing.T) {
	const capMB = 1000 // excludes several heavyweight models
	var fits, excluded []int
	for m := range z.Models {
		if z.Models[m].MemMB <= capMB {
			fits = append(fits, m)
		} else {
			excluded = append(excluded, m)
		}
	}
	if len(excluded) == 0 {
		t.Fatal("test needs at least one model over the cap")
	}
	rng := tensor.NewRNG(19)
	for _, p := range []sim.Policy{
		NewRandom(z, rng),
		NewOptimal(store),
		NewQGreedy(cheatPredictor{0}, z),
		NewCostQGreedy(cheatPredictor{0}, z),
		NewMemoryPacker(cheatPredictor{0}, z),
	} {
		p.Reset(0)
		tr := oracle.NewTracker(store, 0)
		c := sim.Constraints{RemainingMS: z.TotalTimeMS(), AvailMemMB: capMB}
		var executed int
		for {
			m := p.Next(tr, c)
			if m < 0 {
				break
			}
			if z.Models[m].MemMB > capMB+1e-9 {
				t.Fatalf("%s selected model %d (%v MB) over the %v MB cap",
					p.Name(), m, z.Models[m].MemMB, capMB)
			}
			tr.Execute(m)
			p.Observe(m, store.Output(0, m))
			executed++
		}
		// The schedule continued past the excluded models: every model
		// under the cap with any scheduling appeal ran. For the
		// exhaustive policies that is all of them.
		if executed == 0 {
			t.Fatalf("%s scheduled nothing under a feasible cap", p.Name())
		}
		if p.Name() == "Random" || p.Name() == "Optimal" {
			if executed != len(fits) {
				t.Fatalf("%s ran %d models under the cap, want all %d fitting ones",
					p.Name(), executed, len(fits))
			}
		}
		for _, m := range excluded {
			if tr.Executed(m) {
				t.Fatalf("%s executed over-cap model %d", p.Name(), m)
			}
		}
	}
}

// refCostQGreedy reimplements the pre-refactor Algorithm 1 (deadline
// only, no memory dimension) as a reference for the bit-identity test.
func refCostQGreedy(pred Predictor, tr *oracle.Tracker, remainingMS float64) int {
	q := pred.Predict(tr.State())
	bestRatio, bestRatioM := 0.0, -1
	bestQ, bestQM := 0.0, -1
	for _, m := range tr.Unexecuted() {
		mt := z.Models[m].TimeMS
		if mt > remainingMS {
			continue
		}
		if q[m] > 0 {
			if ratio := q[m] / mt; bestRatioM < 0 || ratio > bestRatio {
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

// refRandomDeadline reimplements the pre-refactor random deadline
// baseline (one Intn draw over the feasible set per step).
func refRandomDeadline(rng *tensor.RNG, tr *oracle.Tracker, remainingMS float64) int {
	var feasible []int
	for _, m := range tr.Unexecuted() {
		if z.Models[m].TimeMS <= remainingMS {
			feasible = append(feasible, m)
		}
	}
	if len(feasible) == 0 {
		return -1
	}
	return feasible[rng.Intn(len(feasible))]
}

// refRun drives a pre-refactor reference step function through the old
// serial deadline loop.
func refRun(scene int, deadlineMS float64, step func(*oracle.Tracker, float64) int) []int {
	tr := oracle.NewTracker(store, scene)
	remaining := deadlineMS
	var executed []int
	for tr.ExecutedCount() < store.NumModels() {
		m := step(tr, remaining)
		if m < 0 {
			break
		}
		tr.Execute(m)
		executed = append(executed, m)
		remaining -= z.Models[m].TimeMS
	}
	return executed
}

// TestDeadlineBehaviorBitIdenticalToPreRefactor: with no memory
// dimension in play, the unified policies must reproduce the schedules
// of the deleted deadline-specific implementations exactly, on a fixed
// seed, across every scene and several budgets.
func TestDeadlineBehaviorBitIdenticalToPreRefactor(t *testing.T) {
	for _, deadline := range []float64{100, 500, 1000, 3000} {
		for i := 0; i < store.NumScenes(); i++ {
			got := sim.RunDeadline(store, i, NewCostQGreedy(cheatPredictor{i}, z), deadline)
			want := refRun(i, deadline, func(tr *oracle.Tracker, rem float64) int {
				return refCostQGreedy(cheatPredictor{i}, tr, rem)
			})
			if len(got.Executed) != len(want) {
				t.Fatalf("scene %d deadline %v: cost-Q %v, reference %v", i, deadline, got.Executed, want)
			}
			for j := range want {
				if got.Executed[j] != want[j] {
					t.Fatalf("scene %d deadline %v: cost-Q diverges at %d: %v vs %v",
						i, deadline, j, got.Executed, want)
				}
			}
		}
	}
	// The random baseline consumes its RNG stream identically too.
	const seed = 12345
	newRNG, refRNG := tensor.NewRNG(seed), tensor.NewRNG(seed)
	p := NewRandom(z, newRNG)
	for i := 0; i < store.NumScenes(); i++ {
		got := sim.RunDeadline(store, i, p, 700)
		want := refRun(i, 700, func(tr *oracle.Tracker, rem float64) int {
			return refRandomDeadline(refRNG, tr, rem)
		})
		if len(got.Executed) != len(want) {
			t.Fatalf("scene %d: random %v, reference %v", i, got.Executed, want)
		}
		for j := range want {
			if got.Executed[j] != want[j] {
				t.Fatalf("scene %d: random diverges at %d: %v vs %v", i, j, got.Executed, want)
			}
		}
	}
}

// TestMemoryPackerSerialUnderDeadline: Algorithm 2 also runs under the
// plain serial executors now that the contract is unified.
func TestMemoryPackerSerialUnderDeadline(t *testing.T) {
	for i := 0; i < 10; i++ {
		res := sim.RunDeadline(store, i, NewMemoryPacker(cheatPredictor{i}, z), 800)
		if res.TimeMS > 800+1e-9 {
			t.Fatalf("scene %d: packer exceeded the serial deadline: %v", i, res.TimeMS)
		}
	}
}

// TestScheduleAllocationBudget pins what one schedule allocates on the
// virtual machine, so the per-item state cannot quietly grow a copy
// again: the labeling state (tracker, recalled-label map, sorted state),
// one candidates slice per ask, and the result's growing slices — no
// per-policy in-flight set, no memo map, no key strings. The budgets are
// the measured counts (Algorithm 1: 8 models, 65; Algorithm 2: 19 models,
// 111 — with those copies it was 140 and 365) plus a tenth for
// map-growth variation across Go releases.
func TestScheduleAllocationBudget(t *testing.T) {
	q := make([]float64, store.NumModels()+1)
	for m := range store.NumModels() {
		q[m] = store.ModelValue(0, m)
	}
	alg1 := NewCostQGreedy(NewCachedPredictor(fixedPredictor{q}), z)
	alg2 := NewMemoryPacker(NewCachedPredictor(fixedPredictor{q}), z)
	for _, tc := range []struct {
		name   string
		run    func() sim.Result
		budget float64
	}{
		{"algorithm1", func() sim.Result { return sim.RunDeadline(store, 0, alg1, 1000) }, 72},
		{"algorithm2", func() sim.Result { return sim.RunParallel(store, 0, alg2, 1000, 8*1024) }, 122},
	} {
		if len(tc.run().Executed) < 3 {
			t.Fatalf("%s: schedule too short to measure: %v", tc.name, tc.run().Executed)
		}
		if n := testing.AllocsPerRun(20, func() { tc.run() }); n > tc.budget {
			t.Errorf("%s: one schedule allocated %v times, budget %v (ran %v)", tc.name, n, tc.budget, tc.run().Executed)
		}
	}
}
