package ams

import (
	"fmt"
	"reflect"
	"testing"

	"ams/internal/sched"
	"ams/internal/sim"
)

// countedPredictor counts the forward passes of the predictor it wraps.
type countedPredictor struct {
	sched.Predictor
	passes int
}

func (p *countedPredictor) Predict(state []int) []float64 {
	p.passes++
	return p.Predictor.Predict(state)
}

// mapMemo is the reference memo the one-state memo replaced: every
// distinct state of the item kept in a map, behind it an optional shared
// map spanning items, with the lookups of that tier counted.
type mapMemo struct {
	pred                     sched.Predictor
	item, shared             map[string][]float64
	sharedHits, sharedMisses int64
}

func (c *mapMemo) Predict(state []int) []float64 {
	k := fmt.Sprint(state)
	if q, ok := c.item[k]; ok {
		return q
	}
	q, ok := c.shared[k]
	if c.shared != nil {
		if ok {
			c.sharedHits++
		} else {
			c.sharedMisses++
		}
	}
	if !ok {
		q = append([]float64(nil), c.pred.Predict(state)...)
		if c.shared != nil {
			c.shared[k] = q
		}
	}
	c.item[k] = q
	return q
}

// memoAlgorithms runs the paper's two algorithms over a predictor on the
// virtual machine, under the budgets the serving tests use.
var memoAlgorithms = []struct {
	name   string
	policy Policy
	build  func(pred sched.Predictor) sim.Policy
	run    func(idx int, p sim.Policy) sim.Result
}{
	{"algorithm1", PolicyAlgorithm1,
		func(pred sched.Predictor) sim.Policy { return sched.NewCostQGreedy(pred, testSys.Zoo) },
		func(idx int, p sim.Policy) sim.Result { return sim.RunDeadline(testSys.testStore, idx, p, 500) }},
	{"algorithm2", PolicyAlgorithm2,
		func(pred sched.Predictor) sim.Policy { return sched.NewMemoryPacker(pred, testSys.Zoo) },
		func(idx int, p sim.Policy) sim.Result { return sim.RunParallel(testSys.testStore, idx, p, 500, 8*1024) }},
}

// TestOneStateMemoMatchesMapMemo checks the argument the one-state memo
// rests on instead of assuming it: a labeling state only grows within an
// item, so remembering the last state saves every forward pass a map of
// all the item's states would. Over every test-split item and both
// algorithms, the two memos run the same number of forward passes and
// the same schedule — and the memo is not idle: repeated asks do occur.
func TestOneStateMemoMatchesMapMemo(t *testing.T) {
	for _, alg := range memoAlgorithms {
		one := &countedPredictor{Predictor: testAgent.inner.Fork()}
		ref := &countedPredictor{Predictor: testAgent.inner.Fork()}
		refMemo := &mapMemo{pred: ref}
		asks := &countedPredictor{Predictor: refMemo}
		p, refP := alg.build(sched.NewSharedCachedPredictor(one, nil)), alg.build(asks)
		for i := 0; i < testSys.NumTestImages(); i++ {
			refMemo.item = map[string][]float64{}
			before, refBefore := one.passes, ref.passes
			got, want := alg.run(i, p), alg.run(i, refP)
			if !reflect.DeepEqual(got.Executed, want.Executed) {
				t.Fatalf("%s item %d: schedule %v, map-memo reference %v", alg.name, i, got.Executed, want.Executed)
			}
			if a, b := one.passes-before, ref.passes-refBefore; a != b {
				t.Fatalf("%s item %d: %d forward passes, map-memo reference %d", alg.name, i, a, b)
			}
		}
		if asks.passes <= one.passes {
			t.Fatalf("%s: %d asks ran %d forward passes: the memo never hit", alg.name, asks.passes, one.passes)
		}
	}
}

// TestServedCacheCountsMatchMapMemo: on a one-worker server the shared
// predictor cache is consulted exactly when a map of the item's states
// would have missed, so ServeStats.PredCacheHits/Misses are what the
// map-keyed memo produced.
func TestServedCacheCountsMatchMapMemo(t *testing.T) {
	for _, alg := range memoAlgorithms {
		refMemo := &mapMemo{pred: testAgent.inner.Fork(), shared: map[string][]float64{}}
		refP := alg.build(refMemo)
		cfg := ServeConfig{Workers: 1, Policy: alg.policy, DeadlineSec: 0.5, TimeScale: 0.001, PredictorCache: true}
		if alg.policy.parallel {
			cfg.MemoryGB = 8
		}
		srv, err := testSys.NewServer(testAgent, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < testSys.NumTestImages(); i++ {
			refMemo.item = map[string][]float64{}
			alg.run(i, refP)
			tk, err := srv.SubmitWait(bg, testSys.TestItem(i))
			if err != nil {
				t.Fatal(err)
			}
			mustWait(t, tk)
		}
		st := srv.Stats()
		srv.Close()
		if st.PredCacheHits != refMemo.sharedHits || st.PredCacheMisses != refMemo.sharedMisses {
			t.Fatalf("%s: served cache %d hits / %d misses, map-memo reference %d / %d",
				alg.name, st.PredCacheHits, st.PredCacheMisses, refMemo.sharedHits, refMemo.sharedMisses)
		}
		if st.PredCacheHits == 0 || st.PredCacheMisses == 0 {
			t.Fatalf("%s: cache idle: %d hits, %d misses", alg.name, st.PredCacheHits, st.PredCacheMisses)
		}
	}
}
