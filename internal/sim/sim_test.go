package sim

import (
	"slices"
	"testing"

	"ams/internal/labels"
	"ams/internal/oracle"
	"ams/internal/synth"
	"ams/internal/zoo"
)

var (
	vocab = labels.NewVocabulary()
	z     = zoo.NewZoo(vocab)
	ds    = synth.NewDataset(vocab, synth.MSCOCO(), 25, 71)
	store = oracle.Build(z, ds.Scenes)
)

// seqPolicy executes models in fixed ID order, ignoring constraints
// (it only runs under the unconstrained executor).
type seqPolicy struct{ stopAfter int }

func (p *seqPolicy) Name() string { return "seq" }
func (p *seqPolicy) Reset(int)    {}
func (p *seqPolicy) Next(t *oracle.Tracker, _ Constraints) int {
	if p.stopAfter > 0 && t.ExecutedCount() >= p.stopAfter {
		return -1
	}
	for m := range t.Unexecuted() {
		return m
	}
	return -1
}
func (p *seqPolicy) Observe(int, zoo.Output) {}

// seqDeadline picks the first unexecuted model that fits the budget.
type seqDeadline struct{}

func (seqDeadline) Name() string { return "seq-deadline" }
func (seqDeadline) Reset(int)    {}
func (seqDeadline) Next(t *oracle.Tracker, c Constraints) int {
	for m := range t.Unexecuted() {
		if c.AllowsTime(store.Zoo.Models[m].TimeMS) {
			return m
		}
	}
	return -1
}
func (seqDeadline) Observe(int, zoo.Output) {}

// greedyPacker launches every candidate that fits (for event-loop tests).
type greedyPacker struct{}

func (*greedyPacker) Name() string { return "greedy" }
func (*greedyPacker) Reset(int)    {}
func (*greedyPacker) Next(t *oracle.Tracker, c Constraints) int {
	for m := range t.Candidates() {
		if c.Allows(store.Zoo.Models[m]) {
			return m
		}
	}
	return -1
}
func (*greedyPacker) Observe(int, zoo.Output) {}

func TestRunToRecallStopsAtThreshold(t *testing.T) {
	res := RunToRecall(store, 0, &seqPolicy{}, 0.5)
	if res.Recall < 0.5-1e-9 {
		t.Fatalf("recall %v below threshold", res.Recall)
	}
	// One fewer execution must be below the threshold (minimality).
	if len(res.Executed) > 1 {
		tr := oracle.NewTracker(store, 0)
		for _, m := range res.Executed[:len(res.Executed)-1] {
			tr.Execute(m)
		}
		if tr.Recall() >= 0.5 {
			t.Fatalf("loop executed past the stop point")
		}
	}
}

func TestRunToRecallHonorsPolicyStop(t *testing.T) {
	res := RunToRecall(store, 0, &seqPolicy{stopAfter: 3}, 1.0)
	if len(res.Executed) != 3 {
		t.Fatalf("policy stop ignored: %d executions", len(res.Executed))
	}
}

func TestRunToRecallZeroThreshold(t *testing.T) {
	res := RunToRecall(store, 0, &seqPolicy{}, 0)
	if len(res.Executed) != 0 {
		t.Fatalf("zero threshold should execute nothing, got %d", len(res.Executed))
	}
}

func TestRunDeadlineZeroBudget(t *testing.T) {
	res := RunDeadline(store, 0, seqDeadline{}, 0)
	if len(res.Executed) != 0 || res.TimeMS != 0 {
		t.Fatalf("zero budget executed models: %+v", res)
	}
}

func TestRunDeadlineLargeBudgetRunsAll(t *testing.T) {
	res := RunDeadline(store, 0, seqDeadline{}, z.TotalTimeMS()+1)
	if len(res.Executed) != store.NumModels() {
		t.Fatalf("full budget ran %d models", len(res.Executed))
	}
	if res.Recall < 1-1e-9 {
		t.Fatalf("full budget recall %v", res.Recall)
	}
}

func TestRunParallelGreedyPacksAll(t *testing.T) {
	res := RunParallel(store, 0, &greedyPacker{}, z.TotalTimeMS(), 1<<20)
	if len(res.Executed) != store.NumModels() {
		t.Fatalf("unbounded memory ran %d models", len(res.Executed))
	}
	// With effectively unlimited memory everything runs concurrently, so
	// the makespan is the slowest model, not the serial sum.
	var maxT float64
	for _, m := range z.Models {
		if m.TimeMS > maxT {
			maxT = m.TimeMS
		}
	}
	if res.MakespanMS > maxT+1e-9 {
		t.Fatalf("makespan %v exceeds slowest model %v", res.MakespanMS, maxT)
	}
}

func TestRunParallelMemorySerializes(t *testing.T) {
	// A memory budget that fits only one heavyweight model at a time
	// forces serialization of the big models.
	res := RunParallel(store, 0, &greedyPacker{}, z.TotalTimeMS()*2, 8000)
	if res.PeakMemMB > 8000+1e-9 {
		t.Fatalf("peak memory %v over budget", res.PeakMemMB)
	}
	if len(res.Executed) != store.NumModels() {
		t.Fatalf("ran %d models", len(res.Executed))
	}
}

func TestRunParallelBadBudgetsPanic(t *testing.T) {
	for _, c := range []struct{ d, m float64 }{{0, 100}, {100, 0}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("budgets %v did not panic", c)
				}
			}()
			RunParallel(store, 0, &greedyPacker{}, c.d, c.m)
		}()
	}
}

func TestRunToRecallBadThresholdPanics(t *testing.T) {
	for _, th := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("threshold %v did not panic", th)
				}
			}()
			RunToRecall(store, 0, &seqPolicy{}, th)
		}()
	}
}

func TestParallelCompletionOrderIsByFinishTime(t *testing.T) {
	res := RunParallel(store, 1, &greedyPacker{}, z.TotalTimeMS(), 1<<20)
	// With all models launched at t=0, completion order equals ascending
	// model time (ties in input order).
	for i := 1; i < len(res.Executed); i++ {
		a := z.Models[res.Executed[i-1]].TimeMS
		b := z.Models[res.Executed[i]].TimeMS
		if a > b {
			t.Fatalf("completion order violates finish times at %d: %v > %v", i, a, b)
		}
	}
}

// countingExecutor counts the Output calls per model on the store it
// wraps — on an external item each is a round trip through its memo's
// mutex.
type countingExecutor struct {
	*oracle.Store
	reads []int
}

func (c *countingExecutor) Output(i, m int) zoo.Output {
	c.reads[m]++
	return c.Store.Output(i, m)
}

// TestExecuteReadsEachOutputOnce: the executor reveals a committed
// model's output to the labeling state, the policy and the result from
// one read, serial or overlapped, and never reads a model it did not
// commit.
func TestExecuteReadsEachOutputOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(oracle.Executor) Result
	}{
		{"serial", func(ex oracle.Executor) Result { return RunDeadline(ex, 2, seqDeadline{}, 600) }},
		{"parallel", func(ex oracle.Executor) Result { return RunParallel(ex, 2, &greedyPacker{}, 600, 8000) }},
	} {
		ex := &countingExecutor{Store: store, reads: make([]int, store.NumModels())}
		res := tc.run(ex)
		if len(res.Executed) < 2 {
			t.Fatalf("%s: schedule too short to check: %v", tc.name, res.Executed)
		}
		want := make([]int, store.NumModels())
		for _, m := range res.Executed {
			want[m] = 1
		}
		if !slices.Equal(ex.reads, want) {
			t.Errorf("%s: Output reads per model %v, want %v (one per committed model)", tc.name, ex.reads, want)
		}
	}
}
